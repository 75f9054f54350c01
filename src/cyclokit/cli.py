"""Batch command-line surface emitting JSON reports.

Commands:

* ``analyze --field S --n N`` — full classification data of the n-th root
  over the field: degree, orders, conjugation exponent, case tag, symbolic
  and concrete minimal polynomial, generators, kappa branch.
* ``moduli --field S [--prime P]`` — the global (or per-prime) moduli of
  quadratic cyclotomic extensions.
* ``verify --field S [--max-n N]`` — formula-vs-brute-force comparison over
  an explicit finite field; any disagreement is listed and fails the run.
* ``classify --field S`` — the prime-set partition and the embedding data
  into the field's quadratic-extension classes.

This module owns the report format: the formula layer's value types carry
no JSON methods, and :func:`_as_json` renders each as the object of its
fields, whose names are the report keys.  It is also the one place that
imports the brute-force oracle, and only ``analyze`` and ``verify`` import
it, when they run: ``classify`` and ``moduli`` never load it.
:func:`_realizer` picks once per field how a formal sum becomes a value (an
exact integer over the rationals, an element of the oracle's F_(q^2) within
its field bound, nothing above it).

:func:`main` reads the command line against ``_COMMANDS``, the one table of
commands and their options, and turns ``--field`` into a :class:`FieldProfile`.
Each command is a function ``(field, options) -> (results, mismatches)``,
whose ``mismatches`` is None when the oracle did not check the field;
:func:`main` prints the envelope ``{"command", "field", "results",
"oracle_checked", "mismatches"}`` of every report.  It holds the one mapping
from failures to exit codes: 0 success, 1 verification mismatches, 2 usage
errors (also a bad field spec or CYCLOKIT_MAX_Q found after parsing), 3 unmet
mathematical preconditions, 4 size bounds exceeded.
The environment variable CYCLOKIT_MAX_Q (default 1024) caps the field size
for which the brute-force oracle is consulted.  ``analyze`` and ``verify``
read it once, at their start, whatever the field: a value that is not a
positive integer is a usage error for them.  ``classify`` and ``moduli``
never consult the oracle and ignore it.

:func:`run`, the process entry (``python -m cyclokit.cli``, the ``cyclokit``
script), freezes the import-time heap so that no collection walks it, not
even the one at interpreter exit; :func:`main` leaves the collector alone.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections.abc import Callable
from functools import partial

from . import moduli as moduli_mod
from . import quadcyclo
from .errors import PreconditionError, SizeBoundError
from .field_profile import (
    FieldProfile,
    ell,
    n_F,
    order_of_zeta,
    parse_field,
    prime_basis,
    render_field,
)
from .numtheory import euler_phi, is_prime, mult_order
from .roots import MuSubset, RootOfUnity, RootSum, canonical, describe

DEFAULT_MAX_Q = 1024


class _UsageError(Exception):
    """A bad argument found after parsing; :func:`main` exits 2 with it."""


def _oracle_refusal(field: FieldProfile) -> str | None:
    """Why the brute-force oracle may not check this field (a finite field
    whose q exceeds CYCLOKIT_MAX_Q), or None.  It reads and validates
    CYCLOKIT_MAX_Q on every field, so a malformed value is a usage error."""
    raw = os.environ.get("CYCLOKIT_MAX_Q", "")
    try:
        max_q = int(raw) if raw.strip() else DEFAULT_MAX_Q
    except ValueError:
        max_q = 0
    if max_q < 1:
        raise _UsageError(f"CYCLOKIT_MAX_Q must be a positive integer, got {raw!r}")
    if not field.is_rational and field.q > max_q:
        return f"field {render_field(field)} exceeds CYCLOKIT_MAX_Q={max_q}"
    return None


def _realizer(field: FieldProfile) -> Callable[[RootSum], object] | None:
    """How a formal sum becomes a value over this field: an exact int over the
    rationals, an element of the oracle's F_(q^2) when q^2 is within its field
    bound, or nothing (None) above it."""
    from . import oracle
    if field.is_rational:
        return oracle.evaluate_sum_rational
    if field.q**2 > oracle.MAX_FIELD_SIZE:
        return None
    return partial(oracle.evaluate_sum, oracle.build_field(field.p, 2 * field.k))


def _divisors(field: FieldProfile) -> list[int]:
    """The divisors of q^2 - 1, ascending, from the field's prime basis."""
    divs = [1]
    for p, _, e in prime_basis(field)[0]:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _render_int_poly(trace: int, norm: int) -> str:
    """x^2 - trace*x + norm, with integer coefficients, as text."""
    parts = ["x^2"]
    if trace:
        mag = abs(trace)
        parts.append(f"{'+' if trace < 0 else '-'} {'x' if mag == 1 else f'{mag}*x'}")
    if norm:
        parts.append(f"{'-' if norm < 0 else '+'} {abs(norm)}")
    return " ".join(parts)


def _as_json(value):
    """A formula-layer value as JSON data: a set expression by its
    description, a root or formal sum by its text, any other value type as
    the object of its fields (their names are the report keys), a tuple as a
    list.  Set expressions and roots are value types too, so they go first."""
    if isinstance(value, MuSubset):
        return describe(value)
    if isinstance(value, (RootSum, RootOfUnity)):
        return str(value)
    if hasattr(value, "_fields"):
        return {name: _as_json(v) for name, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value


def _s_max_json(partition: moduli_mod.SMaxPartition) -> dict:
    return {"kind": "SMax", **_as_json(partition)}


def _value_json(value):
    """A realized value for a JSON report: an integer as a string, a field
    element by its coordinates."""
    return str(value) if isinstance(value, int) else list(value.coeffs)


def _mismatches(n: int, rows) -> list[dict]:
    """The records of n's failing cross-check rows, in order: see :func:`_rows`."""
    return [{"n": n, "check": check, **keys} for check, keys in rows
            if "detail" in keys or keys["formula"] != keys["oracle"]]


def _compare_min_poly(field: FieldProfile, poly: quadcyclo.QuadMinPoly,
                      values: tuple) -> tuple[tuple, list[tuple]]:
    """The oracle's (trace, norm) of the n-th root (reduced mod Phi_n over the
    rationals, by the q-power map over F_q) and the min-poly rows: over F_q the
    conjugation exponent against that map, then ``values`` against the oracle's."""
    from . import oracle
    n, rows = poly.n, []
    if field.is_rational:
        c0, c1, _ = oracle.rational_min_poly(n)
        truth = (-c1, c0)
    else:
        rows.append(("yogh_frobenius", {"formula": poly.yogh.value,
                                        "oracle": field.q % n}))
        truth = oracle.brute_min_poly(field.p, field.k, n)
    rows.append(("min_poly_concrete", {"formula": [*map(_value_json, values)],
                                       "oracle": [*map(_value_json, truth)]}))
    return truth, rows


def _rows(field: FieldProfile, realize: Callable[[RootSum], object], n: int):
    """Every cross-check row ``(check, keys)`` of n, a divisor of q^2 - 1 over
    a finite field, in order; its record is ``{"n", "check", **keys}``.  Rows
    with keys ``{"formula", "oracle", ...}`` fail when those two sides differ:
    ``order``, ``quadratic`` (``equaliser`` is ``m2_membership``'s verdict),
    ``order_two``, then for quadratic n the rows of :func:`_compare_min_poly`,
    all that ``analyze`` runs.  Rows ``{"detail"}`` always fail: ``equaliser``,
    second, when ``m2_membership``'s routes disagree, and ``precondition``,
    last, when a formula refuses n: n is prime to p, so every precondition holds."""
    from . import oracle
    try:
        z = canonical(n, 1)
        order = oracle.brute_order(field.p, field.k, n)
        yield "order", {"formula": order_of_zeta(field, n), "oracle": order}
        quadratic = quadcyclo.is_quadratic(field, n)
        try:
            membership = moduli_mod.m2_membership(field, z)
        except RuntimeError as exc:
            yield "equaliser", {"detail": str(exc)}
            membership = quadratic
        # zeta_n lies in F_(q^2), so its degree is 2 iff it is not in F_q.
        yield "quadratic", {"formula": quadratic, "oracle": order != 1,
                            "equaliser": membership}
        yield "order_two", {"formula": moduli_mod.g2_membership(field, z),
                            "oracle": order == 2}
        if quadratic:
            poly = quadcyclo.min_poly(field, n)
            values = (realize(poly.trace_coeff), realize(poly.norm_coeff))
            yield from _compare_min_poly(field, poly, values)[1]
    except PreconditionError as exc:
        yield "precondition", {"detail": str(exc)}


def _generator_json(
    field: FieldProfile, n: int, realize: Callable[[RootSum], object] | None,
    trace: object,
) -> dict:
    """The generator's formal sums, with their values when ``realize`` (see
    :func:`_realizer`) gives them; ``trace`` is the realized z + z^yogh, the
    Artin-Schreier denominator."""
    if field.characteristic == 2:
        gen = quadcyclo.artin_schreier_generator(field, n)
        doc = {"type": "artin-schreier", **_as_json(gen)}
        if realize is not None:
            if trace.is_zero:
                raise PreconditionError("zero trace: no Artin-Schreier generator")
            y = realize(RootSum.of(gen.numerator)) / trace
            doc["element_encoding"] = y.to_int()
            # y^2 + y = norm / trace^2 in characteristic 2
            doc["constant_encoding"] = (y * y + y).to_int()
        return doc
    gen = quadcyclo.radical_generator(field, n)
    doc = {"type": "radical", **_as_json(gen)}
    if realize is not None:
        doc["square_value"] = _value_json(realize(gen.square))
    return doc


def analyze(field: FieldProfile, n: int) -> tuple[dict, list | None]:
    """Classification data of the n-th root of unity over the field."""
    refusal = _oracle_refusal(field)
    degree = quadcyclo.bounded_degree(field, n)  # n is factored only above 2
    if degree > 2:
        degree = euler_phi(n) if field.is_rational else mult_order(field.q, n)
    results: dict = {
        "n": n,
        "degree": degree,
        "quadratic": degree == 2,
        "in_field": degree == 1,
        "n_F": n_F(field, n),
        "order_of_zeta": order_of_zeta(field, n),
    }
    mismatches = None
    if degree == 2:
        poly = quadcyclo.min_poly(field, n)
        results["t_nF"] = quadcyclo.t_nF(field, n)
        doc = results["min_poly"] = {
            "n": n,
            "case": poly.case_tag,
            "yogh": poly.yogh.value,
            "trace_symbolic": str(poly.trace_coeff),
            "norm_symbolic": str(poly.norm_coeff),
        }
        realize = _realizer(field)
        values = (None, None)
        if realize is not None:
            values = (realize(poly.trace_coeff), realize(poly.norm_coeff))
            if refusal is None:
                truth, rows = _compare_min_poly(field, poly, values)
                mismatches = _mismatches(n, rows)
            if not field.is_rational:
                doc["trace_concrete"], doc["norm_concrete"] = map(_value_json, values)
        results["min_poly_rendered"] = poly.render()
        if poly.shape is not None:
            results["trace_shape"] = poly.shape.render()
        results["generator"] = _generator_json(field, n, realize, values[0])
        results["kappa"] = _as_json(quadcyclo.kappa_class(field, canonical(n, 1)))
        if field.is_rational:
            results["integer_min_poly"] = _render_int_poly(*truth)
    return results, mismatches


def moduli_command(field: FieldProfile, prime: int | None) -> tuple[dict, None]:
    """Moduli of quadratic cyclotomic extensions (global or per-prime)."""
    if prime is not None and not is_prime(prime):
        raise _UsageError(f"--prime must be prime, got {prime}")
    if prime is not None:
        results = {
            "per_prime": _as_json(moduli_mod.m2p(field, prime)),
            "nu": quadcyclo.nu(field, prime),
            "nu_plus": quadcyclo.nu_plus(field, prime),
            "ell": ell(field, prime),
        }
        if prime == 2:
            results["c2"] = quadcyclo.has_property_C2(field)
    else:
        results = {
            "full_moduli": _as_json(moduli_mod.full_moduli(field)),
            "s_max": _s_max_json(moduli_mod.s_max(field)),
            "order_two": _as_json(moduli_mod.g2(field)),
        }
    return results, None


def verify(field: FieldProfile, max_n: int | None) -> tuple[dict, list]:
    """Compare every formula against the brute-force oracle."""
    from . import oracle
    if field.is_rational:
        raise PreconditionError("verify requires a finite field")
    refusal = _oracle_refusal(field)
    if refusal is not None:
        raise SizeBoundError(refusal)
    realize = _realizer(field)
    if realize is None:
        raise SizeBoundError(
            f"quadratic extension size {field.q}^2 exceeds {oracle.MAX_FIELD_SIZE}")
    bound = field.q**2 - 1 if max_n is None else max_n
    divisors = [n for n in _divisors(field) if n <= bound]
    mismatches = [record for n in divisors
                  for record in _mismatches(n, _rows(field, realize, n))]
    return {"max_n": bound, "orders_checked": len(divisors)}, mismatches


def classify(field: FieldProfile) -> tuple[dict, None]:
    """Prime-set partition and quadratic-extension embedding data."""
    partition = moduli_mod.s_max(field)
    primes = sorted({p for cls in partition.classes for p in cls.primes})
    results: dict = {
        "kind": "rational" if field.is_rational else "finite",
        "characteristic": field.characteristic,
        "s_max": _s_max_json(partition),
        "order_two": _as_json(moduli_mod.g2(field)),
        "quad_moduli_summary": moduli_mod.quad_moduli_summary(field),
        "nu": {str(p): quadcyclo.nu(field, p) for p in primes},
    }
    if not field.is_rational:
        results["q"] = field.q
    if field.characteristic != 2:
        results["c2"] = quadcyclo.has_property_C2(field)
    return results, None


#: Each command's function and options: flag -> (dest, least integer or None
#: for the field spec, required).  Usage, help and usage errors come from it.
_FIELD = {"--field": ("field", None, True)}
_COMMANDS = {
    "analyze": (analyze, {**_FIELD, "--n": ("n", 1, True)}),
    "moduli": (moduli_command, {**_FIELD, "--prime": ("prime", 2, False)}),
    "verify": (verify, {**_FIELD, "--max-n": ("max_n", 1, False)}),
    "classify": (classify, _FIELD),
}


def _exit(prog: str, command: str | None, error: str | None = None) -> None:
    """Print the usage line of ``prog`` or of its command, then ``error`` in
    argparse's wording and exit 2, or with no error the help and exit 0."""
    label, rows = prog, [f"{name:10}{run.__doc__}" for name, (run, _) in _COMMANDS.items()]
    if command is not None:
        label, rows = f"{prog} {command}", []
        for flag, (_, _, required) in _COMMANDS[command][1].items():
            option = f"{flag} {flag[2:].upper().replace('-', '_')}"
            rows.append(option if required else f"[{option}]")
    usage = f"usage: {label} [-h] " + (" ".join(rows) if command else "COMMAND ...")
    if error is not None:
        print(f"{usage}\n{label}: error: {error}", file=sys.stderr)
        sys.exit(2)
    print(usage, "", *(f"  {row}" for row in rows), sep="\n")
    sys.exit(0)


def _is_option(token: str) -> bool:
    """Whether argparse reads ``token`` as an option, not a value: it starts
    with '-' and is not '-' alone, a negative number or text with a space."""
    whole, _, frac = token[1:].rpartition(".")
    number = frac.isdecimal() and (whole.isdecimal() or not whole)
    return token[:1] == "-" and token != "-" and " " not in token and not number


def _parse(args: list[str], prog: str) -> tuple[str, dict]:
    """The command that ``args`` names and its keyword options; ``-h`` or
    ``--help`` prints the help of the command before it, or of ``prog``.
    Errors come in argparse's order: a bad value, in token order, then a
    missing command or required option, then unknown tokens (top level)."""
    command, options, values, extras, tokens = None, {}, {}, [], iter(args)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _exit(prog, command)
        elif token == "--":  # the rest are values, and no command takes one
            extras += [token, *tokens]
        elif command is None and not _is_option(token):
            if token not in _COMMANDS:
                _exit(prog, None, f"argument COMMAND: invalid choice: {token!r} (choose from "
                                  f"{', '.join(map(repr, _COMMANDS))})")
            command, (_, options) = token, _COMMANDS[token]
            values = dict.fromkeys(dest for dest, _, _ in options.values())
        elif flag not in options:
            extras.append(token)
        else:
            dest, least, _ = options[flag]
            if not eq and _is_option(value := next(tokens, "--")):  # none left reads as an option
                _exit(prog, command, f"argument {flag}: expected one argument")
            try:
                if least is not None and (value := int(text := value)) < least:
                    raise ValueError
            except ValueError:
                _exit(prog, command, f"argument {flag}: {text!r} is not an integer >= {least}")
            values[dest] = value
    if command is None:
        _exit(prog, None, "the following arguments are required: COMMAND")
    missing = [flag for flag, (dest, _, required) in options.items()
               if required and values[dest] is None]
    if missing:
        _exit(prog, command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _exit(prog, None, f"unrecognized arguments: {' '.join(extras)}")
    return command, values


def main(args: list[str] | None = None, prog_name: str = "cyclokit") -> None:
    """Parses ``args`` (default: ``sys.argv[1:]``), runs one command and
    prints its JSON report; returns on success, and every failure raises
    SystemExit with its code.  Never freezes the heap: see :func:`run`."""
    command, options = _parse(sys.argv[1:] if args is None else args, prog_name)
    try:
        try:
            field = parse_field(options.pop("field"))
        except SizeBoundError:
            raise
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        results, mismatches = _COMMANDS[command][0](field, **options)
    except _UsageError as exc:
        _exit(prog_name, command, str(exc))
    except (SizeBoundError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4 if isinstance(exc, SizeBoundError) else 3)
    print(json.dumps({"command": command, "field": render_field(field), "results": results,
                      "oracle_checked": mismatches is not None,
                      "mismatches": mismatches or []}, indent=2))
    if mismatches:
        sys.exit(1)


def run() -> None:
    """The process entry: :func:`gc.freeze`, then :func:`main`."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
