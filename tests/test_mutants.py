"""Hand-written bugs in the formula layer that ``verify`` must catch.

Each row is one mutant: the function it replaces, in every namespace that
calls it, the mutation, and the command and field on which the CLI must exit
1 with mismatch records.  Every mutant is applied in-process with
``monkeypatch``, and every row runs on F_7, where all nine mutants change a
value that a user sees.  A second test shows that each mutant changes what a user sees (a
report, or for ``chi_rad``, which no report prints, the library value), so a
surviving mutant is a wrong value that no cross-check reaches, not a mutation
that changes nothing.  Survivors are marked ``xfail(strict=True)`` with the
check they lack: the change that adds the check must drop the mark.
"""

import contextlib
import io
import json
from typing import Callable, NamedTuple

import pytest

from cyclokit import ExtendedNat, FiniteSquareClass, SMaxPartition, Sign, finite_field
from cyclokit import moduli, quadcyclo
from cyclokit.cli import main


def run(*args):
    """``main(args)`` in-process: its exit code and stdout."""
    out, code = io.StringIO(), 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def two_part_halved(exponent):
    """The inverting 2-power exponent m - 1 turned into m/2 - 1."""
    def mutated(field, m, o2):
        k = exponent(field, m, o2)
        return m // 2 - 1 if o2 > 2 and k == m - 1 else k
    return mutated


class Mutant(NamedTuple):
    name: str
    targets: tuple  # (module, attribute) pairs: the function and its callers' bindings
    mutate: Callable  # the original function -> the mutant
    caught_by: tuple  # the CLI arguments that must exit 1 with mismatch records
    shows: Callable  # what a user sees of it, evaluated with and without the mutant
    survives: str | None = None  # the missing check, for a mutant the CLI misses


FIELD = "q:7"
VERIFY = ("verify", "--field", FIELD)

MUTANTS = [
    Mutant("c2_off_by_one", ((quadcyclo, "has_property_C2"),),
           lambda c2: lambda field: None if (e := c2(field)) is None else e + 1,
           VERIFY,
           lambda: run("classify", "--field", FIELD)),
    Mutant("cos_sum_minus_for_plus", ((quadcyclo, "cos_sum_in_field"),),
           lambda cos: lambda field, n, sign: cos(field, n, Sign.MINUS),
           VERIFY,
           lambda: run("analyze", "--field", FIELD, "--n", "8")),
    Mutant("two_part_exponent_halved", ((quadcyclo, "_two_part_exponent"),),
           two_part_halved,
           VERIFY,
           lambda: run("analyze", "--field", FIELD, "--n", "8")),
    Mutant("nu_one_too_high_at_3", ((quadcyclo, "nu"), (moduli, "nu")),
           lambda nu: lambda field, p: ExtendedNat(nu(field, p) + (p == 3)),
           VERIFY,
           lambda: run("moduli", "--field", FIELD, "--prime", "3"),
           "no row compares nu with the p-parts of the orders brute_order finds"),
    Mutant("g2_cardinality_doubled", ((moduli, "g2"),),
           lambda g2: lambda field: (d := g2(field))._replace(cardinality=2 * d.cardinality),
           VERIFY,
           lambda: run("classify", "--field", FIELD),
           "no row counts the order-2 roots of brute_order against g2"),
    Mutant("s_max_drops_a_prime", ((moduli, "s_max"),),
           lambda s_max: lambda field: SMaxPartition(tuple(
               c._replace(primes=c.primes[:-1]) for c in s_max(field).classes)),
           VERIFY,
           lambda: run("classify", "--field", FIELD),
           "no row checks s_max's primes against the primes of the brute orders"),
    Mutant("t_nF_doubled", ((quadcyclo, "t_nF"),),
           lambda t: lambda field, n: 2 * t(field, n),
           VERIFY,
           lambda: run("analyze", "--field", FIELD, "--n", "8"),
           "t_nF reaches only analyze's report, and no row recomputes it"),
    Mutant("chi_rad_always_a_residue", ((moduli, "chi_rad"),),
           lambda chi: lambda field, n: FiniteSquareClass(True),
           VERIFY,
           lambda: moduli.chi_rad(finite_field(7), 8),
           "no report prints chi_rad, and no row applies Euler's criterion to the square"),
    Mutant("radical_square_negated",
           ((quadcyclo, "radical_generator"), (moduli, "radical_generator")),
           lambda gen: lambda field, n: (g := gen(field, n))._replace(square=-g.square),
           VERIFY,
           lambda: run("analyze", "--field", FIELD, "--n", "8"),
           "verify builds no generator, and no row squares z - z^yogh in F_(q^2)"),
]


def apply(monkeypatch, mutant):
    for module, name in mutant.targets:
        monkeypatch.setattr(module, name, mutant.mutate(getattr(module, name)))


@pytest.mark.parametrize("mutant", [
    pytest.param(m, id=m.name, marks=[pytest.mark.xfail(reason=m.survives, strict=True)]
                 if m.survives else []) for m in MUTANTS])
def test_the_cli_catches_the_mutant(monkeypatch, cold_formula_caches, mutant):
    apply(monkeypatch, mutant)
    code, out = run(*mutant.caught_by)
    assert code == 1
    assert json.loads(out)["mismatches"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_changes_what_a_user_sees(monkeypatch, cold_formula_caches, mutant):
    clean = mutant.shows()
    apply(monkeypatch, mutant)
    cold_formula_caches()
    assert mutant.shows() != clean
