"""Independent checks of every benchmark operation's output.

Each check recomputes what it needs with plain integers (``workloads``
arithmetic) and returns ``None`` for a correct output or a short reason
for a failed one.  Nothing here uses the package under test.
"""

from __future__ import annotations

import json
from math import gcd

from workloads import (
    divisors,
    factor,
    factor_with,
    is_quadratic,
    order_by_multiplication,
    prime_power,
    square_minus_one_factors,
    valuation,
)


def parse_field(spec: str) -> int | None:
    """q for 'q:<p>' or 'q:<p>^<k>', None for 'Q'."""
    if spec == "Q":
        return None
    base, _, exp = spec[2:].partition("^")
    return int(base) ** (int(exp) if exp else 1)


def _totient(n: int) -> int:
    out = n
    for r in factor(n):
        out = out // r * (r - 1)
    return out


def _rational_nu(r: int) -> int:
    """The largest k with phi(r^k) <= 2."""
    k = 0
    while (r - 1) * r**k <= 2:
        k += 1
    return k


def _moduli_reason(results: dict, q: int | None) -> str | None:
    quad_count = 6 if q is None else q * q - q
    s_max = results["s_max"]["classes"]
    if sum(c["cardinality"] for c in s_max) != quad_count:
        return "s_max cardinalities do not sum to the quadratic-root count"
    if q is not None and len(s_max) != 1:
        return "a finite field has one quadratic extension, s_max has several classes"
    order_two = 2 if q is None else (q - 1 if q % 2 else 0)
    if results["order_two"]["cardinality"] != order_two:
        return "order_two cardinality"
    return None


def _nu_reason(nu: dict, q: int | None) -> str | None:
    for r, value in nu.items():
        r = int(r)
        expected = _rational_nu(r) if q is None else valuation(q * q - 1, r)
        if value != expected:
            return f"nu({r}) = {value}, expected {expected}"
    return None


def check_analyze(results: dict, q: int | None, n: int) -> str | None:
    if q is None:
        degree = _totient(n)
        n_f = 2 if n % 2 == 0 else 1
        quadratic = degree == 2
    else:
        degree = order_by_multiplication(q, n)
        n_f = gcd(n, q - 1)
        quadratic = is_quadratic(q, n)
        if quadratic != (degree == 2):
            return "benchmark arithmetic disagrees with itself"
    expected = {"degree": degree, "quadratic": quadratic, "in_field": degree == 1,
                "n_F": n_f, "order_of_zeta": n // n_f}
    for key, value in expected.items():
        if results.get(key) != value:
            return f"{key} = {results.get(key)!r}, expected {value!r}"
    if quadratic and q is not None:
        if results["min_poly"]["yogh"] % n != q % n:
            return "yogh is not q mod n"
    return None


def check_verify(results: dict, q: int) -> str | None:
    if results["max_n"] != q * q - 1:
        return "max_n is not q^2 - 1"
    checked = len(divisors(square_minus_one_factors(q)))
    if results["orders_checked"] != checked:
        return f"orders_checked = {results['orders_checked']}, expected {checked}"
    return None


def check_report(argv: list[str], report: dict) -> str | None:
    """Check a parsed JSON report of the CLI command argv."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    q = parse_field(opts["--field"])
    if report.get("command") != command:
        return "wrong command in report"
    if report.get("mismatches"):
        return "oracle mismatches reported"
    results = report["results"]
    if command == "analyze":
        return check_analyze(results, q, int(opts["--n"]))
    if command == "verify":
        if not report.get("oracle_checked"):
            return "verify did not consult the oracle"
        return check_verify(results, q)
    if command == "moduli":
        if results["full_moduli"]["cardinality"] != (6 if q is None else q * q - q):
            return "full_moduli cardinality is not q^2 - q"
        return _moduli_reason(results, q)
    if command == "classify":
        if q is not None and (results.get("q") != q
                              or results["characteristic"] != prime_power(q)[0]):
            return "wrong field size or characteristic"
        return _moduli_reason(results, q) or _nu_reason(results["nu"], q)
    return f"unknown command {command}"


def check_cli(argv: list[str], rc: int | None, stdout: str, stderr: str,
              timed_out: bool, refusal_ok: bool = False) -> str | None:
    """Check one CLI process: its exit, its stderr, and its report.

    With refusal_ok, a clean exit 4 (size bound) also counts as correct;
    that is the documented outcome for out-of-range inputs.
    """
    if timed_out:
        return "timed out"
    if "Traceback" in stderr:
        return f"traceback on stderr (exit {rc})"
    if refusal_ok and rc == 4:
        return None
    if rc != 0:
        return f"exit {rc}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return check_report(argv, report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def check_lib_field(result: dict, q: int) -> str | None:
    if result["full_moduli_cardinality"] != q * q - q:
        return "full_moduli cardinality is not q^2 - q"
    if result["s_max_classes"] != 1 or result["s_max_cardinality"] != q * q - q:
        return "s_max is not one class of q^2 - q roots"
    if result["g2_cardinality"] != (q - 1 if q % 2 else 0):
        return "g2 cardinality"
    return _nu_reason(result["nu"], q)


def check_lib_order(result: dict, q: int, n: int) -> str | None:
    if result["yogh"] % n != q % n:
        return "yogh is not q mod n"
    orbit = set()
    x = 1
    while x not in orbit:  # the orbit of Frobenius on exponents mod n
        orbit.add(x)
        x = x * q % n
    if len(orbit) != 2 or set(result["galois_image"]) != orbit:
        return "galois_image is not the degree-2 Frobenius orbit"
    if not result["kappa_in_field"]:
        return "kappa classification datum not in the field"
    order = n // gcd(n, q - 1)
    primes = sorted(factor_with(order, square_minus_one_factors(q)))
    if sorted(result["s_n"]) != primes:
        return "s_n is not the prime set of n / gcd(n, q - 1)"
    if result["field_equal"] is not True:
        return "two quadratic extensions of a finite field differ"
    return None
