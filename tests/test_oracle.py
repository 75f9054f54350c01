"""Tests for the brute-force verification layer: explicit finite fields,
cyclotomic polynomials, and exhaustive order/minimal-polynomial/moduli
computations.

The oracle is deliberately independent of the formula layer, so these tests
only rely on first principles: field axioms, the divisor product formula for
cyclotomic polynomials, and direct expansion.
"""

import ast
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cyclokit
import cyclokit.oracle as oracle_mod

from cyclokit import PreconditionError, SizeBoundError, euler_phi, factorize
from cyclokit import RATIONAL, RootSum, canonical, multiply, power, radical_generator
from cyclokit.oracle import (
    MAX_FIELD_SIZE,
    _frobenius,
    _prime_factors,
    brute_min_poly,
    brute_moduli,
    brute_order,
    build_field,
    cyclotomic_poly,
    embed_root,
    evaluate_sum,
    evaluate_sum_rational,
    find_root_of_unity,
    rational_min_poly,
)

from conftest import divisors, field_elements, prime_powers


# ---------------------------------------------------------------------------
# explicit fields
# ---------------------------------------------------------------------------


def test_build_field_is_deterministic():
    first = build_field(5, 2).modulus
    build_field.cache_clear()
    assert build_field(5, 2).modulus == first
    assert build_field(23, 2).p == 23


def test_build_field_rejects_bad_inputs():
    with pytest.raises(SizeBoundError):
        build_field(2, 21)  # 2^21 > 2^20
    with pytest.raises(ValueError):
        build_field(6, 1)
    assert 2**20 == MAX_FIELD_SIZE


def test_oracle_binds_no_numtheory_function():
    # The oracle checks the formula layer, so its integer helpers are its own.
    bound = [
        name
        for name, obj in vars(oracle_mod).items()
        if callable(obj) and getattr(obj, "__module__", None) == "cyclokit.numtheory"
    ]
    assert bound == []


def test_prime_factors_by_first_principles():
    for m in range(1, 1000):
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        assert _prime_factors(m) == [d for d in divisors if all(d % e for e in range(2, d))]


def test_large_inputs_are_refused_at_once():
    # The unit count stops at a third unit, and build_field checks the size
    # before its trial division: neither runs long on a big input.
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        rational_min_poly(10**18)
    with pytest.raises(SizeBoundError):
        build_field(2**61 - 1, 1)
    assert time.perf_counter() - start < 1.0


def test_field_axioms_sampled():
    rng = random.Random(20260814)
    for p, k in ((2, 4), (5, 2), (23, 2), (3, 3)):
        E = build_field(p, k)
        elems = field_elements(E)
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + E.zero == a
            assert a * E.one == a
        for a in elems:
            if not a.is_zero:
                assert a * a ** -1 == E.one


@pytest.mark.parametrize(
    "p, k, modulus, generator",
    [
        (23, 2, (1, 0, 1), 25),
        (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
        (3, 6, (2, 1, 0, 0, 0, 0, 1), 3),
        (1021, 2, (2, 0, 1), 1035),
    ],
)
def test_frozen_moduli_and_generator_encodings(p, k, modulus, generator):
    E = build_field(p, k)
    assert E.modulus == modulus
    assert E.generator.to_int() == generator


def test_multiplicative_group_order():
    for p, k in ((2, 4), (5, 2), (7, 2)):
        E = build_field(p, k)
        q = p**k
        for a in field_elements(E):
            if not a.is_zero:
                assert a ** (q - 1) == E.one


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


def test_cyclotomic_poly_frozen_values():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    # 105 = 3 * 5 * 7, the least order with a coefficient outside {-1, 0, 1}:
    # -2 at x^7 and x^41 (OEIS A013594).  385 = 5 * 7 * 11, the least with -3.
    phi_105 = cyclotomic_poly(105)
    assert [i for i, c in enumerate(phi_105) if c == -2] == [7, 41]
    assert {c for i, c in enumerate(phi_105) if i not in (7, 41)} == {-1, 0, 1}
    assert min(cyclotomic_poly(385)) == -3


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_degree_and_divisor_product():
    for n in range(1, 201):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
        prod = [1]
        for d in divisors(n):
            prod = _poly_mul(prod, cyclotomic_poly(d))
        want = [0] * (n + 1)
        want[0], want[n] = -1, 1
        assert prod == want


# ---------------------------------------------------------------------------
# roots of unity in explicit fields
# ---------------------------------------------------------------------------


def test_find_root_of_unity_has_exact_order():
    E = build_field(5, 2)
    for n in divisors(24):
        z = find_root_of_unity(E, n)
        assert z**n == E.one
        assert all(z**d != E.one for d in range(1, n))


def test_find_root_of_unity_requires_divisibility():
    E = build_field(5, 2)
    with pytest.raises(PreconditionError):
        find_root_of_unity(E, 7)


def test_embed_root_is_a_homomorphism():
    E = build_field(23, 2)
    for n in (16, 48, 528):
        for j in (1, 5, 7):
            z = canonical(n, j)
            assert embed_root(E, z) == embed_root(E, canonical(n, 1)) ** j
            assert embed_root(E, power(z, 3)) == embed_root(E, z) ** 3


def test_evaluate_sum_is_linear():
    E = build_field(23, 2)
    s = RootSum.of(canonical(16, 1)) - RootSum.from_terms([(2, canonical(16, 3))])
    got = evaluate_sum(E, s)
    want = embed_root(E, canonical(16, 1)) - embed_root(E, canonical(16, 3)) * 2
    assert got == want
    assert evaluate_sum(E, RootSum()).is_zero


# ---------------------------------------------------------------------------
# brute-force order / minimal polynomial / moduli
# ---------------------------------------------------------------------------


def test_brute_order_frozen_values():
    assert brute_order(5, 1, 8) == 2
    assert brute_order(23, 1, 16) == 8
    assert brute_order(5, 1, 4) == 1


def test_brute_min_poly_frozen_values():
    E23 = build_field(23, 2)
    trace, norm = brute_min_poly(23, 1, 16)
    z = canonical(16, 1)
    assert trace == evaluate_sum(E23, RootSum.of(z) - RootSum.of(power(z, -1)))
    assert norm == -E23.one
    trace8, norm8 = brute_min_poly(23, 1, 8)
    w = canonical(8, 1)
    assert trace8 == evaluate_sum(E23, RootSum.of(w) + RootSum.of(power(w, -1)))
    assert norm8 == E23.one
    E5 = build_field(5, 2)
    t5, n5 = brute_min_poly(5, 1, 8)
    assert t5.is_zero
    assert n5 == embed_root(E5, canonical(8, 1)) ** 6


def test_brute_min_poly_annihilates_the_root():
    for p, k, n in ((23, 1, 16), (5, 1, 8), (5, 1, 24), (3, 1, 8), (2, 2, 5)):
        E = build_field(p, 2 * k)
        trace, norm = brute_min_poly(p, k, n)
        zeta = find_root_of_unity(E, n)
        assert zeta * zeta - trace * zeta + norm == E.zero
        q = p**k
        assert trace**q == trace and norm**q == norm


def test_brute_min_poly_rejects_wrong_degree():
    with pytest.raises(PreconditionError):
        brute_min_poly(5, 1, 4)  # degree 1
    with pytest.raises(PreconditionError):
        brute_min_poly(5, 1, 7)  # no such root in F_25


def test_rational_min_poly_frozen_values():
    assert rational_min_poly(3) == (1, 1, 1)
    assert rational_min_poly(4) == (1, 0, 1)
    assert rational_min_poly(6) == (1, -1, 1)
    with pytest.raises(PreconditionError):
        rational_min_poly(5)


def _mobius(n: int) -> int:
    exponents = [e for _, e in factorize(n)]
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _trace_to_q(z, L: int) -> int:
    """The trace from Q(zeta_L) to Q of the root z, whose order m divides L:
    phi(L)/phi(m) copies of the sum of the primitive m-th roots, mu(m)."""
    return euler_phi(L) // euler_phi(z.denominator) * _mobius(z.denominator)


def _rational_value(s: RootSum) -> Fraction | None:
    """The value of s as a Fraction if it is rational, else None, by traces
    alone.  With t = Tr(s)/phi(L), Tr((s - t) * conj(s - t)) is the sum of
    |sigma(s - t)|^2 over the embeddings sigma, so it is zero exactly when
    s = t; it equals Tr(s * conj(s)) - phi(L) * t^2."""
    L, terms = s.lcm_order(), s.terms()
    t = Fraction(sum(c * _trace_to_q(z, L) for c, z in terms), euler_phi(L))
    modulus_trace = sum(c * d * _trace_to_q(multiply(z, power(w, -1)), L)
                        for c, z in terms for d, w in terms)
    return t if modulus_trace == euler_phi(L) * t * t else None


def test_integer_cyclotomic_ring_is_exact():
    # A sum is reduced mod Phi_L with int coefficients; every value called
    # rational must be an int equal to the Fraction reference, and every
    # other sum refused.
    Q = RATIONAL
    roots = [canonical(n, j) for n in range(1, 13) for j in range(n) if gcd(j, n) == 1]
    sums = {radical_generator(Q, n).square for n in (3, 4, 6)} | {
        RootSum.from_terms([(a, x), (b, y)])
        for x, y in combinations(roots, 2)
        for a, b in product(range(-2, 3), repeat=2)
    }
    rational_count = 0
    for s in sums:
        want = _rational_value(s)
        if want is None:
            with pytest.raises(PreconditionError):
                evaluate_sum_rational(s)
        else:
            got = evaluate_sum_rational(s)
            assert type(got) is int and got == want, s
            rational_count += 1
    assert 0 < rational_count < len(sums)


def test_ramanujan_sums_are_the_mobius_function():
    # The primitive n-th roots sum to mu(n): each sum is reduced mod Phi_L
    # for orders L far above those of the test before.
    for n in range(1, 401):
        roots = [canonical(n, j) for j in range(n) if gcd(j, n) == 1]
        assert evaluate_sum_rational(RootSum.of(*roots)) == _mobius(n), n


def test_brute_moduli_frozen_counts():
    assert len(brute_moduli(5, 1)) == 20
    assert len(brute_moduli(3, 1)) == 6
    assert len(brute_moduli(2, 1)) == 2


def test_brute_moduli_entries_are_quadratic():
    for p, k in ((5, 1), (3, 1), (2, 2)):
        q = p**k
        got = brute_moduli(p, k)
        want = {
            (n, j)
            for n in divisors(q * q - 1)
            if (q - 1) % n != 0
            for j in range(1, n)
            if gcd(j, n) == 1
        }
        assert got == want


# ---------------------------------------------------------------------------
# the q-power map as a matrix, against literal powers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, k", [(2, 4), (2, 6), (3, 3), (3, 4), (5, 2), (7, 2), (23, 2)])
def test_frobenius_matrix_equals_literal_power(p, k):
    E = build_field(p, k)
    for j in range(1, k + 1):
        q = p**j
        for w in field_elements(E):
            assert _frobenius(w, q) == w**q


def _literal_order(p, k, n):
    E = build_field(p, 2 * k)
    zeta = find_root_of_unity(E, n)
    q = p**k
    return next(t for t in range(1, n + 1) if (zeta**t) ** q == zeta**t)


def _literal_min_poly(p, k, n):
    E = build_field(p, 2 * k)
    zeta = find_root_of_unity(E, n)
    q = p**k
    return zeta + zeta**q, zeta ** (q + 1)


def _literal_moduli(p, k):
    q = p**k
    E = build_field(p, 2 * k)
    big = E.q - 1
    out = set()
    for i in range(1, big):
        w = E.generator**i
        if w**q != w:
            out.add((big // gcd(i, big), i // gcd(i, big)))
    return out


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)])
def test_brute_scans_agree_with_literal_powers(p, k):
    q = p**k
    for n in divisors(q * q - 1):
        order = brute_order(p, k, n)
        assert order == _literal_order(p, k, n)
        if order != 1:
            assert brute_min_poly(p, k, n) == _literal_min_poly(p, k, n)
    assert brute_moduli(p, k) == _literal_moduli(p, k)


def _verify_product_count(field_spec):
    """Run `verify --field field_spec` in a fresh process (no warm caches),
    counting calls of the oracle's one packed-product primitive,
    ExplicitField._mul, which every FFElement product, power and scan step
    goes through.  Requires a passing run and returns the count."""
    counter = (
        "import sys\n"
        "from cyclokit.oracle import ExplicitField\n"
        "calls = [0]\n"
        "product = ExplicitField._mul\n"
        "def counted(field, a, b):\n"
        "    calls[0] += 1\n"
        "    return product(field, a, b)\n"
        "ExplicitField._mul = counted\n"
        "from cyclokit.cli import main\n"
        f"main(['verify', '--field', {field_spec!r}])\n"
        "print(calls[0], file=sys.stderr)\n"
    )
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", counter],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert '"mismatches": []' in proc.stdout
    return int(proc.stderr.split()[-1])


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (13, 1), (3, 2), (2, 3), (2, 4), (7, 2)])
def test_brute_order_matches_a_literal_power_scan(p, k):
    # The least t with zeta_n^t fixed by the literal q-th power map, found
    # by stepping through the powers, for every n dividing q^2 - 1.
    E2, q = build_field(p, 2 * k), p**k
    for n in divisors(q * q - 1):
        zeta = find_root_of_unity(E2, n)
        w, t = zeta, 1
        while w**q != w:
            w, t = w * zeta, t + 1
        assert brute_order(p, k, n) == t, n


def test_verify_multiplication_count_stays_bounded():
    """A deterministic cost guard: the packed products made by one
    `verify --field q:3^5` (2,106, building the field included), within
    10 %.  An order scan by literal powers (zeta**t)**q makes about 34,200,
    and one that steps through every power instead of stripping primes 3,405."""
    assert _verify_product_count("q:3^5") <= 2106 * 11 // 10


# The product counts of `verify` on each large-degree field, measured once
# the order scan stripped primes instead of stepping through every power.
_LARGE_DEGREE_PRODUCTS = {"q:2^10": 2270, "q:7^3": 2491, "q:17^2": 11557}


@pytest.mark.parametrize("field_spec, first_measured", [("q:2^10", 12342), ("q:7^3", 6157),
                                                        ("q:17^2", 15073)])
def test_large_degree_verify_product_counts(field_spec, first_measured):
    # Fields of large degree that the benchmark's verify workload leaves
    # out: each check passes, and the product count stays within 10 % of
    # the current measurement, well under the count (the parameter) measured
    # when this guard was first set.
    count = _verify_product_count(field_spec)
    assert count <= _LARGE_DEGREE_PRODUCTS[field_spec] * 11 // 10
    assert count < first_measured


def test_oracle_memos_stay_bounded_over_many_fields():
    """`verify` on every prime power q <= 128 and on q = 881 (216 divisors of
    q^2 - 1, the most of any q the oracle can check), in one process: each
    oracle memo has its bound and holds no more, and a second run of a field
    misses nothing, so no `verify` evicts its own entries.  Unbounded, the
    memos kept every field of a sweep (all 198 q <= 1024: 12,946 roots)."""
    from cyclokit.cli import main

    memos = {build_field: oracle_mod._FIELDS_KEPT,
             find_root_of_unity: oracle_mod._ORDERS_KEPT,
             oracle_mod._frobenius_matrix: oracle_mod._FIELDS_KEPT}
    fields = [f"q:{p}^{k}" for p, k, _ in prime_powers(128)] + ["q:881"]
    for field in fields:
        main(["verify", "--field", field])  # exits 1 on any mismatch
        misses = [memo.cache_info().misses for memo in memos]
        main(["verify", "--field", field])
        assert [memo.cache_info().misses for memo in memos] == misses, field
        for memo, bound in memos.items():
            info = memo.cache_info()
            assert info.maxsize == bound and info.currsize <= bound, (field, memo)
    assert build_field.cache_info().currsize == oracle_mod._FIELDS_KEPT < len(fields)


# ---------------------------------------------------------------------------
# packed arithmetic against a schoolbook reference
# ---------------------------------------------------------------------------


def _schoolbook_mul(a, b, modulus, p):
    """The product of coefficient tuples modulo a monic polynomial over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i] % p
        for j, m in enumerate(modulus):
            prod[i - k + j] -= c * m
    return tuple(c % p for c in prod[:k])


def _schoolbook_pow(a, e, modulus, p):
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _schoolbook_mul(result, a, modulus, p)
        a = _schoolbook_mul(a, a, modulus, p)
        e >>= 1
    return result


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(2, 20), (2, 10), (3, 12), (3, 5), (7, 3), (17, 2), (1021, 2), (1021, 1)]),
    st.data(),
)
def test_packed_arithmetic_matches_schoolbook_reference(pk, data):
    p, k = pk
    E = build_field(p, k)
    vectors = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).map(tuple)
    a, b = data.draw(vectors), data.draw(vectors)
    x, y = (E.from_encoding(sum(c * p**i for i, c in enumerate(v))) for v in (a, b))
    assert (x.coeffs, y.coeffs) == (a, b)
    assert (x + y).coeffs == tuple((u + v) % p for u, v in zip(a, b))
    assert (x - y).coeffs == tuple((u - v) % p for u, v in zip(a, b))
    assert (x * y).coeffs == _schoolbook_mul(a, b, E.modulus, p)
    e = data.draw(st.integers(0, E.q))
    assert (x**e).coeffs == _schoolbook_pow(a, e, E.modulus, p)
    j = data.draw(st.integers(1, k))
    assert _frobenius(x, p**j).coeffs == _schoolbook_pow(a, p**j, E.modulus, p)
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x ** -1
    else:
        assert _schoolbook_mul(a, (x ** -1).coeffs, E.modulus, p) == E.one.coeffs


def test_oversized_fields_are_refused_before_computing_them():
    # The size is checked by bit length first: 3**(10**9) is never computed.
    code = (
        "from cyclokit import SizeBoundError\n"
        "from cyclokit.oracle import brute_moduli, build_field\n"
        "for call in (build_field, brute_moduli):\n"
        "    try:\n"
        "        call(3, 10**9)\n"
        "    except SizeBoundError:\n"
        "        print('refused')\n"
    )
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.stdout.split() == ["refused", "refused"], proc.stderr


def test_the_oracle_imports_only_the_errors_and_the_root_types():
    # The oracle checks the formula layer, so it shares none of its code: of
    # the package it may import the error types, RootOfUnity and RootSum.
    allowed = {"errors": None, "roots": {"RootOfUnity", "RootSum"}}
    imported, foreign = set(), []
    for node in ast.walk(ast.parse(Path(oracle_mod.__file__).read_text())):
        if isinstance(node, ast.Import):
            foreign += [a.name for a in node.names if a.name.split(".")[0] == "cyclokit"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                package, _, module = node.module.partition(".")
                if package != "cyclokit":
                    continue  # the standard library
            else:
                module = node.module if node.level == 1 else None
            names = {a.name for a in node.names}
            if module not in allowed or not names <= (allowed[module] or names):
                foreign.append(f"{module}: {sorted(names)}")
            imported.add(module)
    assert foreign == []
    assert imported == set(allowed)


def test_import_cyclokit_leaves_the_oracle_unloaded():
    # The formula layer is symbolic: importing the package, in a fresh
    # process, must not load the oracle that checks it, nor fractions.
    code = (
        "import sys, cyclokit\n"
        "print([m for m in ('cyclokit.oracle', 'fractions') if m in sys.modules])"
    )
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
