"""Shared helpers for the test suite.

The recurring pattern throughout these tests is a sweep over small prime
powers q = p^k: the fields F_q are the concrete backends on which every
formula-layer result can be checked against the brute-force oracle.  The
concrete references for the square-class and Artin-Schreier embeddings are
realized here, in the oracle's F_(q^2), next to the references that only
tests use: the elements of a root-of-unity set, exponent classes as fractions,
signed squarefree kernels and the characteristic-2 orbit relation.
"""

from fractions import Fraction

import pytest

from cyclokit import (
    artin_schreier_generator,
    canonical,
    factorize,
    field_profile,
    identity,
    is_prime,
    moduli,
    multiply,
    numtheory,
    quadcyclo,
    radical_generator,
    roots,
)
from cyclokit.oracle import build_field, embed_root, evaluate_sum


@pytest.fixture
def rho_calls(monkeypatch):
    """The inputs of every Brent rho call, recorded from cold memos.

    The memos above factorization (the per-field prime basis and the
    quadratic root data) are cleared first, so a split that an earlier test
    already paid for is paid again here.
    """
    field_profile.prime_basis.cache_clear()
    quadcyclo.min_poly.cache_clear()
    calls = []
    rho = numtheory._brent_rho

    def counting_rho(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(numtheory, "_brent_rho", counting_rho)
    return calls


@pytest.fixture
def factorize_calls(monkeypatch):
    """The inputs of every factorization, recorded where ``factorize`` reaches
    the trial walk, past its input checks."""
    calls = []
    inner = numtheory._factorize

    def recording(n):
        calls.append(n)
        return inner(n)

    monkeypatch.setattr(numtheory, "_factorize", recording)
    return calls


@pytest.fixture
def cold_formula_caches():
    """Clears every memo of the formula layer before the test, after it and
    whenever the test calls it, so that no value computed under a
    monkeypatched formula outlives the patch."""
    caches = [f for module in (numtheory, field_profile, quadcyclo, moduli)
              for f in vars(module).values() if hasattr(f, "cache_clear")]

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield clear
    clear()


def prime_powers(limit):
    """All prime powers q = p^k with q <= limit, as (p, k, q) triples."""
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        k, q = 1, p
        while q <= limit:
            out.append((p, k, q))
            k += 1
            q *= p
    return sorted(out, key=lambda t: t[2])


def odd_prime_powers(limit):
    """Prime powers q = p^k <= limit with p odd."""
    return [(p, k, q) for (p, k, q) in prime_powers(limit) if p != 2]


def divisors(n):
    """All positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def valuation(m, p):
    """The exponent of the prime p in m, by repeated division."""
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def parts_product(n):
    """The primitive n-th root assembled from canonical prime-power parts.

    This is the representative for which the per-prime product formula (and
    hence the lcm-order dichotomy of root products) is an exact identity; a
    single canonical fraction 1/n is a different primitive root in general.
    """
    z = identity
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            z = multiply(z, canonical(p**e, 1))
        p += 1
    return z


def artin_schreier_values(field, n):
    """The Artin-Schreier generator y = z/(z + z^yogh) of the n-th root over
    F_q and its constant y^2 + y, realized in the oracle's F_(q^2)."""
    gen = artin_schreier_generator(field, n)
    E = build_field(field.p, 2 * field.k)
    y = embed_root(E, gen.numerator) / evaluate_sum(E, gen.denominator)
    return y, y * y + y


def euler_is_residue(field, n):
    """Euler's criterion on the radical generator's square, realized in the
    oracle's F_(q^2): whether it is a square in F_q."""
    E = build_field(field.p, 2 * field.k)
    value = evaluate_sum(E, radical_generator(field, n).square)
    return value ** ((field.q - 1) // 2) == E.one


def absolute_trace_bit(field, n):
    """The absolute trace down to F_2 of the Artin-Schreier constant,
    realized in the oracle's F_(q^2)."""
    _, a = artin_schreier_values(field, n)
    E = a.field
    trace = E.zero
    for i in range(field.k):
        trace = trace + a ** (2**i)
    assert trace in (E.zero, E.one), "absolute trace outside the prime field"
    return int(trace == E.one)


def enumerate_subset(ms):
    """All elements of the root-of-unity set ``ms``, canonical and
    duplicate-free, sorted: the reference the set algebra is checked on."""
    return sorted(roots._enum_set(ms))


def as_fraction(z):
    """The exponent class of the root z as an exact fraction in [0, 1): the
    group-law reference, under which roots multiply by adding fractions mod 1."""
    return Fraction(z.numerator, z.denominator)


def squarefree_kernel(n):
    """The signed squarefree part of n: the product of primes with odd exponent.

    The sign of n is preserved, so kernel(-12) == -3 and kernel(-4) == -1.
    """
    if n == 0:
        raise ValueError("squarefree_kernel requires a nonzero integer")
    sign = -1 if n < 0 else 1
    kernel = 1
    for p, e in factorize(abs(n)):
        if e % 2 == 1:
            kernel *= p
    return sign * kernel


def field_elements(ext):
    """All q elements of the oracle's field ``ext``, in encoding order."""
    return list(map(ext.from_encoding, range(ext.q)))


def inseparable_orbit_related(ext, a, aprime):
    """The orbit relation for inseparable quadratic classes in characteristic
    2: a ~ c^2 a' - b^2 for some nonzero c and some b, by exhaustive search in
    the oracle's field ``ext``.

    Over a perfect field it relates every pair (squaring is onto), so the
    inseparable moduli space is empty, as ``quad_moduli_summary`` states.
    """
    assert ext.p == 2, "the orbit relation applies in characteristic 2"
    elements = field_elements(ext)
    return any(a == c * c * aprime - b * b
               for c in elements if not c.is_zero for b in elements)
