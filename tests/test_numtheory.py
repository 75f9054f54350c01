"""Tests for the elementary number-theoretic helpers.

Fixed input/output pairs are frozen here; the heavier identities
(factorization reconstruction, orders, CRT gluing) are exercised as
properties.  The signed squarefree kernel, the tests' reference for the
rational square classes, lives in ``conftest`` and is checked here.
"""

import random
from collections import Counter
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from cyclokit import (
    MAX_FACTOR_INPUT,
    ResidueClass,
    SizeBoundError,
    crt,
    eps,
    euler_phi,
    factorize,
    finite_field,
    is_prime,
    mult_order,
    yogh,
)
from cyclokit import numtheory

from conftest import squarefree_kernel


# ---------------------------------------------------------------------------
# factorize / eps
# ---------------------------------------------------------------------------


def test_factorize_frozen_values():
    assert factorize(1) == []
    assert factorize(528) == [(2, 4), (3, 1), (11, 1)]
    assert factorize(24) == [(2, 3), (3, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_refuses_inputs_above_the_bound_as_size_errors():
    assert factorize(MAX_FACTOR_INPUT) == [(7, 2), (73, 1), (127, 1), (337, 1),
                                           (92737, 1), (649657, 1)]
    with pytest.raises(SizeBoundError):
        factorize(MAX_FACTOR_INPUT + 1)


def _assert_is_factorization(n, factors):
    prod = 1
    for p, e in factors:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    ps = [p for p, _ in factors]
    assert all(a < b for a, b in zip(ps, ps[1:]))


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs_argument(n):
    _assert_is_factorization(n, factorize(n))


# No deadline: a repeated example is answered from the memo, so its time
# says nothing about the first run's.
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=MAX_FACTOR_INPUT))
def test_factorize_reconstructs_any_accepted_argument(n):
    _assert_is_factorization(n, factorize(n))


# Cofactors past the trial-division table (primes below 8000), so each is
# split by rho: squares and products of primes just past the table, a prime
# cube, squares of 31- and 32-bit primes, and two 31-bit primes.
@pytest.mark.parametrize(
    "n, want",
    [
        (8009**2, [(8009, 2)]),
        (8009 * 8011 * 8017, [(8009, 1), (8011, 1), (8017, 1)]),
        (1000003**3, [(1000003, 3)]),
        ((2**31 - 1) ** 2, [(2**31 - 1, 2)]),
        (3037000493**2, [(3037000493, 2)]),
        ((2**31 - 1) * (2**31 - 19), [(2**31 - 19, 1), (2**31 - 1, 1)]),
        (2**62 - 1, [(3, 1), (715827883, 1), (2**31 - 1, 1)]),
    ],
)
def test_factorize_splits_cofactors_past_the_table(n, want):
    assert factorize(n) == want
    _assert_is_factorization(n, want)


def test_factorize_result_is_a_fresh_list():
    n = 2**62 - 1
    first = factorize(n)
    first.append((5, 1))
    first[0] = (2, 9)
    assert factorize(n) == [(3, 1), (715827883, 1), (2**31 - 1, 1)]


def test_repeated_orders_are_served_from_the_factorization_memo():
    q = 2**31 - 1
    n = q * q - 1
    assert mult_order(q, n) == 2
    before = numtheory._factorize.cache_info()
    for _ in range(3):
        assert mult_order(q, n) == 2
    after = numtheory._factorize.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_inputs_above_the_bound_never_reach_the_memo():
    before = numtheory._factorize.cache_info()
    for n in (MAX_FACTOR_INPUT + 1, 2**64 - 1, 10**30):
        with pytest.raises(SizeBoundError):
            factorize(n)
    after = numtheory._factorize.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize)


def test_inputs_above_the_bound_never_reach_rho(rho_calls):
    for n in (MAX_FACTOR_INPUT + 1, 2**64 - 1, 10**30, (2**61 - 1) ** 2):
        with pytest.raises(SizeBoundError):
            factorize(n)
    assert rho_calls == []


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


_rough_primes = st.integers(min_value=8000, max_value=2**31 - 1).map(_next_prime)


@settings(deadline=None)
@given(_rough_primes, _rough_primes, st.booleans())
def test_factorize_splits_products_of_two_rough_primes(p, q, square):
    if square:
        q = p
    assert factorize(p * q) == sorted(Counter((p, q)).items())


def test_factorize_primes_strictly_increasing():
    for n in range(2, 2000):
        ps = [p for p, _ in factorize(n)]
        assert ps == sorted(set(ps))


def test_the_trial_divisors_are_the_primes_below_8000():
    # factorize walks this table; trial division decides each entry here.
    primes = [n for n in range(2, 8000) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert numtheory._SMALL_PRIMES == tuple(primes)
    assert len(primes) == 1007 and primes[-1] == 7993


def _sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit, p))
    return flags


def test_is_prime_agrees_with_a_sieve():
    flags = _sieve(10**5)
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n, flag in enumerate(flags) if flag]


# Carmichael numbers fool the Fermat test; 3215031751 is a strong
# pseudoprime to bases 2, 3, 5 and 7, and 3825123056546413051 to every
# prime base up to 23.
@pytest.mark.parametrize(
    "n", [561, 41041, 825265, 3215031751, 3825123056546413051])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_inputs_from_psi_12():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to all
    # twelve bases, so the test is exact only below it.
    psi_12 = 318665857834031151167461
    assert 399165290221 * 798330580441 == psi_12
    for n in (psi_12, psi_12 + 2, 2**89 - 1):
        with pytest.raises(SizeBoundError):
            is_prime(n)
    assert not is_prime(psi_12 - 1)
    assert is_prime(2**61 - 1)


def test_eps_frozen_values():
    assert eps(528, 2) == 4
    assert eps(22, 2) == 1
    assert eps(7, 2) == 0


def test_eps_takes_any_base_from_two_without_testing_primality():
    # The caller proves p prime where it matters; eps needs p >= 2 to stop.
    assert eps(48, 4) == 2
    assert eps(1000, 10) == 3
    for n, p in ((0, 2), (-4, 2), (5, 1), (5, 0), (5, -3)):
        with pytest.raises(ValueError, match="eps needs n >= 1 and p >= 2"):
            eps(n, p)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_eps_and_pfree_quotient_split_n(n, p):
    e = eps(n, p)
    m = n // p**e
    assert n == p**e * m
    assert m % p != 0


# ---------------------------------------------------------------------------
# euler_phi / mult_order / crt
# ---------------------------------------------------------------------------


def test_euler_phi_frozen_values():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    assert [n for n in range(1, 50) if euler_phi(n) == 2] == [3, 4, 6]


def test_euler_phi_sums_over_divisors():
    for n in range(1, 400):
        assert sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0) == n


def test_mult_order_frozen_values():
    assert mult_order(5, 24) == 2
    assert mult_order(23, 16) == 2
    assert mult_order(2, 7) == 3


def test_mult_order_requires_coprimality():
    with pytest.raises(ValueError):
        mult_order(6, 9)


def test_mult_order_is_minimal_exponent():
    from math import gcd

    for m in range(2, 60):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            t = mult_order(a, m)
            assert pow(a, t, m) == 1
            assert all(pow(a, s, m) != 1 for s in range(1, t))


def test_crt_frozen_value():
    got = crt([ResidueClass(1, 4), ResidueClass(2, 3)])
    assert got == ResidueClass(5, 12)


def test_crt_empty_input_gives_trivial_class():
    assert crt([]) == ResidueClass(0, 1)


@given(
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 16, 9, 25, 27]), st.integers(0, 10**4)),
        min_size=1,
        max_size=4,
    )
)
def test_crt_solution_reduces_to_inputs(pairs):
    from math import gcd

    # Keep only pairwise-coprime moduli so the system is solvable.
    moduli, classes = [], []
    for m, v in pairs:
        if all(gcd(m, other) == 1 for other in moduli):
            moduli.append(m)
            classes.append(ResidueClass(v % m, m))
    sol = crt(classes)
    big = 1
    for m in moduli:
        big *= m
    assert sol.modulus == big
    for c in classes:
        assert sol.value % c.modulus == c.value


@pytest.mark.parametrize("expression", [
    lambda k: k * 2, lambda k: 2 * k, lambda k: k + k, lambda k: k * k, lambda k: (1,) + k,
], ids=["class_times_int", "int_times_class", "class_plus_class", "class_times_class",
        "tuple_plus_class"])
def test_tuple_operators_on_a_residue_class_raise(expression):
    # A residue class is a tuple, so these would concatenate or repeat it silently.
    k = yogh(finite_field(23), 16)
    assert k == ResidueClass(7, 16)
    with pytest.raises(TypeError, match=r"\.value arithmetic or crt\(\)"):
        expression(k)
    # The tuple behaviour that crt, sorting and _replace rely on stays.
    assert crt([k, (2, 3)]) == ResidueClass(23, 48)
    assert sorted((k, ResidueClass(1, 16))) == [(1, 16), (7, 16)]
    assert k._replace(value=3) == (3, 16)


def test_crt_takes_plain_pairs_and_residue_classes_alike():
    want = ResidueClass(5, 12)
    assert crt([(1, 4), (2, 3)]) == want
    assert crt([ResidueClass(1, 4), (2, 3)]) == want
    assert crt([ResidueClass(1, 4), ResidueClass(2, 3)]) == want
    # Plain values need not be reduced; a modulus of 1 adds nothing.
    assert crt([(-3, 4), (5, 3), (7, 1)]) == want
    assert crt(iter([(1, 4), (2, 3)])) == want
    for bad in ([(1, 4), (1, 6)], [(1, 0)], [(1, -5)]):
        with pytest.raises(ValueError, match="crt moduli"):
            crt(bad)


# ---------------------------------------------------------------------------
# squarefree_kernel
# ---------------------------------------------------------------------------


def test_squarefree_kernel_frozen_values():
    assert squarefree_kernel(-12) == -3
    assert squarefree_kernel(18) == 2
    assert squarefree_kernel(-1) == -1


def test_squarefree_kernel_divides_and_is_squarefree():
    for n in list(range(-300, 0)) + list(range(1, 300)):
        k = squarefree_kernel(n)
        assert (n > 0) == (k > 0)
        quot = n // k
        assert quot > 0
        r = int(round(quot**0.5))
        assert r * r == quot
        assert all(e == 1 for _, e in factorize(abs(k))) or abs(k) == 1


# ---------------------------------------------------------------------------
# the trial stage and the primality bases, against references
# ---------------------------------------------------------------------------


def _trial_division(n):
    """The factorization of n by dividing by 2, 3, 4, ... in turn, while the
    divisor's square is at most what is left: exact, and fast while the
    second largest prime of n and the square root of the largest are small."""
    factors, d = Counter(), 2
    while d * d <= n:
        while n % d == 0:
            factors[d] += 1
            n //= d
        d += 1
    if n > 1:
        factors[n] += 1
    return sorted(factors.items())


def _primes_by_trial_division(low, high):
    return [n for n in range(low, high) if all(n % d for d in range(2, isqrt(n) + 1))]


#: Primes above the table (the primes below 8000), certified by trial division.
_ROUGH = [p for low in (8000, 1 << 16, 1 << 22) for p in _primes_by_trial_division(low, low + 300)]

#: The least primes above 7919^2, the square of the largest table prime, where
#: a cofactor stops being prime by size alone.
_JUST_ABOVE_TABLE_SQUARE = _primes_by_trial_division(7919**2, 7919**2 + 200)


@pytest.mark.parametrize("n", [
    1, 2, 7919, 2**62, 3**39, 7919**4, 7907**2 * 7919**2, 2**20 - 1, 2**20, 2**20 + 1,
    7907 * 7919, 2 * 7907 * 7919, 2**30 * 7907 * 7919, 3 * 5 * 7 * 7907 * 7919 * 7901,
    8009 * 8011, 7927 * 7933, 2 * 7927 * 7933, 7919 * 7927, 2**63 - 1,
    *_JUST_ABOVE_TABLE_SQUARE, *(2 * 3 * p for p in _JUST_ABOVE_TABLE_SQUARE),
    *(7919 * p for p in _JUST_ABOVE_TABLE_SQUARE),
])
def test_factorize_agrees_with_trial_division_at_the_edges_of_the_table(n):
    # Products of two table primes near 8000 make the longest walk after the
    # gcd; prime powers of table primes leave nothing to the cofactor; 2^20
    # is where the walk gives way to the gcd.
    assert factorize(n) == _trial_division(n)


def test_factorize_agrees_with_trial_division_on_seeded_inputs():
    rng = random.Random(23)
    small = _primes_by_trial_division(2, 8000)
    for bits in range(10, 63):
        # Plain integers, while trial division stays fast ...
        if bits <= 30:
            for _ in range(3):
                n = rng.randrange(1 << (bits - 1), 1 << bits)
                assert factorize(n) == _trial_division(n), n
        # ... and up to 2^62 products of table primes and primes past the
        # table, whose factorization is known by construction.
        for _ in range(3):
            factors, n = Counter(), 1
            for _ in range(30):
                p = rng.choice(small if rng.random() < 0.6 else _ROUGH)
                if (n * p).bit_length() <= bits:
                    factors[p] += 1
                    n *= p
            assert factorize(n) == sorted(factors.items()), n


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


_TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _twelve_base_reference(n):
    """Miller-Rabin with all 12 prime bases up to 37, exact below psi_12."""
    if n < 2:
        return False
    for p in _TWELVE_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _TWELVE_BASES)


#: psi_1 ... psi_11 (OEIS A014233) with their factors; psi_j is a strong
#: pseudoprime to the first j prime bases.
_PSI_FACTORS = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
]


@pytest.mark.parametrize("j, psi, factors",
                         [(j, psi, f) for j, (psi, f) in enumerate(_PSI_FACTORS, 1)])
def test_is_prime_is_exact_at_each_base_threshold(j, psi, factors):
    assert prod(factors) == psi
    # The first j bases all pass psi_j, so fewer bases would call it prime.
    assert all(_strong_probable_prime(psi, a) for a in _TWELVE_BASES[:j])
    assert not is_prime(psi)
    for n in (psi - 2, psi - 1, psi + 1, psi + 2):
        assert is_prime(n) == _twelve_base_reference(n), n


def test_is_prime_agrees_with_twelve_bases_on_seeded_64_bit_inputs():
    rng = random.Random(64)
    inputs = [rng.getrandbits(64) | 1 for _ in range(1500)]
    inputs += [rng.randrange(8000, 1 << 20) for _ in range(200)]
    for start in [rng.getrandbits(bits) for bits in range(14, 65, 2)]:
        n = start | 1
        while not _twelve_base_reference(n):
            n += 2
        inputs += [n, n + 2, n * n if n * n < 1 << 64 else n - 2]
    for n in inputs:
        assert is_prime(n) == _twelve_base_reference(n), n
