"""The per-field prime basis against the whole-number route it replaced.

Before the basis, ``s_max`` factored |mu(K)| whole (``q^2 - 1`` over
``F_q``), ``s_n`` factored the order of each root, and ``verify`` enumerated
the divisors of ``factorize(q^2 - 1)``.  Below the old ceiling (``q^2 - 1``
at most ``MAX_FACTOR_INPUT``) that route still applies, so it is the
reference here: every output must be identical, ordering included, because
the CLI's golden file depends on the order of the primes.  The last test
checks the point of the basis: over a large field nothing above ``q + 1``
reaches the factorizer, and Brent rho does not run.
"""

import itertools
import random

import pytest

from cyclokit import (
    RATIONAL,
    Difference,
    InternalProduct,
    Mu,
    SMaxClass,
    SMaxPartition,
    eps,
    factorize,
    finite_field,
    full_moduli,
    is_prime,
    min_poly,
    numtheory,
    order_of_zeta,
    parse_field,
    prime_basis,
    s_max,
    s_n,
)
from cyclokit.cli import _divisors

from conftest import prime_powers


def reference_s_max(field):
    """``s_max`` by the whole-number route: |mu(K)| factored whole and each
    prime's exponent in |mu(F)| taken by ``eps``."""
    w = field.roots_of_unity
    classes = []
    for big, _ in field.quadratic_extensions:
        primes, rep, remainder, mu_m, mu_mf = [], 1, 1, [], []
        for p, e2 in factorize(big):
            e1 = eps(w, p)
            if e2 > e1:
                primes.append(p)
                rep *= p ** (e1 + 1)
                mu_m.append(Mu(p**e2))
                mu_mf.append(Mu(p**e1))
            else:
                remainder *= p**e1
        mu_m.append(Mu(remainder))
        mu_mf.append(Mu(remainder))
        presentation = Difference(InternalProduct(tuple(mu_m)), InternalProduct(tuple(mu_mf)))
        poly = min_poly(field, rep).render()
        classes.append(SMaxClass(tuple(primes), rep, poly, presentation, big - w))
    return SMaxPartition(tuple(classes))


def reference_s_n(field, n):
    return frozenset(p for p, _ in factorize(order_of_zeta(field, n)))


def reference_divisors(m):
    """The divisors of m, ascending, from ``factorize(m)``."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _large_primes(count=40, seed=20):
    """``count`` seeded primes q in [2^30, 3037000499], the range in which
    q^2 - 1 is within the old ceiling and is large."""
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        q = rng.randrange(2**30, 3037000500)
        if is_prime(q):
            out.add(q)
    return sorted(out)


FIELDS = {
    "Q": [RATIONAL],
    "q<=2000": [finite_field(p, k) for p, k, _ in prime_powers(2000)],
    "large": [finite_field(q) for q in _large_primes()],
}


@pytest.mark.parametrize("group", FIELDS)
def test_basis_matches_whole_number_route(group):
    for field in FIELDS[group]:
        assert repr(s_max(field)) == repr(reference_s_max(field)), field
        for big, _ in field.quadratic_extensions:
            divs = reference_divisors(big)
            for n in divs:
                if field.is_rational or n % field.p:
                    assert s_n(field, n) == reference_s_n(field, n), (field, n)
            if not field.is_rational:
                assert _divisors(field) == divs, field


def test_basis_factors_are_mu_f_and_mu_k():
    for field in (field for group in FIELDS.values() for field in group):
        w = field.roots_of_unity
        for (big, _), factors in zip(field.quadratic_extensions, prime_basis(field)):
            assert [p for p, _, _ in factors] == [p for p, _ in factorize(big)]
            for p, e1, e2 in factors:
                assert (e1, e2) == (eps(w, p), eps(big, p)), (field, p)


@pytest.mark.parametrize("field", [RATIONAL, finite_field(5), finite_field(2, 3),
                                   finite_field(23), finite_field(3, 4)], ids=repr)
def test_s_n_outside_every_mu_k_factors_the_cofactor(field):
    # Orders that divide no |mu(K)| leave a cofactor prime to the basis.
    for n in range(1, 400):
        if field.is_rational or n % field.p:
            assert s_n(field, n) == reference_s_n(field, n), n


def test_making_a_profile_builds_no_basis():
    # The basis is lazy: field set-up, which lib-sweep times, factors nothing.
    before = prime_basis.cache_info()
    for spec in ("Q", "q:23", "q:2^10", "q:2516209727", "q:2^100"):
        parse_field(spec)
    finite_field(4294967291)
    assert prime_basis.cache_info() == before


def test_large_field_factors_nothing_above_q_plus_one(rho_calls, monkeypatch):
    # q - 1 = 2 * 1258104863 and q + 1 = 2^6 * 3 * 13105259; whole, q^2 - 1
    # leaves the 54-bit cofactor 1258104863 * 13105259 for rho.
    q = 2516209727
    assert (q - 1) * (q + 1) == 2**7 * 3 * 13105259 * 1258104863
    assert all(map(is_prime, (2, 3, 13105259, 1258104863)))
    divisors = [2**a * 3**b * 13105259**c * 1258104863**e
                for a, b, c, e in itertools.product(range(8), range(2), range(2), range(2))]
    quadratic = [n for n in divisors if (q - 1) % n]
    assert len(quadratic) == 60
    field = finite_field(q)
    inputs = []
    inner = numtheory._factorize

    def recording(n):
        inputs.append(n)
        return inner(n)

    monkeypatch.setattr(numtheory, "_factorize", recording)
    s_max(field)
    full_moduli(field)
    for n in quadratic:
        s_n(field, n)
    assert inputs and max(inputs) <= q + 1
    assert rho_calls == []
