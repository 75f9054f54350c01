"""Tests for field profiles: n_F, orders of roots of unity, 2-power content,
membership of roots and of the two conjugate-pair sums.

Every decision procedure here is cross-checked against the brute-force
oracle on explicit F_{q^2} towers for all prime powers q <= 49.
"""

import copy
import pickle
from math import gcd

import pytest

from cyclokit import (
    MAX_FIELD_BITS,
    RATIONAL,
    FieldProfile,
    PreconditionError,
    Sign,
    SizeBoundError,
    canonical,
    contains_root,
    cos_sum_in_field,
    ell,
    finite_field,
    n_F,
    order_of_zeta,
    parse_field,
    power,
    render_field,
)
from cyclokit import RootSum
from cyclokit.oracle import brute_order, build_field, evaluate_sum

from conftest import divisors, prime_powers


Q = RATIONAL
F5 = finite_field(5)
F23 = finite_field(23)


# ---------------------------------------------------------------------------
# construction and rendering
# ---------------------------------------------------------------------------


def test_field_spec_round_trip():
    for spec in ("Q", "q:5", "q:2^4", "q:23"):
        assert render_field(parse_field(spec)) == spec


def test_finite_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        finite_field(4)
    with pytest.raises(ValueError):
        finite_field(6)


def test_finite_field_refuses_huge_sizes_before_computing_them():
    assert finite_field(2, MAX_FIELD_BITS // 2).q.bit_length() == MAX_FIELD_BITS // 2 + 1
    with pytest.raises(SizeBoundError):
        finite_field(2, MAX_FIELD_BITS // 2 + 1)
    with pytest.raises(SizeBoundError):
        parse_field("q:7^99999999")


def test_parse_field_rejects_garbage():
    for bad in ("F5", "q:", "q:4^2", "q:5^0", ""):
        with pytest.raises(ValueError):
            parse_field(bad)


# ---------------------------------------------------------------------------
# n_F / order_of_zeta / ell
# ---------------------------------------------------------------------------


def test_roots_of_unity_frozen_values():
    assert (Q.roots_of_unity, Q.quadratic_extensions) == (2, ((4, 3), (6, 5)))
    assert (F23.roots_of_unity, F23.quadratic_extensions) == (22, ((528, 23),))
    F1024 = finite_field(2, 10)
    assert F1024.roots_of_unity == 1023
    assert F1024.quadratic_extensions == ((1048575, 1024),)


class _CountingInt(int):
    """An int that counts how often it is raised to a power."""

    powers = 0

    def __pow__(self, exponent):
        _CountingInt.powers += 1
        return int(self) ** exponent


def test_profile_sizes_are_computed_once_and_kept():
    _CountingInt.powers = 0
    field = FieldProfile(_CountingInt(3), 4)
    first = (field.q, field.roots_of_unity, field.quadratic_extensions)
    for _ in range(3):
        again = (field.q, field.roots_of_unity, field.quadratic_extensions)
        assert all(a is b for a, b in zip(again, first))
    assert first == (81, 80, ((6560, 81),))
    assert _CountingInt.powers == 1  # p^k, once for all three sizes
    with pytest.raises(AttributeError, match="no finite size"):
        Q.q


def test_profiles_rebuilt_by_the_tuple_protocols_keep_their_sizes():
    field = finite_field(5, 2)
    rebuilt = [FieldProfile._make((5, 2)), finite_field(5, 1)._replace(k=2),
               copy.copy(field), copy.deepcopy(field), pickle.loads(pickle.dumps(field))]
    for profile in rebuilt:
        assert type(profile) is FieldProfile and profile == field
        assert (profile.q, profile.roots_of_unity, profile.quadratic_extensions) == (
            25, 24, ((624, 25),))
    rational = Q._replace()
    assert (rational.roots_of_unity, rational.quadratic_extensions) == (2, ((4, 3), (6, 5)))
    with pytest.raises(AttributeError, match="no finite size"):
        rational.q


def test_attribute_probes_answer_on_the_rational_profile():
    # Only the rational field lacks q; a probe reads that as a missing attribute.
    assert not hasattr(Q, "q") and getattr(Q, "q", None) is None
    assert hasattr(F5, "q") and getattr(F5, "q", None) == 5
    with pytest.raises(AttributeError, match="the rational field has no finite size q"):
        Q.q
    with pytest.raises(AttributeError, match="'FieldProfile' object has no attribute 'r'"):
        F5.r


@pytest.mark.parametrize("name", ["p", "k", "q", "roots_of_unity", "quadratic_extensions",
                                  "is_rational", "other"])
def test_profiles_cannot_be_assigned_to(name):
    field = finite_field(5, 2)
    assert field.q == 25  # the kept sizes too
    with pytest.raises(AttributeError):
        setattr(field, name, 7)
    assert (field, field.q, field.roots_of_unity) == ((5, 2), 25, 24)
    assert field.quadratic_extensions == ((624, 25),)


def test_quadratic_extensions_hold_each_extensions_automorphism():
    # z -> z^c is an involution of mu(K), nontrivial, whose fixed roots are
    # exactly mu(F).
    for field in [Q] + [finite_field(p, k) for p, k, _ in prime_powers(200)]:
        for big, c in field.quadratic_extensions:
            assert c * c % big == 1
            assert c % big != 1
            assert gcd(c - 1, big) == field.roots_of_unity


def test_n_F_frozen_values():
    assert n_F(F23, 16) == 2
    assert n_F(F5, 8) == 4
    assert n_F(Q, 12) == 2
    for n in range(1, 200):
        assert n_F(Q, n) == (2 if n % 2 == 0 else 1)


def test_order_of_zeta_frozen_values():
    assert order_of_zeta(F5, 8) == 2
    assert order_of_zeta(F23, 16) == 8
    assert order_of_zeta(Q, 3) == 3


def test_order_times_n_F_is_n():
    for field in (Q, F5, F23):
        char = field.characteristic
        for n in range(1, 80):
            if char and n % char == 0:
                continue
            assert n_F(field, n) * order_of_zeta(field, n) == n


def test_ell_frozen_values():
    assert ell(F5, 2) == 2
    assert ell(F23, 2) == 1
    assert ell(Q, 3) == 0
    assert ell(Q, 2) == 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert ell(Q, p) == (1 if p == 2 else 0)


def test_ell_rejects_characteristic():
    with pytest.raises(PreconditionError):
        ell(F5, 5)


def test_characteristic_dividing_n_is_rejected():
    with pytest.raises(PreconditionError):
        order_of_zeta(F5, 10)
    with pytest.raises(PreconditionError):
        contains_root(F5, canonical(15, 1))


# ---------------------------------------------------------------------------
# contains_root / cos_sum_in_field
# ---------------------------------------------------------------------------


def test_contains_root_frozen_values():
    assert contains_root(F5, canonical(4, 1)) is True
    assert contains_root(F5, canonical(8, 1)) is False
    assert contains_root(Q, canonical(2, 1)) is True
    for n in range(1, 200):
        assert contains_root(Q, canonical(n, 1)) == (n in (1, 2))


def test_cos_sum_frozen_values():
    assert cos_sum_in_field(F23, 8, Sign.PLUS) is True
    assert cos_sum_in_field(F23, 16, Sign.MINUS) is True
    assert cos_sum_in_field(Q, 5, Sign.PLUS) is False


def test_cos_sum_rational_membership_tables():
    plus = [n for n in range(1, 40) if cos_sum_in_field(Q, n, Sign.PLUS)]
    assert plus == [1, 2, 3, 4, 6]
    minus = [n for n in range(1, 40) if n <= 2 or n % 2 == 0]
    got = [n for n in minus if cos_sum_in_field(Q, n, Sign.MINUS)]
    assert got == [1, 2]


def test_cos_sum_minus_rejects_odd_n():
    with pytest.raises(PreconditionError):
        cos_sum_in_field(F23, 5, Sign.MINUS)


# ---------------------------------------------------------------------------
# oracle cross-checks over explicit towers
# ---------------------------------------------------------------------------


def test_order_of_zeta_matches_brute_force():
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            assert order_of_zeta(field, n) == brute_order(p, k, n)


def test_contains_root_iff_order_one():
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            assert contains_root(field, canonical(n, 1)) == (order_of_zeta(field, n) == 1)


def test_cos_sum_matches_explicit_evaluation():
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        E = build_field(p, 2 * k)
        for n in divisors(q * q - 1):
            z = canonical(n, 1)
            plus = evaluate_sum(E, RootSum.of(z) + RootSum.of(power(z, -1)))
            assert cos_sum_in_field(field, n, Sign.PLUS) == (plus**q == plus)
            if n % 2 == 0 or n <= 2:
                minus = evaluate_sum(E, RootSum.of(z) - RootSum.of(power(z, -1)))
                assert cos_sum_in_field(field, n, Sign.MINUS) == (minus**q == minus)


def test_quadratic_odd_n_has_coprime_invariants():
    # For odd n with a degree-2 extension, the in-field part and the order
    # are coprime.
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if n % 2 == 0:
                continue
            if (q * q - 1) % n == 0 and (q - 1) % n != 0:
                assert gcd(n_F(field, n), order_of_zeta(field, n)) == 1
