"""Tests for exponent-class arithmetic in the group of roots of unity.

A root is a reduced fraction j/n in Q/Z under the coherent convention
z(m) = z(N)^(N/m); multiplication is fraction addition.  The subset
algebra (mu, primitive layers, products, differences, unions) is checked
against direct enumeration.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import cyclokit
from cyclokit import (
    Difference,
    InternalProduct,
    Mu,
    PrimSet,
    RootOfUnity,
    RootSum,
    Union,
    canonical,
    contains,
    describe,
    identity,
    multiply,
    power,
    render_root,
)
from cyclokit.roots import _sign_rep

from conftest import as_fraction, enumerate_subset, parts_product


roots_strategy = st.builds(
    canonical,
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=400),
)


# ---------------------------------------------------------------------------
# canonical / multiply / power / render_root
# ---------------------------------------------------------------------------


def test_canonical_frozen_values():
    assert canonical(8, 2) == canonical(4, 1)
    assert as_fraction(canonical(6, 5)) == Fraction(5, 6)
    assert as_fraction(canonical(12, 8)) == Fraction(2, 3)


def test_multiply_frozen_values():
    assert multiply(canonical(2, 1), canonical(3, 1)) == canonical(6, 5)
    assert multiply(canonical(4, 1), canonical(4, 1)) == canonical(2, 1)


def test_power_frozen_values():
    assert power(canonical(8, 1), 4) == canonical(2, 1)
    assert power(canonical(9, 1), 3) == canonical(3, 1)
    assert power(canonical(5, 1), -1) == canonical(5, 4)


@pytest.mark.parametrize("expression", [
    lambda z: z * 2, lambda z: 2 * z, lambda z: z + z, lambda z: z * z, lambda z: (1,) + z,
], ids=["root_times_int", "int_times_root", "root_plus_root", "root_times_root", "tuple_plus_root"])
def test_tuple_operators_on_a_root_raise(expression):
    # A root is a tuple, so these would concatenate or repeat it silently.
    with pytest.raises(TypeError, match=r"multiply\(\) and power\(\)"):
        expression(canonical(4, 1))


def test_primitive_order_frozen_values():
    # the reduced denominator is the primitive order
    assert canonical(12, 8).denominator == 3
    assert identity.denominator == 1
    assert canonical(16, 3).denominator == 16


def test_render_and_parse_round_trip():
    # the printed form z(n,j) names the reduced class j/n, so reading the two
    # numbers back gives the root
    for n in range(1, 40):
        for j in range(n):
            z = canonical(n, j)
            text = render_root(z)
            assert text == f"z({z.denominator},{z.numerator})"
            assert canonical(*map(int, text[2:-1].split(","))) == z


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------


@settings(max_examples=500)
@given(roots_strategy, roots_strategy, roots_strategy)
def test_group_laws(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, y) == multiply(y, x)
    assert multiply(x, identity) == x
    assert multiply(x, power(x, -1)) == identity


@settings(max_examples=300)
@given(roots_strategy, st.integers(min_value=-12, max_value=12))
def test_power_is_iterated_multiplication(z, e):
    acc = identity
    step = z if e >= 0 else power(z, -1)
    for _ in range(abs(e)):
        acc = multiply(acc, step)
    assert power(z, e) == acc


@settings(max_examples=300)
@given(roots_strategy, roots_strategy)
def test_multiply_is_fraction_addition(x, y):
    want = (as_fraction(x) + as_fraction(y)) % 1
    assert as_fraction(multiply(x, y)) == want


def test_multiply_matches_fraction_addition_small_denominators():
    # Exhaustive over reduced exponent fractions with denominator <= 60; the
    # sum a/n + b/m mod 1 is (a*m + b*n) mod nm over nm, reduced.
    fracs = [(j, n) for n in range(1, 61) for j in range(n) if gcd(j, n) == 1]
    roots = [canonical(n, j) for j, n in fracs]
    for i, (a, n) in enumerate(fracs):
        for k in range(i, len(roots)):
            b, m = fracs[k]
            num, den = (a * m + b * n) % (n * m), n * m
            g = gcd(num, den)
            got = multiply(roots[i], roots[k])
            assert (got.numerator, got.denominator) == (num // g, den // g)


def test_coprime_product_order():
    for m in range(1, 40):
        for n in range(1, 40):
            if gcd(m, n) != 1:
                continue
            z = multiply(canonical(m, 1), canonical(n, 1))
            assert z.denominator == m * n


def test_product_of_prime_power_roots_formula():
    # z(p^e) * z(p^f) = z(p^max(e,f))^(p^|e-f| + 1)
    for p in (2, 3, 5):
        for e in range(0, 6):
            for f in range(0, 6):
                lhs = multiply(canonical(p**e, 1), canonical(p**f, 1))
                rhs = power(canonical(p ** max(e, f), 1), p ** abs(e - f) + 1)
                assert lhs == rhs


def test_product_order_lcm_dichotomy():
    # The order of the product of two parts-product representatives is
    # lcm(n, m), except when n and m share the same nonzero 2-adic valuation,
    # where exactly one factor of 2 collapses.
    def eps2(n):
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        return e

    for n in range(1, 61):
        wn = parts_product(n)
        assert wn.denominator == n
        for m in range(1, 61):
            z = multiply(wn, parts_product(m))
            big = lcm(n, m)
            if eps2(n) == eps2(m) and eps2(n) > 0:
                assert z.denominator == big // 2
            else:
                assert z.denominator == big


def test_finite_subgroup_closure_is_mu_of_max_order():
    # Closing any finite set of roots under multiplication yields exactly
    # mu(N) where N is the largest primitive order present in the closure.
    seeds = [
        [canonical(4, 1)],
        [canonical(6, 1), canonical(4, 1)],
        [canonical(9, 2), canonical(15, 4)],
        [canonical(8, 3), canonical(12, 5), canonical(5, 2)],
    ]
    for seed in seeds:
        closure = {identity, *seed}
        frontier = list(closure)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closure):
                    c = multiply(a, b)
                    if c not in closure:
                        closure.add(c)
                        nxt.append(c)
            frontier = nxt
        n_max = max(z.denominator for z in closure)
        assert closure == set(enumerate_subset(Mu(n_max)))


# ---------------------------------------------------------------------------
# subset algebra: mu / primitive sets / products / differences / unions
# ---------------------------------------------------------------------------


def test_enumerate_frozen_cardinalities():
    assert len(list(enumerate_subset(Mu(4)))) == 4
    assert len(list(enumerate_subset(PrimSet(8)))) == 4
    diff = Difference(Mu(8), Mu(4))
    elems = list(enumerate_subset(diff))
    assert len(elems) == 4
    assert all(z.denominator == 8 for z in elems)


def test_cardinality_matches_enumeration():
    # (set, its size counted by hand: phi for primitive layers, products of
    # coprime orders multiply)
    subsets = [
        (Mu(1), 1),
        (Mu(12), 12),
        (PrimSet(1), 1),
        (PrimSet(12), 4),
        (Difference(Mu(24), Mu(4)), 20),
        (Difference(Mu(8), Mu(8)), 0),
        (InternalProduct((PrimSet(8), Mu(3))), 12),
        (InternalProduct((Mu(4), Mu(9))), 36),
        (Union((PrimSet(3), PrimSet(4), PrimSet(6))), 6),
    ]
    for ms, size in subsets:
        elems = list(enumerate_subset(ms))
        assert len(elems) == size
        assert len(set(elems)) == len(elems)


SET_EXPRESSIONS = [
    Mu(12),
    PrimSet(8),
    Difference(Mu(24), Mu(4)),
    InternalProduct((PrimSet(4), Mu(3))),
    Union((PrimSet(3), PrimSet(4), PrimSet(6))),
]


def test_contains_agrees_with_enumeration():
    universe = list(enumerate_subset(Mu(24)))
    for ms in SET_EXPRESSIONS:
        member = set(enumerate_subset(ms))
        for z in universe:
            assert contains(ms, z) == (z in ms) == (z in member)


@pytest.mark.parametrize("ms", SET_EXPRESSIONS, ids=lambda ms: type(ms).__name__)
def test_in_is_the_membership_test_and_refuses_non_roots(ms):
    # ``in`` tests roots, not the tuple of fields; ``len`` is still the tuple's.
    assert canonical(3, 1) in Union((PrimSet(3),)) and canonical(4, 1) in Mu(4)
    assert len(ms) == len(ms._fields)
    for operand in (12, 8, Mu(4), (1, 12), "z(4,1)", None):
        with pytest.raises(TypeError, match="not a root of unity"):
            operand in ms
        with pytest.raises(TypeError, match="not a root of unity"):
            contains(ms, operand)


def test_internal_product_enumerates_pairwise_products():
    ms = InternalProduct((PrimSet(8), Mu(3)))
    want = {
        multiply(a, b)
        for a in enumerate_subset(PrimSet(8))
        for b in enumerate_subset(Mu(3))
    }
    assert set(enumerate_subset(ms)) == want


def test_describe_frozen_renderings():
    assert describe(Difference(Mu(8), Mu(4))) == "mu(8) - mu(4)"
    assert describe(InternalProduct((PrimSet(8), Mu(1)))) == "prim(8) * mu(1)"
    assert describe(Union((PrimSet(3), PrimSet(4), PrimSet(6)))) == "prim(3) | prim(4) | prim(6)"


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------


def test_root_sum_sign_normalization():
    # -z is the same term as z(2)*z with a negated coefficient, so a trace
    # like z8 + z8^(-1) renders with the 2-torsion folded into signs.
    z = canonical(8, 1)
    s = RootSum.of(z) + RootSum.of(power(z, -1))
    assert s == RootSum.of(z) - RootSum.of(canonical(8, 3))
    assert str(s) == "z(8,1) - z(8,3)"


def test_root_sum_cancellation():
    z = canonical(12, 5)
    assert (RootSum.of(z) - RootSum.of(z)).is_zero
    assert RootSum().is_zero
    assert str(RootSum()) == "0"


def test_root_sum_map_exponent_is_additive_on_terms():
    s = RootSum.of(canonical(16, 1)) + RootSum.from_terms([(3, canonical(16, 7))])
    t = s.map_exponent(5)
    want = RootSum.of(canonical(16, 5)) + RootSum.from_terms([(3, canonical(16, 35))])
    assert t == want


def test_package_all_resolves_without_shadowing_enumerate():
    for name in cyclokit.__all__:
        assert hasattr(cyclokit, name), name
    assert "enumerate" not in cyclokit.__all__
    namespace: dict = {}
    exec("from cyclokit import *", namespace)
    assert "enumerate" not in namespace
    assert enumerate_subset(Mu(2)) == [identity, canonical(2, 1)]


# ---------------------------------------------------------------------------
# sign representatives in closed form
# ---------------------------------------------------------------------------


def _group_law_sign_rep(z):
    """{z, -z} normalized by the group law: -z is z times the order-2 root,
    and the smaller of the two is the representative."""
    partner = multiply(z, canonical(2, 1))
    return (z, 1) if z <= partner else (partner, -1)


def test_sign_representative_matches_the_group_law_for_orders_to_600():
    for n in range(1, 601):
        for j in range(n):
            if gcd(j, n) != 1:
                continue
            z = canonical(n, j)
            assert type(z) is RootOfUnity and z == RootOfUnity(n, j % n)
            rep, sign = _sign_rep(z)
            assert (rep, sign) == _group_law_sign_rep(z), z
            # built directly, yet reduced and of the root type
            assert type(rep) is RootOfUnity and rep == canonical(*rep)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 48), st.integers(-47, 47)),
                max_size=6))
def test_root_sums_normalize_compare_and_hash_as_by_the_group_law(raw):
    terms = [(c, canonical(n, j)) for c, n, j in raw]
    reference: dict = {}
    for coeff, root in terms:
        rep, sign = _group_law_sign_rep(root)
        reference[rep] = reference.get(rep, 0) + sign * coeff
    reference = {r: c for r, c in reference.items() if c}
    s = RootSum.from_terms(terms)
    assert s == RootSum(reference)
    assert hash(s) == hash(frozenset(reference.items()))
    assert s.terms() == [(c, r) for r, c in sorted(reference.items())]
    assert s.map_exponent(5) == RootSum.from_terms([(c, power(r, 5)) for c, r in s.terms()])
    assert s.lcm_order() == lcm(1, *(r.denominator for r in reference))


def _reference_render(reference):
    """A sum's text from its sorted (root, coefficient) pairs: the first term
    signed only when negative, each later one joined by '+' or '-', and a
    magnitude above 1 written as a factor."""
    parts = []
    for root, coeff in sorted(reference.items()):
        body = render_root(root) if abs(coeff) == 1 else f"{abs(coeff)}*{render_root(root)}"
        sign = ("" if coeff > 0 else "-") if not parts else ("+ " if coeff > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 48), st.integers(-47, 47)),
                max_size=6))
def test_root_sums_render_their_sorted_terms(raw):
    terms = [(c, canonical(n, j)) for c, n, j in raw]
    reference: dict = {}
    for coeff, root in terms:
        rep, sign = _group_law_sign_rep(root)
        reference[rep] = reference.get(rep, 0) + sign * coeff
    reference = {r: c for r, c in reference.items() if c}
    s = RootSum.from_terms(terms)
    assert str(s) == _reference_render(reference)
    assert repr(s) == f"RootSum({_reference_render(reference)})"
    # A sum built from its own normalized terms is the same sum.
    again = RootSum(dict(reference))
    assert (again, hash(again), str(again)) == (s, hash(s), str(s))


def test_root_sum_frozen_renderings():
    z16 = canonical(16, 1)
    assert str(RootSum.of(z16, power(z16, 7))) == "z(16,1) + z(16,7)"
    assert str(RootSum.of(power(z16, 8))) == "-z(1,0)"
    assert str(RootSum.from_terms([(2, canonical(4, 1)), (-3, canonical(12, 1))])) == (
        "2*z(4,1) - 3*z(12,1)")
    assert str(RootSum.from_terms([(-1, canonical(3, 1)), (1, canonical(6, 1))])) == (
        "-z(3,1) - z(3,2)")
    assert str(RootSum.from_terms([(1, canonical(5, 2)), (-1, canonical(5, 2))])) == "0"
