"""Tests for the degree-2 classification core: quadratic detection, the
conjugation exponent, case-tagged minimal polynomials, radical and
Artin-Schreier generators, the order-2 predicate, the 2-power membership
constant, and the equaliser classes.

The single strongest check — the conjugation exponent reducing to the
Frobenius exponent q mod n on finite fields — runs over every quadratic case
with q <= 49 here and q <= 100 in the acceptance suite.
"""

from fractions import Fraction
from math import gcd

import pytest

from cyclokit import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    BRANCH_TWO_TIMES,
    CASE_ODD,
    CASE_RADICAL,
    CASE_TWO_HIGH_MINUS,
    CASE_TWO_HIGH_PLUS,
    CASE_TWO_LOW,
    RATIONAL,
    PreconditionError,
    RootSum,
    Sign,
    artin_schreier_generator,
    canonical,
    contains_root,
    cos_sum_in_field,
    eps,
    factorize,
    finite_field,
    g2_membership,
    galois_image,
    has_property_C2,
    is_quadratic,
    kappa_class,
    min_poly,
    multiply,
    n_F,
    nu,
    nu_plus,
    order_of_zeta,
    power,
    radical_generator,
    t_nF,
    yogh,
)
from cyclokit.quadcyclo import _sum_in_field
from cyclokit.oracle import (
    brute_min_poly,
    build_field,
    evaluate_sum,
    evaluate_sum_rational,
)

from conftest import artin_schreier_values, divisors, prime_powers, valuation


Q = RATIONAL
F2 = finite_field(2)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F7 = finite_field(7)
F23 = finite_field(23)


def quadratic_cases(limit):
    """All (field, q, n) with [F_q(zeta_n) : F_q] = 2 and q <= limit."""
    for p, k, q in prime_powers(limit):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if (q - 1) % n != 0:
                yield field, q, n


# ---------------------------------------------------------------------------
# is_quadratic / t_nF
# ---------------------------------------------------------------------------


def test_is_quadratic_frozen_values():
    assert is_quadratic(F5, 8) is True
    assert is_quadratic(Q, 12) is False
    assert is_quadratic(F5, 4) is False


def test_is_quadratic_rational_cases():
    assert [n for n in range(1, 30) if is_quadratic(Q, n)] == [3, 4, 6]
    # Decided without factoring n: an order beyond factorize's bound is
    # answered, and yogh refuses it as not quadratic.
    assert is_quadratic(Q, 3 * 2**70) is False
    with pytest.raises(PreconditionError, match="not quadratic"):
        yogh(Q, 3 * 2**70)


def test_is_quadratic_rejects_characteristic():
    with pytest.raises(PreconditionError):
        is_quadratic(F5, 15)


def test_t_nF_frozen_values():
    assert t_nF(F23, 16) == 16
    assert t_nF(F5, 8) == 2
    assert t_nF(F5, 24) == 6


def test_t_nF_validates_the_order_as_n_F_does():
    for field in (F5, Q):
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"order must be positive, got {n}"):
                n_F(field, n)
            with pytest.raises(ValueError, match=f"order must be positive, got {n}"):
                t_nF(field, n)
    with pytest.raises(PreconditionError, match="characteristic 5 divides"):
        t_nF(F5, 10)


def _t_by_prime_parts(field, n):
    """t_nF by its definition, one prime power p^e of n at a time."""
    t = 1
    for p, e in factorize(n):
        o_part = order_of_zeta(field, p**e)
        if p == 2 and o_part == 2:
            t *= 2
        elif o_part > 1:
            t *= p**e
    return t


def test_t_nF_is_multiplicative_over_prime_parts():
    for field in [Q] + [finite_field(p, k) for p, k, _ in prime_powers(200)]:
        char = field.characteristic
        for n in range(1, 200):
            if char and n % char == 0:
                continue
            assert t_nF(field, n) == _t_by_prime_parts(field, n)


def test_t_nF_matches_order_in_quadratic_cases():
    # In a degree-2 case, t is 2*o or o depending on the 2-part's order.
    for field, q, n in quadratic_cases(49):
        o = order_of_zeta(field, n)
        two_part = 2 ** eps(n, 2)
        if n % 2 == 0 and order_of_zeta(field, two_part) > 2:
            assert t_nF(field, n) == 2 * o
        else:
            assert t_nF(field, n) == o


# ---------------------------------------------------------------------------
# yogh: the conjugation exponent
# ---------------------------------------------------------------------------


def test_yogh_frozen_values():
    assert yogh(F23, 16).value == 7
    assert yogh(F5, 8).value == 5
    assert yogh(Q, 3).value == 2
    assert yogh(Q, 4).value == 3
    assert yogh(Q, 6).value == 5


def test_yogh_rejects_non_quadratic():
    with pytest.raises(PreconditionError):
        yogh(F5, 4)
    with pytest.raises(PreconditionError):
        yogh(Q, 12)


def test_yogh_equals_frobenius_exponent():
    # q61^2 - 1 and q41 + 1 lie above factorize's bound.
    q61, q41 = 2**61 - 1, 3**41
    large = [(finite_field(q61), q61, q61 * q61 - 1), (finite_field(q61), q61, q61 + 1),
             (finite_field(3, 41), q41, q41 + 1)]
    for field, q, n in [*quadratic_cases(49), *large]:
        got = yogh(field, n)
        assert got.modulus == n
        assert got.value == q % n


def test_root_data_over_a_large_field_factor_nothing(factorize_calls):
    # q^2 - 1 = 2^3 * 3 * 89 * 4804363 * 641382461 for q = 2565529843.
    q = 2565529843
    field = finite_field(q)
    min_poly.cache_clear()
    for n in (8, 641382461, q + 1, 4804363 * 641382461, q * q - 1):
        assert is_quadratic(field, n)
        assert yogh(field, n) == min_poly(field, n).yogh
        t_nF(field, n)
        kappa_class(field, canonical(n, 1))
    assert factorize_calls == []


def test_yogh_is_coprime_and_bounds_order():
    for field, q, n in quadratic_cases(49):
        k = yogh(field, n).value
        assert gcd(k, n) == 1
        assert (k * k - 1) % order_of_zeta(field, n) == 0


def test_yogh_defining_membership_over_rationals():
    # zeta_n + zeta_n^k and zeta_n^(k+1) must be rational for n in {3, 4, 6}.
    from cyclokit.oracle import evaluate_sum_rational

    for n in (3, 4, 6):
        k = yogh(Q, n).value
        z = canonical(n, 1)
        trace = RootSum.of(z) + RootSum.of(power(z, k))
        evaluate_sum_rational(trace)  # raises if irrational
        norm = RootSum.of(power(z, k + 1))
        evaluate_sum_rational(norm)


# ---------------------------------------------------------------------------
# min_poly: the four cases plus the radical specialization
# ---------------------------------------------------------------------------


def test_min_poly_f23_worked_examples():
    mp8 = min_poly(F23, 8)
    assert mp8.case_tag == CASE_TWO_HIGH_PLUS
    z8 = canonical(8, 1)
    assert mp8.trace_coeff == RootSum.of(z8) + RootSum.of(power(z8, -1))
    assert mp8.norm_coeff == RootSum.of(canonical(1, 0))
    mp16 = min_poly(F23, 16)
    assert mp16.case_tag == CASE_TWO_HIGH_MINUS
    z16 = canonical(16, 1)
    assert mp16.trace_coeff == RootSum.of(z16) - RootSum.of(power(z16, -1))
    assert mp16.norm_coeff == -RootSum.of(canonical(1, 0))


def test_min_poly_radical_case():
    mp = min_poly(F5, 8)
    assert mp.case_tag == CASE_RADICAL
    assert mp.trace_coeff.is_zero
    assert mp.norm_coeff == -RootSum.of(canonical(4, 1))
    assert mp.render() == "x^2 - (0)*x + (-z(4,1))"


def test_min_poly_case_tags_cover_all_quadratic_cases():
    # The tag by its definition: the order o of the root in K*/F*, and for
    # 4 | o which cosine-like sum of the 2-power component lies in F.
    tags = set()
    for field, q, n in quadratic_cases(49):
        o = order_of_zeta(field, n)
        if o == 2:
            want = CASE_RADICAL
        elif o % 2 == 1:
            want = CASE_ODD
        elif o % 4 == 2:
            want = CASE_TWO_LOW
        elif cos_sum_in_field(field, 2 ** eps(n, 2), Sign.PLUS):
            want = CASE_TWO_HIGH_PLUS
        else:
            want = CASE_TWO_HIGH_MINUS
        got = min_poly(field, n).case_tag
        assert got == want, (q, n)
        tags.add(got)
    assert tags == {
        CASE_ODD,
        CASE_RADICAL,
        CASE_TWO_LOW,
        CASE_TWO_HIGH_PLUS,
        CASE_TWO_HIGH_MINUS,
    }


def test_memoised_root_data_never_hides_a_refusal():
    # zeta_4 lies in F_5, and 5 divides 10: each query must refuse every time,
    # also after other functions have queried the same (field, n).
    assert not is_quadratic(F5, 4)
    assert kappa_class(F5, canonical(4, 1)).in_field
    assert [j.value for j in galois_image(F5, 4)] == [1]
    for _ in range(2):
        for query in (yogh, min_poly, radical_generator):
            with pytest.raises(PreconditionError, match="not quadratic"):
                query(F5, 4)
        with pytest.raises(PreconditionError, match="characteristic 5 divides"):
            min_poly(F5, 10)


def test_min_poly_trace_is_conjugate_pair_sum():
    # The symbolic trace must literally be zeta_n + zeta_n^yogh and the norm
    # zeta_n^(yogh+1), as exponent-class identities.
    for field, q, n in quadratic_cases(49):
        mp = min_poly(field, n)
        k = mp.yogh.value
        z = canonical(n, 1)
        assert mp.trace_coeff == RootSum.of(z) + RootSum.of(power(z, k))
        assert mp.norm_coeff == RootSum.of(power(z, k + 1))


def test_min_poly_concrete_matches_oracle():
    # The symbolic coefficients, realized in the oracle's F_(q^2), are the
    # trace and norm the oracle finds with the q-power map.
    for field, q, n in quadratic_cases(31):
        mp = min_poly(field, n)
        ext = build_field(field.p, 2 * field.k)
        concrete = (evaluate_sum(ext, mp.trace_coeff), evaluate_sum(ext, mp.norm_coeff))
        assert concrete == brute_min_poly(field.p, field.k, n)


def test_min_poly_trace_shape_expands_to_the_polynomial():
    # The display shape w = unit * cos describes the same polynomial applied
    # to a (possibly different) primitive n-th root w: its expansion
    # u*v + sign * u/v must be the conjugate-pair sum of w itself.
    for field, q, n in quadratic_cases(31):
        mp = min_poly(field, n)
        if mp.shape is None:
            assert mp.case_tag == CASE_RADICAL
            continue
        u, v = mp.shape.unit_root(), mp.shape.cos_root()
        w = multiply(u, v)
        expansion = RootSum.from_terms([(1, w), (mp.shape.sign, multiply(u, power(v, -1)))])
        assert expansion == RootSum.of(w) + RootSum.of(power(w, mp.yogh.value))


def test_min_poly_odd_prime_power_parts():
    # For odd p dividing the order in a quadratic case, the p-power subcase
    # has trace zeta + zeta^(-1) and norm 1.
    for field, q, n in quadratic_cases(49):
        o = order_of_zeta(field, n)
        for p, e in factorize(n):
            if p == 2 or o % p != 0:
                continue
            sub = min_poly(field, p**e)
            z = canonical(p**e, 1)
            assert sub.trace_coeff == RootSum.of(z) + RootSum.of(power(z, -1))
            assert sub.norm_coeff == RootSum.of(canonical(1, 0))
            assert eps(o, p) == e


def test_two_power_order_is_two_or_half():
    # In any quadratic 2-power case the order is 2 or 2^(e-1).
    for field, q, n in quadratic_cases(49):
        e = eps(n, 2)
        if 2**e == n and e >= 1:
            o = order_of_zeta(field, n)
            assert o in (2, 2 ** (e - 1))


def test_yogh_minus_one_and_radical_characterizations():
    # yogh = -1 mod n iff n_F = 1, or n_F = 2 with the plus-sum at the
    # 2-part; the radical tag is equivalent to order 2 and to
    # yogh = 1 + n/2 mod n.
    for field, q, n in quadratic_cases(49):
        mp = min_poly(field, n)
        k = mp.yogh.value
        nf = n_F(field, n)
        if nf == 1:
            minus_one = True
        elif nf == 2:
            minus_one = cos_sum_in_field(field, 2 ** eps(n, 2), Sign.PLUS)
        else:
            minus_one = False
        assert (k == (-1) % n) == minus_one
        is_radical = mp.case_tag == CASE_RADICAL
        assert is_radical == (order_of_zeta(field, n) == 2)
        assert is_radical == (n % 2 == 0 and k == (1 + n // 2) % n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_radical_generator_rational_values():
    gen4 = radical_generator(Q, 4)
    assert evaluate_sum_rational(gen4.square) == Fraction(-4)
    gen3 = radical_generator(Q, 3)
    assert gen3.expression == RootSum.of(canonical(3, 1)) - RootSum.of(canonical(3, 2))
    assert evaluate_sum_rational(gen3.square) == Fraction(-3)
    gen6 = radical_generator(Q, 6)
    assert evaluate_sum_rational(gen6.square) == Fraction(-3)


def test_radical_generator_square_identity_on_finite_fields():
    # (zeta - zeta^yogh)^2 evaluates to the stated square in F_q, and the
    # square lands in the base field while the generator itself does not.
    for field, q, n in quadratic_cases(31):
        if field.characteristic == 2:
            continue
        gen = radical_generator(field, n)
        E = build_field(field.p, 2 * field.k)
        value = evaluate_sum(E, gen.expression)
        square = evaluate_sum(E, gen.square)
        assert value * value == square
        assert value**q == -value  # conjugation negates a radical generator
        assert square**q == square


def test_radical_generator_rejects_char_two():
    with pytest.raises(PreconditionError):
        radical_generator(F2, 3)


def test_artin_schreier_generator_char_two():
    gen = artin_schreier_generator(F2, 3)
    assert gen.numerator == canonical(3, 1)
    y, constant = artin_schreier_values(F2, 3)
    E4 = build_field(2, 2)
    assert constant == E4.one  # x^2 - x + 1 over F_2
    assert y not in (E4.zero, E4.one)


def test_artin_schreier_generator_all_char_two_cases():
    for field, q, n in quadratic_cases(16):
        if field.characteristic != 2:
            continue
        gen = artin_schreier_generator(field, n)
        y, constant = artin_schreier_values(field, n)
        assert y**q != y  # the generator lies outside the base field
        assert constant**q == constant  # constant lies in the base field
        # The constant is norm / trace^2, the denominator being the trace.
        E = constant.field
        trace = evaluate_sum(E, gen.denominator)
        assert constant == evaluate_sum(E, min_poly(field, n).norm_coeff) / (trace * trace)
        with pytest.raises(PreconditionError):
            radical_generator(field, n)


def test_artin_schreier_generator_beyond_the_field_bound_is_symbolic():
    gen = artin_schreier_generator(finite_field(2, 11), 3)
    assert gen.numerator == canonical(3, 1)
    assert str(gen.denominator) == "z(3,1) + z(3,2)"


def test_artin_schreier_generator_rejects_odd_characteristic():
    with pytest.raises(PreconditionError):
        artin_schreier_generator(F5, 8)


# ---------------------------------------------------------------------------
# order 2 / property C2 / nu
# ---------------------------------------------------------------------------


def test_is_order_two_frozen_values():
    assert g2_membership(F5, canonical(8, 1)) is True
    assert g2_membership(F23, canonical(16, 1)) is False
    assert g2_membership(F5, canonical(24, 1)) is False


def test_is_order_two_structure_conditions():
    # Order 2 iff: not in the field, the 2-part contributes t = 2, and the
    # odd part is already in the field.
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            got = g2_membership(field, canonical(n, 1))
            two_part = 2 ** eps(n, 2)
            odd_part = n // two_part
            want = (
                not contains_root(field, canonical(n, 1))
                and (two_part > 1 and t_nF(field, two_part) == 2)
                and contains_root(field, canonical(odd_part, 1))
            )
            assert got == want


def test_has_property_C2_frozen_values():
    assert has_property_C2(F23) == 4
    assert has_property_C2(F7) == 4
    assert has_property_C2(F5) is None
    assert has_property_C2(Q) is None
    assert has_property_C2(F4) is None  # vacuous in characteristic 2


def _nu_sweep(with_rational=False):
    """(field, r) for every F_q with q <= 200 and every prime r != p that is at
    most 13 or divides q^2 - 1; with_rational adds Q with each prime r <= 13."""
    small = {2, 3, 5, 7, 11, 13}
    if with_rational:
        for r in sorted(small):
            yield Q, r
    for p, k, q in prime_powers(200):
        field = finite_field(p, k)
        for r in sorted((small | {r for r, _ in factorize(q * q - 1)}) - {p}):
            yield field, r


def _c2_by_search(field):
    """The property-C2 witness by its definition: the e with the 2^e root
    outside F, its t-value not 2 and its minus sum inside F, searched over
    e <= eps(q^2 - 1, 2) + 1 (3 over the rationals)."""
    if field.characteristic == 2:
        return None
    bound = 3 if field.is_rational else eps(field.q**2 - 1, 2) + 1
    found = [
        e
        for e in range(1, bound + 1)
        if not contains_root(field, canonical(2**e, 1))
        and t_nF(field, 2**e) != 2
        and cos_sum_in_field(field, 2**e, Sign.MINUS)
    ]
    assert len(found) <= 1, found
    return found[0] if found else None


def test_property_C2_witness_conditions():
    for field in [Q] + [finite_field(p, k) for p, k, _ in prime_powers(200)]:
        assert has_property_C2(field) == _c2_by_search(field)
    for field, c2 in ((F23, 4), (F7, 4)):
        e = has_property_C2(field)
        assert e == c2
        n = 2**e
        assert not contains_root(field, canonical(n, 1))
        assert t_nF(field, n) != 2
        assert cos_sum_in_field(field, n, Sign.MINUS)
        # Below the witness, the plus-sum is in the field and the predicate
        # fails.
        for f in range(1, e):
            m = 2**f
            assert cos_sum_in_field(field, t_nF(field, m), Sign.PLUS)
            ok = (
                not contains_root(field, canonical(m, 1))
                and t_nF(field, m) != 2
                and cos_sum_in_field(field, m, Sign.MINUS)
            )
            assert not ok


def test_nu_frozen_values():
    assert nu(F23, 2) == 4
    assert nu_plus(F23, 2) == 3
    assert nu(F5, 2) == 3
    assert nu(Q, 2) == 2
    assert nu(Q, 3) == 1
    assert nu(Q, 5) == 0
    assert nu_plus(Q, 2) == 2
    # nu answers at primes above factorize's bound.
    assert nu(Q, 9223372036854775837) == 0
    assert nu_plus(Q, 9223372036854775837) == 0


def test_nu_at_a_large_prime_of_q2_minus_1_makes_no_rho_call(rho_calls):
    # q^2 - 1 = 2^3 * 3 * 89 * 4804363 * 641382461 for q = 2565529843.
    assert nu(finite_field(2565529843), 641382461) == 1
    assert rho_calls == []


@pytest.mark.parametrize(
    "q, p",
    [(23, 9223372036854775837), (6074001839, 3037000919), (6074001013, 3037000507)],
)
def test_nu_answers_at_prime_powers_above_the_factorize_bound(q, p):
    # p^(nu + 1) exceeds 2^63 here; for odd p, nu = nu_plus = eps(q^2 - 1, p),
    # the sum of the valuations of q - 1 and q + 1.
    field = finite_field(q)
    expected = valuation(q - 1, p) + valuation(q + 1, p)
    assert nu(field, p) == expected
    assert nu_plus(field, p) == expected


def test_nu_rejects_characteristic():
    with pytest.raises(PreconditionError):
        nu(F5, 5)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("p", [4, 1, -3])
def test_nu_rejects_non_primes(field, p):
    for call in (nu, nu_plus):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            call(field, p)


def test_nu_plus_is_max_plus_sum_exponent():
    # Direct re-computation from the definition over a small search bound.
    for field, prime in _nu_sweep():
        bound = eps(field.q**2 - 1, prime) + 2
        best = 0
        for j in range(1, bound + 1):
            if cos_sum_in_field(field, t_nF(field, prime**j), Sign.PLUS):
                best = j
        assert nu_plus(field, prime) == best


def test_nu_adds_one_only_for_two_with_C2():
    for field, prime in _nu_sweep(with_rational=True):
        bump = 1 if (prime == 2 and has_property_C2(field) is not None) else 0
        assert nu(field, prime) == nu_plus(field, prime) + bump


# ---------------------------------------------------------------------------
# kappa_class: the equaliser
# ---------------------------------------------------------------------------


def test_kappa_class_frozen_examples():
    k16 = kappa_class(F23, canonical(16, 1))
    assert k16.branch == BRANCH_MINUS
    assert k16.in_field is True
    k8 = kappa_class(F23, canonical(8, 1))
    assert k8.branch == BRANCH_PLUS
    assert k8.in_field is True
    k58 = kappa_class(F5, canonical(8, 1))
    assert k58.branch == BRANCH_TWO_TIMES
    assert k58.representative.is_zero
    assert k58.in_field is True


def test_kappa_branch_selection():
    # TwoTimes iff the 2-part has order exactly 2; otherwise Minus iff the
    # 2-part exponent equals the C2 witness.
    for p, k, q in prime_powers(31):
        field = finite_field(p, k)
        c2 = has_property_C2(field)
        for n in divisors(q * q - 1):
            got = kappa_class(field, canonical(n, 1)).branch
            two_part = 2 ** eps(n, 2)
            if order_of_zeta(field, two_part) == 2:
                assert got == BRANCH_TWO_TIMES
            elif c2 is not None and eps(n, 2) == c2:
                assert got == BRANCH_MINUS
            else:
                assert got == BRANCH_PLUS


def test_kappa_equaliser_characterizes_quadratic():
    # in_field and not already present <=> the extension has degree 2.
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            z = canonical(n, 1)
            kc = kappa_class(field, z)
            lhs = kc.in_field and not contains_root(field, z)
            assert lhs == is_quadratic(field, n)


def _fixed_by_galois(field, s):
    """Whether the formal sum s is fixed by the Galois group of F(mu_L)/F, for
    L = s.lcm_order(): by every unit exponent map mod L over Q (m = 1 fixes
    every sum), by z -> z^q over F_q."""
    if field.is_rational:
        big = s.lcm_order()
        return all(s.map_exponent(m) == s for m in range(2, big) if gcd(m, big) == 1)
    return s.map_exponent(field.q) == s


def test_sum_in_field_matches_the_galois_group_on_kappa_representatives():
    fields = [Q] + [finite_field(p, k) for p, k, _ in prime_powers(49)]
    for field in fields:
        for n in range(1, 200):
            if field.characteristic and n % field.characteristic == 0:
                continue
            rep = kappa_class(field, canonical(n, 1)).representative
            assert _sum_in_field(field, rep) == _fixed_by_galois(field, rep), (field, n)


def test_sum_in_field_matches_the_galois_group_on_two_term_sums():
    for field in (Q, F5, finite_field(3, 2)):
        roots = [
            canonical(d, j)
            for d in range(1, 25)
            if not field.characteristic or d % field.characteristic
            for j in range(d)
            if gcd(j, d) == 1
        ]
        # Swapping a and b leaves a + b alone and negates a - b, so those two
        # shapes need only a <= b.
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                for ca, cb in ((1, 1), (1, -1), (2, -1)) if i <= j else ((2, -1),):
                    s = RootSum.from_terms([(ca, a), (cb, b)])
                    assert _sum_in_field(field, s) == _fixed_by_galois(field, s), s


def test_kappa_equaliser_characterizes_quadratic_over_rationals():
    for n in range(1, 61):
        z = canonical(n, 1)
        kc = kappa_class(Q, z)
        lhs = kc.in_field and not contains_root(Q, z)
        assert lhs == is_quadratic(Q, n)
