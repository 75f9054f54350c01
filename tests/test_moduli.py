"""Tests for the moduli layer: per-prime and global descriptions of the
order-bounded roots, the order-2 group with its twisted product, field
equality, the maximal prime-class partition, and the square-class /
Artin-Schreier embeddings.
"""

import sys

import pytest

from cyclokit import (
    RATIONAL,
    ArtinSchreierClass,
    FiniteSquareClass,
    Mu,
    PreconditionError,
    RationalSquareClass,
    artin_schreier_generator,
    canonical,
    chi_as,
    chi_rad,
    contains,
    contains_root,
    describe,
    ell,
    eps,
    factorize,
    field_equal,
    finite_field,
    full_moduli,
    g2,
    g2_membership,
    g2_star,
    is_prime,
    is_quadratic,
    kappa_class,
    m2_membership,
    m2p,
    min_poly,
    multiply,
    nu,
    order_of_zeta,
    quad_moduli_summary,
    radical_generator,
    s_max,
    s_n,
)
from cyclokit.oracle import (
    brute_moduli,
    build_field,
    evaluate_sum_rational,
)
from cyclokit.roots import enumerate as enumerate_subset

from conftest import (
    absolute_trace_bit,
    divisors,
    euler_is_residue,
    field_elements,
    inseparable_orbit_related,
    prime_powers,
    squarefree_kernel,
)


Q = RATIONAL
F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F7 = finite_field(7)
F23 = finite_field(23)


# ---------------------------------------------------------------------------
# m2p: per-prime moduli
# ---------------------------------------------------------------------------


def test_m2p_frozen_values():
    d = m2p(F5, 2)
    assert describe(d.presentation) == "mu(8) - mu(4)"
    assert d.cardinality == 4
    assert len(d.classes) == 1
    d3 = m2p(F5, 3)
    assert describe(d3.presentation) == "mu(3) - mu(1)"
    assert d3.cardinality == 2
    assert len(d3.classes) == 1
    dq = m2p(Q, 5)
    assert dq.cardinality == 0
    assert len(dq.classes) == 0


def test_m2p_rejects_characteristic():
    with pytest.raises(PreconditionError):
        m2p(F5, 5)


def test_m2p_presentation_is_nu_vs_ell():
    for p, k, q in prime_powers(31):
        field = finite_field(p, k)
        for prime in (2, 3, 5, 7):
            if prime == p:
                continue
            d = m2p(field, prime)
            v = nu(field, prime)
            l = ell(field, prime)
            assert describe(d.presentation) == f"mu({prime**v}) - mu({prime**l})"
            assert d.cardinality == prime**v - prime**l
            assert len(d.classes) == (0 if v == l else 1)


def _is_power_of(n, r):
    """Whether n = r^i for some i >= 1."""
    m = n
    while m % r == 0:
        m //= r
    return n > 1 and m == 1


def test_m2p_exponents_match_the_oracle_scan():
    # The r-power orders among the roots of degree 2 that the oracle finds by
    # scanning F_(q^2) are exactly r^i with ell < i <= nu, and m2p counts them.
    for p, k, q in prime_powers(32):
        field = finite_field(p, k)
        scanned = brute_moduli(p, k)
        for r in (2, 3, 5, 7):
            if r == p:
                continue
            entries = [n for n, _ in scanned if _is_power_of(n, r)]
            v = nu(field, r)
            l = ell(field, r)
            assert set(entries) == {r**i for i in range(l + 1, v + 1)}
            assert m2p(field, r).cardinality == len(entries)


def test_m2p_membership_agrees_with_quadratic_p_powers():
    for field in (F5, F7, F23, Q):
        for prime in (2, 3, 5):
            if field.characteristic == prime:
                continue
            member = set(enumerate_subset(m2p(field, prime).presentation))
            bound = prime**5
            for e in range(0, 6):
                n = prime**e
                if bound < n:
                    continue
                z = canonical(n, 1)
                assert (z in member) == is_quadratic(field, n)


# ---------------------------------------------------------------------------
# g2 and its twisted product
# ---------------------------------------------------------------------------


def test_g2_frozen_values():
    d5 = g2(F5)
    assert describe(d5.presentation) == "prim(8) * mu(1)"
    assert d5.cardinality == 4
    d7 = g2(F7)
    assert describe(d7.presentation) == "prim(4) * mu(3)"
    assert d7.cardinality == 6
    dq = g2(Q)
    assert describe(dq.presentation) == "prim(4) * mu(1)"
    assert set(enumerate_subset(dq.presentation)) == {canonical(4, 1), canonical(4, 3)}
    d2 = g2(F2)
    assert d2.cardinality == 0


def test_g2_membership_is_order_two():
    for p, k, q in prime_powers(31):
        field = finite_field(p, k)
        enum = set(enumerate_subset(g2(field).presentation))
        for n in divisors(q * q - 1):
            z = canonical(n, 1)
            got = g2_membership(field, z)
            assert got == (order_of_zeta(field, n) == 2)
            assert got == (z in enum)


def test_g2_membership_frozen_values():
    assert g2_membership(F5, canonical(8, 1)) is True
    assert g2_membership(F5, canonical(24, 1)) is False
    assert g2_membership(Q, canonical(4, 1)) is True


def test_g2_star_frozen_values():
    assert g2_star(F5, canonical(8, 3), canonical(8, 5)) == canonical(8, 7)
    z1 = multiply(canonical(4, 1), canonical(3, 1))
    z2 = multiply(canonical(4, 3), canonical(3, 2))
    assert g2_star(F7, z1, z2) == canonical(4, 3)


def test_g2_star_identity_element():
    for field in (F5, F7, F23, Q):
        l = ell(field, 2)
        e = canonical(2 ** (l + 1), 1)
        for z in enumerate_subset(g2(field).presentation):
            assert g2_star(field, e, z) == z
            assert g2_star(field, z, e) == z


def test_g2_star_rejects_non_members():
    with pytest.raises(PreconditionError):
        g2_star(F5, canonical(3, 1), canonical(8, 1))


def test_g2_star_group_axioms_by_enumeration():
    for q in (5, 7, 13):
        field = finite_field(q)
        elems = list(enumerate_subset(g2(field).presentation))
        assert len(elems) == q - 1
        l = ell(field, 2)
        e = canonical(2 ** (l + 1), 1)
        star = lambda a, b: g2_star(field, a, b)
        for a in elems:
            assert star(a, e) == a
            assert any(star(a, b) == e for b in elems)  # inverses
            for b in elems:
                ab = star(a, b)
                assert ab in elems  # closure
                for c in elems:
                    assert star(ab, c) == star(a, star(b, c))


# ---------------------------------------------------------------------------
# field_equal
# ---------------------------------------------------------------------------


def test_field_equal_frozen_values():
    assert field_equal(F5, 3, 8) is True
    assert field_equal(Q, 3, 4) is False
    assert field_equal(Q, 3, 6) is True


def test_field_equal_degree_one_cases():
    assert field_equal(F5, 2, 4) is True
    assert field_equal(Q, 1, 2) is True


def test_field_equal_rejects_unsupported_degrees():
    with pytest.raises(PreconditionError):
        field_equal(Q, 5, 3)  # degree 4 on the left
    with pytest.raises(PreconditionError):
        field_equal(F5, 3, 4)  # degree 2 vs degree 1


def test_field_equal_all_quadratic_pairs_over_finite_fields():
    # Over F_q every quadratic cyclotomic extension is the one quadratic
    # extension F_{q^2}, so field_equal must hold for every quadratic pair.
    for p, k, q in prime_powers(27):
        field = finite_field(p, k)
        ns = [n for n in divisors(q * q - 1) if (q - 1) % n != 0]
        for a in ns:
            for b in ns:
                assert field_equal(field, a, b) is True


def test_rational_pairs_partition_by_s_max_class():
    # Over the rationals the quadratic cyclotomic extensions split into the
    # two classes {4} and {3, 6}.
    quad = [3, 4, 6]
    for a in quad:
        for b in quad:
            same = {a, b} <= {3, 6} or a == b
            assert field_equal(Q, a, b) == same


def test_radical_two_power_has_no_larger_equal_field():
    # Where zeta_(2^e) generates a radical quadratic extension (e > 2), no
    # strictly larger 2-power gives the same field: the degree jumps.
    for p, k, q in prime_powers(49):
        if p == 2:
            continue
        field = finite_field(p, k)
        emax = eps(q * q - 1, 2)
        for e in range(3, emax + 1):
            if not is_quadratic(field, 2**e) or order_of_zeta(field, 2**e) != 2:
                continue
            for f in range(e + 1, emax + 3):
                try:
                    assert field_equal(field, 2**e, 2**f) is False
                except PreconditionError:
                    pass  # degree above 2: not even comparable, hence not equal


# ---------------------------------------------------------------------------
# s_n / s_max
# ---------------------------------------------------------------------------


def test_s_n_frozen_values():
    assert s_n(F5, 24) == {2, 3}
    assert s_n(Q, 4) == {2}
    assert s_n(F5, 4) == frozenset()


def test_s_max_finite_fields():
    part5 = s_max(F5)
    assert [sorted(c.primes) for c in part5.classes] == [[2, 3]]
    part7 = s_max(F7)
    assert [sorted(c.primes) for c in part7.classes] == [[2]]
    part23 = s_max(F23)
    assert [sorted(c.primes) for c in part23.classes] == [[2, 3]]


def test_s_max_class_primes_match_exponent_jump():
    for p, k, q in prime_powers(31):
        field = finite_field(p, k)
        (cls,) = s_max(field).classes
        want = set()
        for prime, _ in factorize(q * q - 1):
            if eps(q * q - 1, prime) > eps(q - 1, prime):
                want.add(prime)
        assert set(cls.primes) == want


def test_s_max_rational():
    part = s_max(Q)
    assert [sorted(c.primes) for c in part.classes] == [[2], [3]]
    two, three = part.classes
    assert two.representative_n == 4
    assert three.representative_n == 3
    assert len(enumerate_subset(two.presentation)) == 2
    assert len(enumerate_subset(three.presentation)) == 4
    assert describe(two.presentation) == "(mu(4) * mu(1)) - (mu(2) * mu(1))"
    assert describe(three.presentation) == "(mu(3) * mu(2)) - (mu(1) * mu(2))"
    assert two.minpoly == "x^2 - (0)*x + (z(1,0))"
    assert three.minpoly == "x^2 - (z(3,1) + z(3,2))*x + (z(1,0))"


def test_s_max_classes_are_disjoint():
    for field in (Q, F5, F7, F23):
        classes = s_max(field).classes
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert not (set(a.primes) & set(b.primes))


def test_s_max_union_is_full_moduli():
    # The union over classes of (mu_M - mu_(M_F)) is exactly the full
    # moduli enumeration.
    for field in (Q, F3, F5, F7, F23):
        union = set()
        for cls in s_max(field).classes:
            union |= set(enumerate_subset(cls.presentation))
        assert union == set(enumerate_subset(full_moduli(field).presentation))


def test_field_equal_iff_same_s_max_class():
    # Quadratic zeta_n, zeta_m generate equal fields exactly when they fall
    # in the same class enumeration.
    for field in (Q, F5, F7):
        classes = [set(enumerate_subset(c.presentation)) for c in s_max(field).classes]
        if field.is_rational:
            ns = [3, 4, 6]
        else:
            q = field.q
            ns = [n for n in divisors(q * q - 1) if (q - 1) % n != 0]
        for a in ns:
            for b in ns:
                za, zb = canonical(a, 1), canonical(b, 1)
                same = any(za in c and zb in c for c in classes)
                assert field_equal(field, a, b) == same


# ---------------------------------------------------------------------------
# m2_membership / full_moduli
# ---------------------------------------------------------------------------


def test_m2_membership_frozen_values():
    assert m2_membership(F23, canonical(48, 1)) is True
    assert m2_membership(F5, canonical(4, 1)) is False
    assert m2_membership(Q, canonical(6, 1)) is True


def test_full_moduli_frozen_values():
    d5 = full_moduli(F5)
    assert describe(d5.presentation) == "mu(24) - mu(4)"
    assert d5.cardinality == 20
    d3 = full_moduli(F3)
    assert describe(d3.presentation) == "mu(8) - mu(2)"
    assert d3.cardinality == 6
    dq = full_moduli(Q)
    assert describe(dq.presentation) == "prim(3) | prim(4) | prim(6)"
    assert dq.cardinality == 6
    want = {canonical(3, 1), canonical(3, 2), canonical(4, 1), canonical(4, 3), canonical(6, 1), canonical(6, 5)}
    assert set(enumerate_subset(dq.presentation)) == want


def test_moduli_triple_equivalence_small_fields():
    # degree test == equaliser test == difference presentation, elementwise.
    # (The full field list runs in the acceptance suite.)
    for p, k, q in prime_powers(9):
        field = finite_field(p, k)
        pres = full_moduli(field).presentation
        for z in enumerate_subset(Mu(q * q - 1)):
            n = z.denominator
            by_degree = is_quadratic(field, n)
            kc = kappa_class(field, z)
            by_equaliser = kc.in_field and not contains_root(field, z)
            by_presentation = contains(pres, z)
            assert by_degree == by_equaliser == by_presentation == m2_membership(field, z)


def test_m2_membership_over_rationals_matches_degree():
    for n in range(1, 61):
        z = canonical(n, 1)
        assert m2_membership(Q, z) == is_quadratic(Q, n)


def test_moduli_render_min_poly_without_building_fields():
    # Only the rendered minimal polynomials reach the moduli descriptions, and
    # the generators and their classes are formal sums, so no explicit field
    # is built.  F_16 uses 17 (a prime dividing q + 1) for its per-prime
    # moduli, since 2 is its characteristic; the root of that prime order
    # generates the quadratic extension of either field.
    for field, prime in ((finite_field(1021), 2), (finite_field(2, 4), 17)):
        n = 8 if prime == 2 else prime
        build_field.cache_clear()
        assert s_max(field).classes
        assert full_moduli(field).classes
        g2(field)
        assert m2p(field, prime).classes
        if field.characteristic == 2:
            artin_schreier_generator(field, n)
            assert chi_as(field, n).trace_bit == 1
        else:
            radical_generator(field, n)
            assert chi_rad(field, n).is_residue is False
        assert build_field.cache_info().misses == 0


# ---------------------------------------------------------------------------
# chi_rad / chi_as: embeddings into the quadratic-extension classes
# ---------------------------------------------------------------------------


def test_chi_rad_rational_values():
    assert chi_rad(Q, 3) == RationalSquareClass(-3)
    assert chi_rad(Q, 4) == RationalSquareClass(-1)
    assert chi_rad(Q, 6) == RationalSquareClass(-3)
    for n in (3, 4, 6):
        assert not chi_rad(Q, n).is_trivial


def test_chi_rad_finite_nonresidue():
    cls = chi_rad(F23, 16)
    assert isinstance(cls, FiniteSquareClass)
    assert cls.is_residue is False
    assert not cls.is_trivial


def test_chi_rad_always_nontrivial():
    # The symbolic residue bit agrees with Euler's criterion on the square's
    # value, and is always a non-residue.
    for p, k, q in prime_powers(31):
        if p == 2:
            continue
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if (q - 1) % n != 0:
                cls = chi_rad(field, n)
                assert cls.is_residue == euler_is_residue(field, n)
                assert not cls.is_trivial


def test_chi_rad_square_class_is_the_generator_square():
    # The class is represented by the square of the radical generator: over
    # the rationals, its signed squarefree kernel.
    for n in (3, 4, 6):
        value = evaluate_sum_rational(radical_generator(Q, n).square)
        kernel = squarefree_kernel(value.numerator * value.denominator)
        assert chi_rad(Q, n) == RationalSquareClass(kernel)


def test_chi_rad_answers_beyond_the_oracle_bound():
    # 1031^2 exceeds the explicit-field bound; the class is symbolic.
    assert chi_rad(finite_field(1031), 8) == FiniteSquareClass(False)


def test_chi_rad_rejects_char_two_and_non_quadratic():
    with pytest.raises(PreconditionError):
        chi_rad(F4, 5)
    with pytest.raises(PreconditionError):
        chi_rad(F5, 4)


def test_chi_as_frozen_values():
    cls = chi_as(F2, 3)
    assert isinstance(cls, ArtinSchreierClass)
    assert cls.trace_bit == 1
    assert chi_as(F4, 5).trace_bit == 1
    assert chi_as(finite_field(2, 3), 3).trace_bit == 1


def test_chi_as_always_nontrivial():
    for k in (1, 2, 3, 4):
        field = finite_field(2, k)
        q = 2**k
        for n in divisors(q * q - 1):
            if (q - 1) % n != 0:
                cls = chi_as(field, n)
                assert cls.trace_bit == absolute_trace_bit(field, n) == 1
                assert not cls.is_trivial


def test_chi_as_answers_beyond_the_oracle_bound():
    # 2^22 exceeds the explicit-field bound; the class is symbolic.
    assert chi_as(finite_field(2, 11), 3) == ArtinSchreierClass(1)


def test_chi_as_rejects_odd_characteristic():
    with pytest.raises(PreconditionError):
        chi_as(F5, 8)


# ---------------------------------------------------------------------------
# quadratic extension class counts / inseparable orbit
# ---------------------------------------------------------------------------


def test_quad_moduli_summary_values():
    assert quad_moduli_summary(F5) == {"separable": 1, "inseparable": 0}
    assert quad_moduli_summary(F4) == {"separable": 1, "inseparable": 0}
    summary = quad_moduli_summary(Q)
    assert summary["inseparable"] == 0
    assert "squarefree" in summary["separable"]


def test_inseparable_orbit_collapses_on_perfect_fields():
    # a ~ c^2 a' - b^2: over a perfect field of characteristic 2 every pair
    # is related, so the orbit space is a point and contributes no classes.
    E = build_field(2, 2)
    elems = field_elements(E)
    for a in elems:
        for b in elems:
            assert inseparable_orbit_related(E, a, b)


def test_queries_over_f271_prove_no_prime_inside_eps(monkeypatch):
    # One lib-sweep field query and every order query over F_271.  Only the
    # public entry of nu proves each queried prime; no is_prime call comes
    # from eps, whether through g2, has_property_C2 or ell.
    from cyclokit import field_profile, galois_image, numtheory
    field = finite_field(271)
    callers = []

    def counted(n):
        callers.append(sys._getframe(1).f_code.co_name)
        return is_prime(n)

    for module in (numtheory, field_profile):
        monkeypatch.setattr(module, "is_prime", counted)
    full_moduli(field), s_max(field), g2(field)
    primes = (2, 3, 5, 17)  # the primes of 271^2 - 1 = 2^5 * 3^3 * 5 * 17
    for p in primes:
        nu(field, p)
    for n in (d for d in range(1, 271**2) if (271**2 - 1) % d == 0 and is_quadratic(field, d)):
        min_poly(field, n), kappa_class(field, canonical(n, 1)), galois_image(field, n)
        s_n(field, n), field_equal(field, n, 271**2 - 1), radical_generator(field, n)
    assert callers == ["_check_prime_for"] * len(primes)
    with pytest.raises(ValueError, match="p must be prime"):
        ell(field, 4)
    with pytest.raises(ValueError, match="p must be prime"):
        nu(RATIONAL, 4)
