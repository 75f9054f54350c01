"""Acceptance suite: end-to-end checks of the package's headline claims.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to
see them on success) and then asserts.  Sub-checks accumulate failure
messages so a red criterion reports every broken piece at once.  Criteria
with a time budget measure wall-clock time with ``perf_counter`` and fail if
the budget is exceeded; the budgets are fixed here and are not tunable.
"""

from math import gcd, lcm
from time import perf_counter

from cyclokit import (
    RATIONAL,
    Mu,
    RationalSquareClass,
    RootSum,
    canonical,
    chi_as,
    chi_rad,
    contains,
    contains_root,
    describe,
    ell,
    eps,
    euler_phi,
    field_equal,
    finite_field,
    fixing_subgroup,
    full_moduli,
    galois_image,
    has_property_C2,
    is_quadratic,
    kappa_class,
    min_poly,
    multiply,
    n_F,
    nu,
    order_of_zeta,
    power,
    s_max,
    yogh,
)
from cyclokit.oracle import brute_min_poly, build_field, evaluate_sum
from cyclokit.roots import enumerate as enumerate_subset

from conftest import (
    absolute_trace_bit,
    divisors,
    euler_is_residue,
    odd_prime_powers,
    parts_product,
    prime_powers,
)


Q = RATIONAL


def _verdict(num, label, failures, elapsed=None, budget=None):
    if budget is not None and elapsed >= budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    timing = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else ""
    marker = "FAIL" if failures else "PASS"
    print(f"[{marker}] criterion {num}: {label}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def _realized(field, mp):
    """The (trace, norm) of a symbolic minimal polynomial in the oracle's F_(q^2)."""
    ext = build_field(field.p, 2 * field.k)
    return evaluate_sum(ext, mp.trace_coeff), evaluate_sum(ext, mp.norm_coeff)


def test_criterion_1_worked_minimal_polynomials_over_f23():
    failures = []
    start = perf_counter()
    field = finite_field(23)

    mp8 = min_poly(field, 8)
    z8 = canonical(8, 1)
    _expect(
        failures,
        mp8.trace_coeff == RootSum.of(z8) + RootSum.of(power(z8, -1)),
        "n=8 trace is not z8 + z8^-1",
    )
    _expect(
        failures,
        mp8.norm_coeff == RootSum.of(canonical(1, 0)),
        "n=8 constant term is not +1",
    )
    _expect(
        failures,
        _realized(field, mp8) == brute_min_poly(23, 1, 8),
        "n=8 oracle mismatch",
    )

    mp16 = min_poly(field, 16)
    z16 = canonical(16, 1)
    _expect(
        failures,
        mp16.trace_coeff == RootSum.of(z16) - RootSum.of(power(z16, -1)),
        "n=16 trace is not z16 - z16^-1",
    )
    _expect(
        failures,
        mp16.norm_coeff == -RootSum.of(canonical(1, 0)),
        "n=16 constant term is not -1",
    )
    _expect(
        failures,
        _realized(field, mp16) == brute_min_poly(23, 1, 16),
        "n=16 oracle mismatch",
    )

    elapsed = perf_counter() - start
    _verdict(1, "worked minimal polynomials over F_23", failures, elapsed, 1.0)


def test_criterion_2_eighth_roots_over_f5_and_f13():
    failures = []
    start = perf_counter()
    for q in (5, 13):
        field = finite_field(q)
        _expect(
            failures,
            contains_root(field, canonical(4, 1)),
            f"zeta_4 not detected inside F_{q}",
        )
        _expect(
            failures,
            order_of_zeta(field, 4) == 1,
            f"zeta_4 degree flag over F_{q} is not 1",
        )
        _expect(failures, is_quadratic(field, 8), f"F_{q}(zeta_8) not quadratic")
        _expect(
            failures,
            order_of_zeta(field, 8) == 2,
            f"zeta_8 degree flag over F_{q} is not 2",
        )
        _expect(
            failures,
            ell(field, 2) == 2,
            f"ell at 2 over F_{q} is not 2",
        )
    elapsed = perf_counter() - start
    _verdict(2, "F_(q^2) = F_q(zeta_8) with zeta_4 in F_q for q = 5, 13", failures, elapsed, 1.0)


def test_criterion_3_rational_classification():
    failures = []
    start = perf_counter()
    _expect(
        failures,
        len(s_max(Q).classes) == 2,
        "number of isomorphism classes over Q is not 2",
    )
    full = full_moduli(Q)
    want = {canonical(n, j) for n in (3, 4, 6) for j in range(1, n) if gcd(j, n) == 1}
    _expect(failures, full.cardinality == 6, "rational moduli cardinality is not 6")
    _expect(
        failures,
        set(enumerate_subset(full.presentation)) == want,
        "rational moduli are not prim(3) | prim(4) | prim(6)",
    )
    _expect(failures, field_equal(Q, 3, 6), "Q(zeta_3) != Q(zeta_6)")
    _expect(failures, not field_equal(Q, 3, 4), "Q(zeta_3) == Q(zeta_4)")
    elapsed = perf_counter() - start
    _verdict(3, "two rational classes; moduli prim(3) | prim(4) | prim(6)", failures, elapsed, 1.0)


def test_criterion_4_conjugation_exponent_is_frobenius():
    failures = []
    start = perf_counter()
    exceptions = 0
    for p, k, q in prime_powers(100):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if not is_quadratic(field, n):
                continue
            if yogh(field, n).value % n != q % n:
                exceptions += 1
    _expect(failures, exceptions == 0, f"{exceptions} Frobenius exceptions")
    elapsed = perf_counter() - start
    _verdict(4, "yogh = q mod n for every quadratic case, q <= 100", failures, elapsed, 30.0)


def test_criterion_5_moduli_triple_equivalence():
    failures = []
    start = perf_counter()
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 23, 25, 27):
        (p, k, _), = [t for t in prime_powers(q) if t[2] == q]
        field = finite_field(p, k)
        pres = full_moduli(field).presentation
        _expect(
            failures,
            describe(pres) == f"mu({q * q - 1}) - mu({q - 1})",
            f"q={q}: presentation is not the mu-difference",
        )
        for z in enumerate_subset(Mu(q * q - 1)):
            by_degree = is_quadratic(field, z.denominator)
            kc = kappa_class(field, z)
            by_equaliser = kc.in_field and not contains_root(field, z)
            by_presentation = contains(pres, z)
            if not (by_degree == by_equaliser == by_presentation):
                failures.append(f"q={q}, root {z}: tests disagree")
    elapsed = perf_counter() - start
    _verdict(5, "degree test = equaliser test = mu-difference, elementwise", failures, elapsed, 60.0)


def test_criterion_6_two_adic_quadratic_reach():
    failures = []
    for p, k, q in odd_prime_powers(100):
        field = finite_field(p, k)
        l = eps(q - 1, 2)
        if l != 1:
            expected = l + 1
        else:
            # Largest k with F(zeta_(2^k)) = F(zeta_4), scanned via field
            # equality of the quadratic 2-power extensions.
            expected = 2
            while is_quadratic(field, 2 ** (expected + 1)) and field_equal(
                field, 4, 2 ** (expected + 1)
            ):
                expected += 1
            _expect(
                failures,
                expected == 1 + eps(q + 1, 2),
                f"q={q}: equaliser scan disagrees with 1 + eps(q+1, 2)",
            )
        _expect(
            failures,
            nu(field, 2) == expected,
            f"q={q}: nu at 2 is not the branch formula value {expected}",
        )
    for q, want in ((23, 4), (7, 4)):
        got = has_property_C2(finite_field(q))
        _expect(failures, got == want, f"c2(F_{q}) = {got}, want {want}")
    _expect(failures, has_property_C2(finite_field(5)) is None, "F_5 unexpectedly has c2")
    _verdict(6, "nu at 2 matches its branch formula; c2 = 4 for F_23, F_7; none for F_5", failures)


def test_criterion_7_fixing_subgroup_size_and_galois_containment():
    failures = []
    for n in range(1, 201):
        for m in divisors(n):
            got = len(fixing_subgroup(n, m))
            want = euler_phi(n) // euler_phi(m)
            if got != want:
                failures.append(f"|U_{n}({m})| = {got}, want {want}")
    cases = [(finite_field(p, k), q) for p, k, q in prime_powers(49)]
    cases.append((Q, None))
    for field, q in cases:
        ns = divisors(q * q - 1) if q is not None else [3, 4, 6]
        for n in ns:
            if not is_quadratic(field, n):
                continue
            image = {j.value for j in galois_image(field, n)}
            subgroup = {j.value for j in fixing_subgroup(n, n_F(field, n))}
            if not image <= subgroup:
                failures.append(f"Galois image not inside U_{n}(n_F) over {field}")
    _verdict(7, "|U_n(m)| = phi(n)/phi(m) for n <= 200; Galois image contained", failures)


def test_criterion_8_square_class_and_artin_schreier_embeddings():
    failures = []
    for n, kernel in ((3, -3), (4, -1), (6, -3)):
        got = chi_rad(Q, n)
        _expect(
            failures,
            got == RationalSquareClass(kernel) and not got.is_trivial,
            f"chi_rad(Q, {n}) is not the class of {kernel}",
        )
    # Finite fields: the symbolic classes against Euler's criterion and the
    # absolute trace on the generators' values in the oracle's F_(q^2).
    for p, k, q in odd_prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if not is_quadratic(field, n):
                continue
            cls = chi_rad(field, n)
            if cls.is_trivial:
                failures.append(f"chi_rad trivial for q={q}, n={n}")
            if cls.is_residue != euler_is_residue(field, n):
                failures.append(f"chi_rad disagrees with Euler's criterion for q={q}, n={n}")
    for k in (1, 2, 3, 4):
        field = finite_field(2, k)
        q = 2**k
        for n in divisors(q * q - 1):
            if not is_quadratic(field, n):
                continue
            bit = chi_as(field, n).trace_bit
            if bit != 1:
                failures.append(f"chi_as trace bit not 1 for q={q}, n={n}")
            if bit != absolute_trace_bit(field, n):
                failures.append(f"chi_as disagrees with the absolute trace for q={q}, n={n}")
    _verdict(8, "chi_rad lands on nontrivial square classes; chi_as trace bit 1", failures)


def test_criterion_9_product_structure_of_roots():
    failures = []
    fractions = [(j, n) for n in range(1, 61) for j in range(n) if gcd(j, n) == 1]
    for a, n in fractions:
        za = canonical(n, a)
        for b, m in fractions:
            got = multiply(za, canonical(m, b))
            # a/n + b/m mod 1, by integer cross-multiplication
            num, den = (a * m + b * n) % (n * m), n * m
            g = gcd(num, den)
            if (got.numerator, got.denominator) != (num // g, den // g):
                failures.append(f"multiply mismatch at {a}/{n} + {b}/{m}")
    for n in range(1, 61):
        wn = parts_product(n)
        for m in range(1, 61):
            z = multiply(wn, parts_product(m))
            big = lcm(n, m)
            en, em = eps(n, 2), eps(m, 2)
            want = big // 2 if (en == em and en > 0) else big
            if z.denominator != want:
                failures.append(f"product order of parts reps ({n}, {m}) is not {want}")
    _verdict(9, "multiply is exponent addition; product-order dichotomy exact", failures)
