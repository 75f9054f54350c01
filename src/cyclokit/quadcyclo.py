"""Quadratic cyclotomic extensions: detection, conjugation exponents, minimal
polynomials, generators, and the kappa classification data.

Central objects, for a base field F and a primitive n-th root of unity z
(characteristic coprime to n):

* ``bounded_degree`` — the degree of F(z) over F, collapsed to 1, 2, or 3
  (">2") and read off |mu(F)| and each |mu(K)| by remainders, and
  ``is_quadratic``, whether that degree is 2;
* ``yogh`` — the conjugation exponent: the unique k mod n, coprime to n,
  such that z + z^k and z^(k+1) both lie in F.  Equivalently, the nontrivial
  automorphism of the extension sends z to z^k.  On each coherent
  prime-power component of z it acts by an explicitly known exponent (fixed
  for components lying in F; inversion for odd components outside F; for the
  2-power component one of inversion, negated inversion, or multiplication by
  the order-2 root, decided by which cosine-like sum lies in F), and the
  Chinese remainder theorem glues the components into the unique exponent
  mod n.  The component p^e of n has order p^e / gcd(p^e, n_F) in K*/F*,
  the p-part of the root's order o = n / n_F, so every component is read off
  o by gcds and n is never factored;
* ``min_poly`` — x^2 - (z + z^yogh) x + z^(yogh+1) with symbolic coefficients
  (formal sums of roots of unity), a case tag, and a structured display
  shape.  It is the one derivation of yogh, memoised per (field, n), so
  ``yogh``, the generators and the Galois image all read the same value;
* radical and Artin-Schreier generators for the extension, as formal sums;
* ``t_nF``; the property-C2 witness and the nu exponents, read off the
  valuations of each |mu(K)| with no search and no factorization, so they
  answer for every prime that ``numtheory.is_prime`` decides; and
  ``kappa_class``, the per-element classification datum whose vanishing cuts
  out exactly the degree-2 roots of unity.

Every datum is symbolic: no explicit field is built here.  The CLI realizes
concrete values in F_(q^2) with the brute-force oracle, which this module does
not import, and it writes every report: no value type here has a JSON form.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ._value import Value
from .errors import PreconditionError
from .field_profile import (
    ExtendedNat,
    FieldProfile,
    Sign,
    _check_coprime_to_char,
    _check_prime_for,
    cos_sum_in_field,
)
from .numtheory import ResidueClass, crt, eps
from .roots import RootOfUnity, RootSum, canonical, identity, multiply, power

__all__ = [
    "BRANCH_MINUS",
    "BRANCH_PLUS",
    "BRANCH_TWO_TIMES",
    "CASE_ODD",
    "CASE_RADICAL",
    "CASE_TWO_HIGH_MINUS",
    "CASE_TWO_HIGH_PLUS",
    "CASE_TWO_LOW",
    "ArtinSchreierGenerator",
    "KappaClass",
    "QuadMinPoly",
    "RadicalGenerator",
    "TraceShape",
    "artin_schreier_generator",
    "bounded_degree",
    "has_property_C2",
    "is_quadratic",
    "kappa_class",
    "min_poly",
    "nu",
    "nu_plus",
    "radical_generator",
    "t_nF",
    "yogh",
]

# Case tags for the quadratic minimal polynomial, by the order o of the root
# in K*/F*: Radical (o = 2), Odd (o odd), TwoLow (o = 2 * odd > 2),
# TwoHighPlus / TwoHighMinus (4 | o, split by which cosine-like sum of the
# 2-power component lies in F).
CASE_ODD = "Odd"
CASE_TWO_HIGH_PLUS = "TwoHighPlus"
CASE_TWO_LOW = "TwoLow"
CASE_TWO_HIGH_MINUS = "TwoHighMinus"
CASE_RADICAL = "Radical"

BRANCH_PLUS = "PlusBranch"
BRANCH_MINUS = "MinusBranch"
BRANCH_TWO_TIMES = "TwoTimesBranch"

#: Distinct (field, n) whose quadratic root data :func:`min_poly` keeps.
_ROOT_DATA_CACHE_SIZE = 4096


def is_quadratic(field: FieldProfile, n: int) -> bool:
    """Whether adjoining a primitive n-th root of unity has degree 2 over F."""
    return bounded_degree(field, n) == 2


def bounded_degree(field: FieldProfile, n: int) -> int:
    """The degree of F(z_n)/F collapsed to 1, 2, or 3 (">2"), without
    factoring n: 1 when n divides |mu(F)|; 2 when n divides |mu(K)| for a
    quadratic cyclotomic extension K (q^2 - 1 over F_q; 4 or 6 over Q, so
    n in {3, 4, 6}); else 3."""
    _check_coprime_to_char(field, n)
    if field.roots_of_unity % n == 0:
        return 1
    for big, _ in field.quadratic_extensions:
        if big % n == 0:
            return 2
    return 3


def _components(field: FieldProfile, n: int) -> tuple[int, int, int, int, int]:
    """The order o of the n-th root in K*/F*, the 2-part ``two`` of n and its
    order o2, the product ``outside`` of n's odd components outside F, and t.

    The component p^e of n has order p^e / gcd(p^e, n_F), the p-part of
    o = n / n_F: so o2 = o & -o, and an odd component lies outside F exactly
    when its prime divides o.
    """
    o = n // gcd(n, field.roots_of_unity)
    two, o2 = n & -n, o & -o
    rest, outside = n // two, 1
    g = gcd(rest, o)
    while g > 1:
        rest, outside = rest // g, outside * g
        g = gcd(rest, g)
    return o, two, o2, outside, outside * (o2 if o2 <= 2 else two)


def t_nF(field: FieldProfile, n: int) -> int:
    """The multiplicative normalization t of the order of the n-th root.

    The product over the coherent components of z, each read off the root's
    order (see :func:`_components`): odd p^e contributes p^e when outside F
    (else 1); 2^e contributes 1, 2, or 2^e as its order o_2 is 1, 2, or more.
    """
    _check_coprime_to_char(field, n)
    return _components(field, n)[4]


def _two_part_exponent(field: FieldProfile, m: int, o2: int) -> int:
    """Action exponent of the nontrivial automorphism on the 2-power component.

    ``m`` is the 2-part of n and ``o2`` its order in K*/F*.  Assumes the
    ambient extension is quadratic, so o2 is 1, 2, or m/2.  Returns k with
    sigma(z) = z^k mod m.
    """
    if o2 == 1:
        return 1
    if o2 == 2:
        return 1 + m // 2
    if o2 == m // 2 and o2 > 2:
        if cos_sum_in_field(field, m, Sign.PLUS):
            return m - 1
        if cos_sum_in_field(field, m, Sign.MINUS):
            return m // 2 - 1
    raise PreconditionError(
        f"2-power component of order {o2} is incompatible with a quadratic extension"
    )


def yogh(field: FieldProfile, n: int) -> ResidueClass:
    """The conjugation exponent of the primitive n-th root of unity.

    The unique k in [1, n-1] with gcd(k, n) = 1 such that z + z^k and
    z^(k+1) lie in F, as derived once per (field, n) by :func:`min_poly`.
    """
    return min_poly(field, n).yogh


class TraceShape(Value):
    """Structured display form of a quadratic trace: u * (v +- 1/v).

    ``unit_index`` and ``cos_index`` are the orders of the unit factor
    u and the oscillating factor v (taken as canonical exponent classes),
    and ``sign`` picks v + 1/v or v - 1/v.  The product w = u*v is a
    primitive root of the full order, and u*v + sign * u/v equals exactly
    the conjugate-pair sum w + w^yogh (a Galois translate of the canonical
    root's pair, not necessarily the same pair).
    """

    unit_index: int
    cos_index: int
    sign: int

    def unit_root(self) -> RootOfUnity:
        return canonical(self.unit_index, 1)

    def cos_root(self) -> RootOfUnity:
        return canonical(self.cos_index, 1)

    def render(self) -> str:
        op = "+" if self.sign > 0 else "-"
        u, v = self.unit_root(), self.cos_root()
        unit = "" if u == identity else f"{u}*"
        return f"{unit}({v} {op} {v}^-1)"


class QuadMinPoly(Value):
    """The quadratic minimal polynomial x^2 - trace x + norm of the n-th root.

    ``trace_coeff`` is the formal sum z + z^yogh and ``norm_coeff`` the formal
    single term z^(yogh+1), both for the canonical exponent class z = 1/n.
    ``shape`` carries the per-case display form (None in the radical case,
    where the trace vanishes).
    """

    n: int
    case_tag: str
    yogh: ResidueClass
    trace_coeff: RootSum
    norm_coeff: RootSum
    shape: TraceShape | None

    def render(self) -> str:
        return f"x^2 - ({self.trace_coeff})*x + ({self.norm_coeff})"


_SHAPES = {
    CASE_ODD: (1, 1, 1),
    CASE_TWO_LOW: (2, 1, -1),
    CASE_TWO_HIGH_PLUS: (1, 2, 1),
    CASE_TWO_HIGH_MINUS: (1, 2, -1),
}


@lru_cache(maxsize=_ROOT_DATA_CACHE_SIZE)
def min_poly(field: FieldProfile, n: int) -> QuadMinPoly:
    """The minimal polynomial data of the primitive n-th root (degree 2).

    The one derivation of a quadratic root's data, memoised per (field, n):
    yogh by the per-component assembly (see the module docstring), the case
    tag from the order o in K*/F* and, when 4 | o, from whether yogh inverts
    the 2-power component, and the trace shape.  No field is constructed.
    """
    if not is_quadratic(field, n):
        raise PreconditionError(f"extension by the {n}-th root is not quadratic")
    # Odd components are either inside F (fixed) or fully outside (inverted):
    # an odd prime cannot divide both q-1 and q+1.
    o, two, o2, outside, _ = _components(field, n)
    k = crt([(1, n // two // outside), (-1, outside),
             (_two_part_exponent(field, two, o2), two)])
    if gcd(k.value, n) != 1:  # pragma: no cover - sanity
        raise ArithmeticError("conjugation exponent not a unit")
    z = canonical(n, 1)
    norm = power(z, k.value + 1)
    if field.roots_of_unity % norm.denominator:
        raise ArithmeticError("norm of the conjugate pair escaped the base field")
    if o == 2:
        tag = CASE_RADICAL
    elif o % 2 == 1:
        tag = CASE_ODD
    elif o % 4 != 0:
        tag = CASE_TWO_LOW
    elif (k.value + 1) % two == 0:
        tag = CASE_TWO_HIGH_PLUS
    else:
        tag = CASE_TWO_HIGH_MINUS
    shape: TraceShape | None = None
    if tag != CASE_RADICAL:
        unit_mult, cos_mult, sign = _SHAPES[tag]
        shape = TraceShape(unit_mult * (n // o), cos_mult * o, sign)
    trace = RootSum.of(z, power(z, k.value))
    return QuadMinPoly(n, tag, k, trace, RootSum.of(norm), shape)


class RadicalGenerator(Value):
    """A radical generator of the quadratic extension (characteristic != 2).

    The element ``expression`` = z - z^yogh has trace zero, so its
    ``square`` lies in F and x^2 - square is its defining polynomial.
    """

    expression: RootSum
    square: RootSum


def radical_generator(field: FieldProfile, n: int) -> RadicalGenerator:
    """The radical generator z - z^yogh and its square (char != 2)."""
    if field.characteristic == 2:
        raise PreconditionError("radical generators require characteristic != 2")
    k = yogh(field, n).value
    z = canonical(n, 1)
    expression = RootSum.from_terms([(1, z), (-1, power(z, k))])
    square = RootSum.from_terms(
        [(1, power(z, 2)), (1, power(z, 2 * k)), (-2, power(z, k + 1))]
    )
    return RadicalGenerator(expression, square)


class ArtinSchreierGenerator(Value):
    """An Artin-Schreier generator of the quadratic extension (char 2).

    The element y = numerator / denominator = z / (z + z^yogh) satisfies
    y^2 - y + a = 0 with a = norm / trace^2 = y^2 + y in the base field.
    """

    numerator: RootOfUnity
    denominator: RootSum


def artin_schreier_generator(field: FieldProfile, n: int) -> ArtinSchreierGenerator:
    """The Artin-Schreier generator z/(z + z^yogh) (char 2)."""
    if field.characteristic != 2:
        raise PreconditionError("Artin-Schreier generators require characteristic 2")
    k = yogh(field, n).value
    z = canonical(n, 1)
    return ArtinSchreierGenerator(z, RootSum.of(z, power(z, k)))


@lru_cache(maxsize=256)
def has_property_C2(field: FieldProfile) -> int | None:
    """The unique e with the 2^e root outside F, its t-value not 2, and the
    minus sum inside F — or None when no such exponent exists.

    Read off the profile: eps(|mu(K)|, 2) for the K with 8 | |mu(K)| when
    |mu(F)| = 2 mod 4, else None; over F_q, eps(q + 1, 2) + 1 when q = 3 mod
    4.  None over Q, and in characteristic 2, where the two sums coincide.
    For the 2^e root with order above 2 in K*/F*, the minus sum lies in F
    exactly when q = 2^(e-1) - 1 mod 2^e, that is when e = eps(q + 1, 2) + 1;
    an order above 2 needs e >= 3, which forces q = 3 mod 4.
    """
    if field.roots_of_unity % 4 != 2:
        return None
    for big, _ in field.quadratic_extensions:
        if big % 8 == 0:
            return eps(big, 2)
    return None


def nu(field: FieldProfile, p: int) -> ExtendedNat:
    """The p-power moduli exponent: the largest k with a p^k-th root in some
    quadratic cyclotomic extension K, max eps(|mu(K)|, p).  Over F_q that is
    eps(q^2 - 1, p); over Q, 2, 1, 0 for p = 2, 3 and larger primes.  Only
    valuations are taken, so it answers for every prime that
    ``numtheory.is_prime`` decides, at any size of q.  Finite over Q and
    F_q, so an int (an :class:`ExtendedNat`)."""
    _check_prime_for(field, p)
    return ExtendedNat(max([eps(big, p) for big, _ in field.quadratic_extensions]))


def nu_plus(field: FieldProfile, p: int) -> int:
    """The largest k such that the plus sum at t(p^k) lies in F: nu, less one
    exactly when p = 2 and the field has the property-C2 witness.

    For odd p, t(p^k) is 1 or p^k, and the plus sum lies in F exactly when
    p^k divides q - 1 or q + 1.  For p = 2 and q = 1 mod 4, t(2^k) is 1 up
    to k = eps(q - 1, 2) and 2 one step above, at eps(q^2 - 1, 2).  For
    q = 3 mod 4, t(2^k) = 2^k from k = 3 on, and the plus sum lies in F
    exactly when 2^k divides q + 1: the top exponent eps(q + 1, 2) + 1 is
    the property-C2 witness, whose minus sum, not its plus sum, lies in F.
    """
    return nu(field, p) - (p == 2 and has_property_C2(field) is not None)


class KappaClass(Value):
    """The kappa classification datum of a root of unity.

    ``branch`` records which of the three representative shapes applies,
    ``representative`` is the formal sum whose class in F(mu_inf)/F is
    tested, and ``in_field`` is the result of that test.
    """

    branch: str
    representative: RootSum
    in_field: bool


def _sum_in_field(field: FieldProfile, s: RootSum) -> bool:
    """Membership of a formal sum's value in F, by automorphism invariance:
    some quadratic cyclotomic extension K holds every term (the lcm L of their
    orders divides |mu(K)|) and its conjugation z -> z^c fixes s.

    Exact for the two-term sums that :func:`kappa_class` builds: if such a
    sum is formally fixed, every term's order divides some |mu(K)|.  For
    those orders over Q, (Z/L)* is a subset of {+-1}, so the one conjugation
    stands in for the whole Galois group.
    """
    order = s.lcm_order()
    for big, c in field.quadratic_extensions:
        if big % order == 0 and s.map_exponent(c) == s:
            return True
    return False


def kappa_class(field: FieldProfile, z: RootOfUnity) -> KappaClass:
    """The kappa classification datum of the root of unity z.

    Branch selection, for n the primitive order of z, e the 2-adic valuation
    of n, and t = t_nF(n): the two-times branch when the 2^e component has
    order exactly 2; otherwise the minus branch when e equals the order-2
    minus-sum exponent of the field; otherwise the plus branch.
    """
    _check_coprime_to_char(field, z.denominator)
    _, two, o2, _, t = _components(field, z.denominator)
    zt = canonical(t, 1)
    if o2 == 2:
        z2 = canonical(two, 1)
        rep = RootSum.from_terms(
            [(1, multiply(z2, zt)), (-1, multiply(z2, power(zt, -1)))]
        )
        return KappaClass(BRANCH_TWO_TIMES, rep, _sum_in_field(field, rep))
    c2 = has_property_C2(field)
    if c2 is not None and two == 2**c2:
        rep = RootSum.from_terms([(1, zt), (-1, power(zt, -1))])
        return KappaClass(BRANCH_MINUS, rep, cos_sum_in_field(field, t, Sign.MINUS))
    rep = RootSum.from_terms([(1, zt), (1, power(zt, -1))])
    return KappaClass(BRANCH_PLUS, rep, cos_sum_in_field(field, t, Sign.PLUS))
