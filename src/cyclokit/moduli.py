"""Moduli of quadratic cyclotomic extensions: per-prime and global spaces,
the order-2 subgroup and its star product, the prime-set partition of
extension classes, and the embeddings into the quadratic-extension moduli
of the base field (square classes, Artin-Schreier classes).

All sets of roots of unity are presented as the set expressions from
:mod:`cyclokit.roots` (products, differences, and unions of mu- and
primitive-sets), with arithmetic cardinalities that the enumeration tests
cross-check.  The embeddings are decided symbolically, from the generators'
formal sums, so this module builds no field and does not import the oracle.
Its value types have no JSON form of their own: the CLI renders each as the
object of its fields, so their field names are the report keys.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from ._value import Value
from .errors import PreconditionError
from .field_profile import FieldProfile, contains_root, order_of_zeta, prime_basis
from .numtheory import eps, factorize
from .quadcyclo import (
    artin_schreier_generator,
    bounded_degree,
    is_quadratic,
    kappa_class,
    min_poly,
    nu,
    radical_generator,
)
from .roots import (
    Difference,
    InternalProduct,
    Mu,
    MuSubset,
    PrimSet,
    RootOfUnity,
    Union,
    canonical,
    multiply,
)

__all__ = [
    "ArtinSchreierClass",
    "FiniteSquareClass",
    "ModuliClass",
    "ModuliDescription",
    "RationalSquareClass",
    "SMaxClass",
    "SMaxPartition",
    "chi_as",
    "chi_rad",
    "field_equal",
    "full_moduli",
    "g2",
    "g2_membership",
    "g2_star",
    "m2_membership",
    "m2p",
    "quad_moduli_summary",
    "s_max",
    "s_n",
]

KIND_PER_PRIME = "PerPrime"
KIND_GLOBAL = "Global"
KIND_ORDER_TWO = "OrderTwo"


class ModuliClass(Value):
    """One isomorphism class of quadratic cyclotomic extensions.

    ``primes`` is the prime set attached to the class, ``representative_n``
    the order of a root generating a representative extension, and
    ``minpoly`` the rendered quadratic minimal polynomial of that root.
    """

    primes: tuple[int, ...]
    representative_n: int
    minpoly: str


class ModuliDescription(Value):
    """A moduli space of roots of unity generating quadratic extensions.

    ``presentation`` is a set expression whose elements are exactly the
    space, ``cardinality`` its size (computed arithmetically; the enumeration
    of the presentation must agree), and ``classes`` the extensions up to
    isomorphism, one entry per class.
    """

    kind: str
    presentation: MuSubset
    cardinality: int
    classes: tuple[ModuliClass, ...]


def _class_for(field: FieldProfile, primes: tuple[int, ...], rep_n: int) -> ModuliClass:
    return ModuliClass(primes, rep_n, min_poly(field, rep_n).render())


def m2p(field: FieldProfile, p: int) -> ModuliDescription:
    """The moduli of p-power roots generating quadratic extensions.

    Presented as Mu(p^nu) - Mu(p^ell); empty (and with no extension class)
    exactly when nu = ell, otherwise a single class represented by the
    p^(ell+1)-th root.
    """
    nu_val = nu(field, p)
    ell_val = eps(field.roots_of_unity, p)
    presentation = Difference(Mu(p**nu_val), Mu(p**ell_val))
    classes: tuple[ModuliClass, ...] = ()
    if nu_val > ell_val:
        classes = (_class_for(field, (p,), p ** (ell_val + 1)),)
    return ModuliDescription(
        KIND_PER_PRIME, presentation, p**nu_val - p**ell_val, classes
    )


def g2(field: FieldProfile) -> ModuliDescription:
    """The group of roots of unity of order exactly 2 in K*/F*.

    Empty in characteristic 2 (presented as an empty difference); otherwise
    the product of the primitive 2^(ell+1)-th roots with the odd-order roots
    lying in F, carrying at most one extension class (the radical one).
    """
    if field.characteristic == 2:
        return ModuliDescription(KIND_ORDER_TWO, Difference(Mu(1), Mu(1)), 0, ())
    ell_val = eps(field.roots_of_unity, 2)
    half, odd_part = 2 ** (ell_val + 1), field.roots_of_unity >> ell_val
    presentation = InternalProduct((PrimSet(half), Mu(odd_part)))
    cardinality = (half // 2) * odd_part
    return ModuliDescription(
        KIND_ORDER_TWO,
        presentation,
        cardinality,
        (_class_for(field, (2,), half),),
    )


def g2_membership(field: FieldProfile, z: RootOfUnity) -> bool:
    """Whether z has order exactly 2 in K*/F* (z^2 in F, z not in F)."""
    return order_of_zeta(field, z.denominator) == 2


def _split_two_part(z: RootOfUnity, two_part: int) -> tuple[int, RootOfUnity]:
    """Split z into its 2-power exponent and odd component.

    Requires the order of z to have 2-part exactly ``two_part``; returns
    (k, w) with z = (primitive two_part-th root)^k * w and w of odd order.
    """
    n = z.denominator
    if n & -n != two_part:
        raise PreconditionError(
            f"order {n} has 2-part {n & -n}, expected {two_part}"
        )
    odd = n // two_part
    k = z.numerator * pow(odd, -1, two_part) % two_part
    j = z.numerator * pow(two_part, -1, odd) % odd if odd > 1 else 0
    return k, canonical(odd, j)


def g2_star(field: FieldProfile, z1: RootOfUnity, z2: RootOfUnity) -> RootOfUnity:
    """The group law on order-2 roots: 2-power exponents multiply modulo
    2^(ell+1), odd components multiply as roots of unity.

    The identity element is the primitive 2^(ell+1)-th root itself.
    """
    half = 2 ** (eps(field.roots_of_unity, 2) + 1)
    for z in (z1, z2):
        if not g2_membership(field, z):
            raise PreconditionError(f"{z} does not have order 2 in K*/F*")
    k1, w1 = _split_two_part(z1, half)
    k2, w2 = _split_two_part(z2, half)
    return multiply(canonical(half, k1 * k2), multiply(w1, w2))


def field_equal(field: FieldProfile, n: int, m: int) -> bool:
    """Whether F(z_n) = F(z_m), for extensions of equal degree 1 or 2.

    Decided through the lcm: the compositum F(z_n, z_m) is F(z_lcm), so the
    two fields coincide exactly when the lcm's degree does not grow.
    """
    d_n = bounded_degree(field, n)
    d_m = bounded_degree(field, m)
    if d_n > 2 or d_m > 2:
        raise PreconditionError("only degrees 1 and 2 are supported")
    if d_n != d_m:
        raise PreconditionError(f"unequal degrees {d_n} and {d_m}")
    lcm = n // gcd(n, m) * m
    return bounded_degree(field, lcm) == d_n


def s_n(field: FieldProfile, n: int) -> frozenset[int]:
    """The primes of the n-th root's order in K*/F*, read off :func:`prime_basis`."""
    m = order_of_zeta(field, n)
    primes = {p for factors in prime_basis(field) for p, _, _ in factors if m % p == 0}
    basis = prod(primes)
    while (g := gcd(m, basis)) > 1:
        m //= g
    if m > 1:  # a part of m outside the basis: over Q, or past degree 2
        primes.update(p for p, _ in factorize(m))
    return frozenset(primes)


class SMaxClass(Value):
    """One class of the prime-set partition of quadratic cyclotomic extensions.

    ``presentation`` is the difference mu_M - mu_MF whose elements are the
    roots generating this class's extension; ``cardinality`` its size.
    """

    primes: tuple[int, ...]
    representative_n: int
    minpoly: str
    presentation: Difference
    cardinality: int


class SMaxPartition(Value):
    """The maximal prime sets, each with its moduli presentation."""

    classes: tuple[SMaxClass, ...]


@lru_cache(maxsize=256)
def s_max(field: FieldProfile) -> SMaxPartition:
    """The partition of quadratic cyclotomic extensions by maximal prime sets.

    One class per quadratic cyclotomic extension K, with w = |mu(F)| and
    big = |mu(K)|: its primes are those whose exponent in big exceeds that
    in w, read off :func:`prime_basis`, and its roots are Mu(big) - Mu(w),
    each factor split by prime.  Over F_q that is the single class of
    F_(q^2) (big = q^2 - 1); over the rationals the classes are {2}
    (Q(zeta_4), big = 4) and {3} (Q(zeta_3), big = 6).
    """
    w = field.roots_of_unity
    classes: list[SMaxClass] = []
    for (big, _), factors in zip(field.quadratic_extensions, prime_basis(field)):
        jumps = [(p, e1, e2) for p, e1, e2 in factors if e2 > e1]
        rep = prod(p ** (e1 + 1) for p, e1, _ in jumps)
        remainder = Mu(prod(p**e1 for p, e1, e2 in factors if e2 == e1))
        presentation = Difference(
            InternalProduct((*(Mu(p**e2) for p, _, e2 in jumps), remainder)),
            InternalProduct((*(Mu(p**e1) for p, e1, _ in jumps), remainder)),
        )
        primes = tuple(p for p, _, _ in jumps)
        classes.append(SMaxClass(*_class_for(field, primes, rep), presentation, big - w))
    return SMaxPartition(tuple(classes))


def m2_membership(field: FieldProfile, z: RootOfUnity) -> bool:
    """Whether z generates a quadratic extension of F.

    Computed two independent ways — the kappa-class equaliser route
    (classification datum in F, root not in F) and the direct degree route —
    which must agree; a disagreement raises RuntimeError.
    """
    by_kappa = kappa_class(field, z).in_field and not contains_root(field, z)
    by_degree = is_quadratic(field, z.denominator)
    if by_kappa != by_degree:
        raise RuntimeError(
            f"membership routes disagree at {z}: equaliser {by_kappa}, "
            f"degree {by_degree}"
        )
    return by_degree


def full_moduli(field: FieldProfile) -> ModuliDescription:
    """All roots of unity generating quadratic extensions of F.

    Over F_q this is Mu(q^2-1) - Mu(q-1) with the single class F_(q^2);
    over the rationals, the six primitive roots of orders 3, 4, and 6 in
    two classes.  The classes, and the cardinality as the sum of theirs,
    are those of :func:`s_max`.
    """
    parts = s_max(field).classes
    classes = tuple(ModuliClass(c.primes, c.representative_n, c.minpoly) for c in parts)
    if field.is_rational:
        presentation: MuSubset = Union((PrimSet(3), PrimSet(4), PrimSet(6)))
    else:
        ((big, _),) = field.quadratic_extensions
        presentation = Difference(Mu(big), Mu(field.roots_of_unity))
    cardinality = sum(c.cardinality for c in parts)
    return ModuliDescription(KIND_GLOBAL, presentation, cardinality, classes)


class RationalSquareClass(Value):
    """A square class of the rationals, named by its squarefree kernel."""

    d: int

    @property
    def is_trivial(self) -> bool:
        return self.d == 1


class FiniteSquareClass(Value):
    """A square class of F_q (odd q), named by its residue bit."""

    is_residue: bool

    @property
    def is_trivial(self) -> bool:
        return self.is_residue


class ArtinSchreierClass(Value):
    """An Artin-Schreier class of F_(2^k), named by its absolute-trace bit;
    the class is nontrivial exactly when the trace bit is 1."""

    trace_bit: int

    @property
    def is_trivial(self) -> bool:
        return self.trace_bit == 0


def chi_rad(field: FieldProfile, n: int) -> RationalSquareClass | FiniteSquareClass:
    """The square class of the radical generator's square (char != 2).

    This is the image of the extension under the classification of quadratic
    extensions by square classes; it must land in a nontrivial class for a
    genuine quadratic extension.  Over F_q the square is a square in F_q
    exactly when the generator z - z^yogh lies in F_q, i.e. is fixed by the
    exponent map z -> z^q.  Over the rationals the closed form is -1 for
    n = 4 and -3 for n = 3, 6 (the squares are -4 and -3).
    """
    gen = radical_generator(field, n)
    if field.is_rational:
        return RationalSquareClass(-1 if n == 4 else -3)
    return FiniteSquareClass(gen.expression.map_exponent(field.q) == gen.expression)


def chi_as(field: FieldProfile, n: int) -> ArtinSchreierClass:
    """The Artin-Schreier class norm/trace^2 = y^2 + y of the extension
    (char 2), for the generator y = z/(z + z^yogh).

    The absolute trace (down to F_2) of the constant is the class invariant:
    it is 0 exactly when y^2 + y = a has a root in F_q, i.e. when y lies in
    F_q, which holds exactly when z does.  It must be 1 for a genuine
    quadratic extension.
    """
    z = artin_schreier_generator(field, n).numerator
    return ArtinSchreierClass(int(not contains_root(field, z)))


def quad_moduli_summary(field: FieldProfile) -> dict:
    """Counts of quadratic-extension classes of F itself, by type.

    Finite fields have exactly one separable class (the unique quadratic
    field extension) and no inseparable ones (perfect field); the rationals
    have infinitely many separable classes, indexed by squarefree integers
    other than 1, and none inseparable.
    """
    if field.is_rational:
        return {
            "separable": "indexed by squarefree integers d != 1",
            "inseparable": 0,
        }
    return {"separable": 1, "inseparable": 0}

