"""Unit groups of residue rings and their cyclotomic Galois actions.

Automorphisms of the n-th cyclotomic extension of any base field embed into
the unit group (Z/n)* by their action z -> z^j on n-th roots of unity.  This
module provides that unit group, the subgroup fixing a sub-extension, and the
image subgroup realized over a given base field (trivial when the root
already lies in the field, and {1, yogh} in the quadratic case).  Each is a
plain ascending tuple of :class:`ResidueClass` modulo n: its order is its
``len``, and membership is tuple ``in``.
"""

from __future__ import annotations

from math import gcd

from .errors import PreconditionError
from .field_profile import FieldProfile
from .numtheory import ResidueClass
from .quadcyclo import bounded_degree, yogh

__all__ = [
    "fixing_subgroup",
    "galois_image",
    "unit_group",
]


def unit_group(n: int) -> tuple[ResidueClass, ...]:
    """The unit group modulo n, ascending (for n = 1, the trivial group {0 mod 1})."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return tuple(ResidueClass(j, n) for j in range(n) if gcd(j, n) == 1)


def fixing_subgroup(n: int, m: int) -> tuple[ResidueClass, ...]:
    """Exponents j in (Z/n)* with z^j = z for every m-th root z (m | n), ascending.

    These are exactly the units congruent to 1 modulo m; they form the
    subgroup fixing the m-th cyclotomic sub-extension pointwise.
    """
    if n < 1 or m < 1 or n % m != 0:
        raise ValueError(f"m must be a positive divisor of n, got n={n} m={m}")
    return tuple(j for j in unit_group(n) if j.value % m == 1 % m)


def galois_image(field: FieldProfile, n: int) -> tuple[ResidueClass, ...]:
    """The exponents realized by automorphisms of F(z_n)/F inside (Z/n)*.

    Supported degrees are 1 (the root lies in F: trivial image) and 2
    (the image is {1, yogh}); larger degrees raise PreconditionError.
    """
    degree = bounded_degree(field, n)
    if degree == 1:
        return (ResidueClass(1 % n, n),)
    if degree == 2:
        k = yogh(field, n)
        return tuple(sorted((ResidueClass(1 % n, n), k)))
    raise PreconditionError(f"extension by the {n}-th root has degree above 2")
