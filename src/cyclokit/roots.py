"""Symbolic algebra of the group of all roots of unity, with no base field.

A root of unity is represented by its exponent class j/n in Q/Z under the
coherent compatibility convention: for every m dividing n, the primitive m-th
root is the (n/m)-th power of the primitive n-th root.  With that convention
fixed once, every identity between roots of unity becomes exact arithmetic on
reduced fractions: multiplication is fraction addition mod 1, powers scale the
exponent, and the denominator of the reduced fraction is the primitive order.

The module also provides:

* :class:`RootSum` — formal integer linear combinations of roots, used for
  symbolic trace/norm coefficients.  Sums are kept in a canonical form where
  each term's sign is absorbed into the order-2 component of the root (since
  -z and z times the primitive square root of unity are equal in every
  realization), so symbolic equality matches equality in any field whose
  characteristic is coprime to the orders involved.
* Finite set expressions over roots of unity (:data:`MuSubset`): full groups
  ``Mu(n)``, primitive layers ``PrimSet(n)``, internal (pointwise) products,
  differences, and unions, each with a membership test, :func:`contains`, that
  ``in`` runs too; ``len`` stays the tuple's, the number of fields.
* The textual form ``z(n,j)``, in which the CLI prints roots.

Values here and in the other formula modules are built on one tuple base,
``_value.Value``, so each is the tuple of its fields: it supports ``len`` and
iteration, orders and hashes as that tuple, refuses + and *, and compares
equal to any tuple of the same fields, even a value of another type.  Every
dispatch on values is by ``isinstance``, and no code compares values of
different types.
"""

from __future__ import annotations

from math import gcd

from ._value import Value

__all__ = [
    "Difference",
    "InternalProduct",
    "Mu",
    "MuSubset",
    "PrimSet",
    "RootOfUnity",
    "RootSum",
    "Union",
    "canonical",
    "contains",
    "describe",
    "identity",
    "multiply",
    "power",
    "render_root",
]


class RootOfUnity(Value):
    """The root of unity with reduced exponent class numerator/denominator.

    Instances must be created through :func:`canonical` (or the arithmetic
    helpers), which guarantee gcd(numerator, denominator) = 1 and represent
    the identity as 0/1.  The denominator is the primitive order.
    """

    denominator: int
    numerator: int
    _arithmetic_hint = "roots of unity compose by multiply() and power(), not + or *"

    def __str__(self) -> str:
        return render_root(self)


#: Builds a root from a pair already reduced, past the generated __new__.
_new = tuple.__new__


def canonical(n: int, j: int) -> RootOfUnity:
    """The reduced exponent class of j/n (the j-th power of the n-th root)."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return _reduce(n, j)


def _reduce(n: int, j: int) -> RootOfUnity:
    """:func:`canonical` past its check, for an order n already known to be >= 1."""
    j %= n
    g = gcd(j, n)
    return _new(RootOfUnity, (n // g, j // g))


#: The identity element (exponent class 0/1).
identity = RootOfUnity(1, 0)


def multiply(z1: RootOfUnity, z2: RootOfUnity) -> RootOfUnity:
    """Group law: exponent classes add in Q/Z."""
    (n1, j1), (n2, j2) = z1, z2
    lcm = n1 // gcd(n1, n2) * n2
    return _reduce(lcm, j1 * (lcm // n1) + j2 * (lcm // n2))


def power(z: RootOfUnity, k: int) -> RootOfUnity:
    """The k-th power: exponent class scaled by k (k may be negative)."""
    n, j = z
    return _reduce(n, j * k)


def render_root(z: RootOfUnity) -> str:
    """Textual form 'z(n,j)' of the exponent class j/n."""
    return f"z({z.denominator},{z.numerator})"


# ---------------------------------------------------------------------------
# Formal integer linear combinations of roots of unity
# ---------------------------------------------------------------------------


class RootSum:
    """A formal integer linear combination of roots of unity.

    Terms are stored against sign-normalized representatives (see module
    docstring), so two sums compare equal exactly when they agree as elements
    of the group ring evaluated in any field of compatible characteristic.
    The empty sum represents zero.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[RootOfUnity, int] | None = None):
        # Owns the already-normalized dict it is given; from_terms takes raw input.
        self._terms: dict[RootOfUnity, int] = {} if terms is None else terms

    @classmethod
    def from_terms(cls, terms: list[tuple[int, RootOfUnity]]) -> "RootSum":
        """Build a sum from (coefficient, root) pairs, normalizing signs.

        -z equals z times the order-2 root, so each pair {z, -z} is stored
        against its lexicographically smaller member (by (order, exponent)),
        the coefficient negated when that member is -z.  For z = j/n, -z is
        (2j + n)/(2n) for odd n, so z is the smaller; (j + n/2)/2 over n/2 for
        n = 2 mod 4, the smaller; and (j + n/2)/n for 4 | n, the smaller when
        j > n/2.  Each is already reduced.
        """
        acc: dict[RootOfUnity, int] = {}
        for coeff, root in terms:
            n, j = root
            if not n % 2:
                h = n // 2
                if h % 2:
                    root, coeff = _new(RootOfUnity, (h, (j + h) // 2 % h)), -coeff
                elif j >= h:
                    root, coeff = _new(RootOfUnity, (n, j - h)), -coeff
            acc[root] = acc.get(root, 0) + coeff
        if 0 in acc.values():
            acc = {r: c for r, c in acc.items() if c != 0}
        return cls(acc)

    @classmethod
    def of(cls, *roots: RootOfUnity) -> "RootSum":
        """The sum of the given roots, each with coefficient +1."""
        return cls.from_terms([(1, r) for r in roots])

    def terms(self) -> list[tuple[int, RootOfUnity]]:
        """Sorted (coefficient, representative root) pairs."""
        return [(c, r) for r, c in sorted(self._terms.items())]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "RootSum") -> "RootSum":
        acc = dict(self._terms)
        for r, c in other._terms.items():
            acc[r] = acc.get(r, 0) + c
        return RootSum({r: c for r, c in acc.items() if c != 0})

    def __neg__(self) -> "RootSum":
        return RootSum({r: -c for r, c in self._terms.items()})

    def __sub__(self, other: "RootSum") -> "RootSum":
        return self + (-other)

    def map_exponent(self, m: int) -> "RootSum":
        """Apply the exponent map z -> z^m to every term.

        This realizes the automorphism sending each root of unity to its m-th
        power (e.g. Frobenius for m = q); it is additive on formal sums.
        """
        return RootSum.from_terms([(c, power(r, m)) for r, c in self._terms.items()])

    def lcm_order(self) -> int:
        """The lcm of the primitive orders appearing in the sum (1 if zero)."""
        n = 1
        for r in self._terms:
            n = n // gcd(n, r.denominator) * r.denominator
        return n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for root, coeff in sorted(self._terms.items()):
            mag = abs(coeff)
            body = render_root(root) if mag == 1 else f"{mag}*{render_root(root)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RootSum({self})"


# ---------------------------------------------------------------------------
# Finite set expressions over roots of unity
# ---------------------------------------------------------------------------


class Mu(Value):
    """The full group of n-th roots of unity (all orders dividing n)."""

    n: int


class PrimSet(Value):
    """The primitive n-th roots of unity (exactly order n)."""

    n: int


class InternalProduct(Value):
    """The set of pointwise products, one factor from each operand set."""

    factors: tuple["MuSubset", ...]


class Difference(Value):
    """Set difference left - right."""

    left: "MuSubset"
    right: "MuSubset"


class Union(Value):
    """Set union of the operands."""

    parts: tuple["MuSubset", ...]


MuSubset = Mu | PrimSet | InternalProduct | Difference | Union


def _enum_set(ms: MuSubset) -> set[RootOfUnity]:
    if isinstance(ms, Mu):
        if ms.n < 1:
            raise ValueError(f"order must be positive, got {ms.n}")
        return {canonical(ms.n, j) for j in range(ms.n)}
    if isinstance(ms, PrimSet):
        if ms.n < 1:
            raise ValueError(f"order must be positive, got {ms.n}")
        return {canonical(ms.n, j) for j in range(ms.n) if gcd(j, ms.n) == 1}
    if isinstance(ms, InternalProduct):
        acc = {identity}
        for factor in ms.factors:
            acc = {multiply(a, b) for a in acc for b in _enum_set(factor)}
        return acc
    if isinstance(ms, Difference):
        return _enum_set(ms.left) - _enum_set(ms.right)
    if isinstance(ms, Union):
        acc: set[RootOfUnity] = set()
        for part in ms.parts:
            acc |= _enum_set(part)
        return acc
    raise TypeError(f"not a root-of-unity set expression: {ms!r}")


def contains(ms: MuSubset, z: RootOfUnity) -> bool:
    """Membership test for a set expression; ``z in ms`` runs it too."""
    if not isinstance(z, RootOfUnity):
        raise TypeError(f"not a root of unity: {z!r}")
    if isinstance(ms, Mu):
        return ms.n % z.denominator == 0
    if isinstance(ms, PrimSet):
        return z.denominator == ms.n
    if isinstance(ms, Difference):
        return contains(ms.left, z) and not contains(ms.right, z)
    if isinstance(ms, Union):
        return any(contains(part, z) for part in ms.parts)
    if isinstance(ms, InternalProduct):
        return z in _enum_set(ms)
    raise TypeError(f"not a root-of-unity set expression: {ms!r}")


Mu.__contains__ = PrimSet.__contains__ = InternalProduct.__contains__ = contains
Difference.__contains__ = Union.__contains__ = contains


def describe(ms: MuSubset) -> str:
    """Compact textual rendering of a set expression."""
    if isinstance(ms, Mu):
        return f"mu({ms.n})"
    if isinstance(ms, PrimSet):
        return f"prim({ms.n})"
    if isinstance(ms, InternalProduct):
        return " * ".join(_describe_atom(f) for f in ms.factors)
    if isinstance(ms, Difference):
        return f"{_describe_atom(ms.left)} - {_describe_atom(ms.right)}"
    if isinstance(ms, Union):
        return " | ".join(_describe_atom(p) for p in ms.parts)
    raise TypeError(f"not a root-of-unity set expression: {ms!r}")


def _describe_atom(ms: MuSubset) -> str:
    text = describe(ms)
    return text if isinstance(ms, (Mu, PrimSet)) else f"({text})"
