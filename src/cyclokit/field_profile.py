"""Base-field abstraction: the rationals and finite fields, by profile.

Downstream classification code never touches concrete field arithmetic; it
only needs the answers this module computes from a field's profile.  For
most of them the rationals and finite fields differ only in the roots of
unity that the profile holds: w = |mu(F)| (q - 1 over F_q, 2 over Q), and
(|mu(K)|, c) for each quadratic cyclotomic extension K, with z -> z^c its
conjugation ((q^2 - 1, q) over F_q; (4, 3) and (6, 5) over Q).

* ``n_F`` — the largest divisor d of n with a primitive d-th root of unity
  in F: gcd(n, w);
* ``order_of_zeta`` — the order of the primitive n-th root in the quotient
  group K*/F*, which equals n / n_F;
* ``ell`` — the largest k with a primitive p^k-th root in F, the p-adic
  valuation of w (finite for both backends, so a plain int);
* membership predicates for single roots and for the two cosine-like sums
  z + 1/z and z - 1/z, read off each K's conjugation.

Inputs whose order is divisible by the characteristic are rejected rather
than silently reduced; in characteristic p the p-part of a root of unity is
trivial and silent reduction would mask caller bugs.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import gcd

from ._value import Value
from .errors import PreconditionError, SizeBoundError
from .numtheory import eps, factorize, is_prime
from .roots import RootOfUnity

__all__ = [
    "ExtendedNat",
    "FieldProfile",
    "MAX_FIELD_BITS",
    "RATIONAL",
    "Sign",
    "contains_root",
    "cos_sum_in_field",
    "ell",
    "finite_field",
    "n_F",
    "order_of_zeta",
    "parse_field",
    "prime_basis",
    "render_field",
]


class ExtendedNat(int):
    """The int that ``quadcyclo.nu`` returns.  In the paper nu may be
    infinite, but over Q and F_q it never is; ``to_json`` remains only
    because ``bench/lib_session.py`` calls it."""

    __slots__ = ()

    def to_json(self) -> int:
        return int(self)


class Sign(enum.Enum):
    """Which cosine-like sum to test: z + 1/z (PLUS) or z - 1/z (MINUS)."""

    PLUS = "plus"
    MINUS = "minus"


class FieldProfile(Value, slots=False):
    """Profile of a supported base field: the rationals or F_(p^k).

    For the rationals, ``p == k == 0``; for finite fields, ``p`` is the
    (prime) characteristic and ``k >= 1`` the degree over the prime field.
    The sizes are fixed when the profile is made, from one p^k: ``q`` = p^k
    (finite fields only), ``roots_of_unity`` = |mu(F)| (q - 1, or 2 for Q)
    and ``quadratic_extensions``, (|mu(K)|, c) per quadratic cyclotomic
    extension K with z -> z^c K's conjugation: (q^2 - 1, q) for F_(q^2), by
    Frobenius, or (4, 3) and (6, 5) for Q(zeta_4) and Q(zeta_3), by
    inversion.  No attribute can be set.
    """

    p: int
    k: int

    def __new__(cls, p: int = 0, k: int = 0) -> "FieldProfile":
        self = tuple.__new__(cls, (p, k))
        if p:
            q = p**k
            vars(self).update(q=q, roots_of_unity=q - 1, quadratic_extensions=((q * q - 1, q),))
        else:
            vars(self).update(roots_of_unity=2, quadratic_extensions=((4, 3), (6, 5)))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FieldProfile is immutable: cannot set {name!r}")

    def __getattr__(self, name: str) -> object:  # only the rational field lacks q
        raise AttributeError("the rational field has no finite size q" if name == "q" else
                             f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    @property
    def characteristic(self) -> int:
        return self.p


@lru_cache(maxsize=256)
def prime_basis(field: FieldProfile) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per K of ``quadratic_extensions``, each prime p of |mu(K)| ascending as
    (p, eps(|mu(F)|, p), eps(|mu(K)|, p)), from |mu(F)| and |mu(K)| / |mu(F)|
    factored apart (q - 1 and q + 1 over F_q); memoised, built on first use."""
    base = dict(factorize(field.roots_of_unity))
    basis = []
    for big, _ in field.quadratic_extensions:
        full = dict(base)
        for p, e in factorize(big // field.roots_of_unity):
            full[p] = full.get(p, 0) + e
        basis.append(tuple([(p, base.get(p, 0), full[p]) for p in sorted(full)]))
    return tuple(basis)


#: The field of rational numbers.
RATIONAL = FieldProfile()


#: Ceiling on k * bit_length(p) for F_(p^k), which bounds the bit length of
#: q = p^k before it is computed.  Every command's arithmetic on q then stays
#: within interactive time.
MAX_FIELD_BITS = 1 << 16


def finite_field(p: int, k: int = 1) -> FieldProfile:
    """The profile of the finite field with p^k elements."""
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if k < 1:
        raise ValueError(f"degree must be positive, got {k}")
    if k * p.bit_length() > MAX_FIELD_BITS:
        raise SizeBoundError(
            f"field size {p}^{k} exceeds the bound of {MAX_FIELD_BITS} bits"
        )
    return FieldProfile(p, k)


def parse_field(spec: str) -> FieldProfile:
    """Parse the field grammar 'Q' | 'q:<p>' | 'q:<p>^<k>'."""
    text = spec.strip()
    if text == "Q":
        return RATIONAL
    if text.startswith("q:"):
        body = text[2:]
        base, sep, exp = body.partition("^")
        try:
            p = int(base)
            k = int(exp) if sep else 1
        except ValueError as exc:
            raise ValueError(f"cannot parse field spec: {spec!r}") from exc
        return finite_field(p, k)
    raise ValueError(f"cannot parse field spec: {spec!r}")


def render_field(field: FieldProfile) -> str:
    """Inverse of :func:`parse_field`."""
    if field.is_rational:
        return "Q"
    return f"q:{field.p}" if field.k == 1 else f"q:{field.p}^{field.k}"


def _check_coprime_to_char(field: FieldProfile, n: int) -> None:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if field.p and n % field.p == 0:
        raise PreconditionError(
            f"characteristic {field.p} divides the root order {n}"
        )


def _check_prime_for(field: FieldProfile, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == field.p:
        raise PreconditionError(f"p equals the characteristic {p}")


def n_F(field: FieldProfile, n: int) -> int:
    """The largest divisor d of n such that F contains a primitive d-th root:
    gcd(n, |mu(F)|), since the roots of unity in F form a cyclic group."""
    _check_coprime_to_char(field, n)
    return gcd(n, field.roots_of_unity)


def order_of_zeta(field: FieldProfile, n: int) -> int:
    """The order of the primitive n-th root of unity in K*/F*: n / n_F."""
    return n // n_F(field, n)


def ell(field: FieldProfile, p: int) -> int:
    """The largest k with a primitive p^k-th root of unity in F: the p-adic
    valuation of |mu(F)|."""
    _check_prime_for(field, p)
    return eps(field.roots_of_unity, p)


def contains_root(field: FieldProfile, z: RootOfUnity) -> bool:
    """Whether the root of unity z lies in F: whether its order divides |mu(F)|."""
    n = z.denominator
    _check_coprime_to_char(field, n)
    return field.roots_of_unity % n == 0


def cos_sum_in_field(field: FieldProfile, n: int, sign: Sign) -> bool:
    """Decide membership of z + 1/z (PLUS) or z - 1/z (MINUS) in F, for z of order n.

    It holds when n | |mu(K)| for a quadratic cyclotomic extension K whose
    conjugation z -> z^c fixes the sum: c = 1 mod n, or c = -1 (PLUS) or
    n/2 - 1 (MINUS) mod n, sending z to 1/z or -1/z.  The MINUS form is only
    supported for even n or n <= 2 (for larger odd n the two sums live in
    different quadratic twists and no closed form is offered).
    """
    _check_coprime_to_char(field, n)
    if sign is Sign.MINUS and n > 2 and n % 2 == 1:
        raise PreconditionError(f"minus sum unsupported for odd order {n} > 2")
    swap = (n - 1) % n if sign is Sign.PLUS else (n // 2 - 1) % n
    for big, c in field.quadratic_extensions:
        if big % n == 0 and c % n in (1 % n, swap):
            return True
    return False
