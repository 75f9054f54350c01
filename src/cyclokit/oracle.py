"""Independent brute-force layer: explicit finite fields and exact cyclotomic
arithmetic over the rationals.

This module uses none of the formula-based classification modules: orders
are found by exhaustive scan, minimal polynomials by applying the q-power
map, and rational minimal polynomials by expanding products in an explicit
quotient ring.  Its integer helpers are its own: trial division finds the
primes of the small numbers it meets (q - 1 and p below the field bound, the
degree k), and the rational degree check counts units.  From ``roots`` it
takes only the exponent-class types ``RootOfUnity`` and ``RootSum``, which
:func:`evaluate_sum` realizes.  No formula module imports it, so ``import
cyclokit`` does not load it: only the CLI, which realizes concrete values
and cross-checks them, and the test suite do.  Agreement of the two layers
is the point.

The q-power test ("is w fixed by x -> x^q?") never raises w to the q-th
power.  x -> x^q is F_p-linear on coordinates, so each field memoises its
matrix once: the columns are the images of the basis 1, x, ..., x^(K-1),
computed with the field's own multiplication, and a test is one
matrix-vector product.  The scans then step by one multiplication per
candidate.  No exponent or discrete-logarithm arithmetic enters, which
would be the formula layer's own reasoning.

Determinism: a field is always built on the lexicographically smallest monic
irreducible modulus (scanning ascending integer encodings of the coefficient
vector) and uses the smallest generator of the multiplicative group under the
same encoding.  The generator search of a proper extension starts past the
prime-field constants, whose orders divide p - 1, so it finds the same
element.  Fixing these choices fixes one concrete realization of every root
of unity, so symbolic results have a well-defined concrete value:
``embed_root`` sends the exponent class j/n to g**((q-1)//n * j) where g is
the chosen generator — a coherent system of primitive roots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd
from operator import mul

from .errors import PreconditionError, SizeBoundError
from .roots import RootOfUnity, RootSum

__all__ = [
    "MAX_FIELD_SIZE",
    "CycloRing",
    "ExplicitField",
    "FFElement",
    "brute_min_poly",
    "brute_moduli",
    "brute_order",
    "build_field",
    "cyclotomic_poly",
    "embed_root",
    "evaluate_sum",
    "evaluate_sum_rational",
    "find_root_of_unity",
    "inseparable_orbit_related",
    "rational_min_poly",
]

#: Hard ceiling on explicit field sizes p^k.
MAX_FIELD_SIZE = 1 << 20


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, by trial division (none for m < 2).
    Every caller passes a number below the field bound, so the loop is short."""
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] if m > 1 else primes


# ---------------------------------------------------------------------------
# Polynomial helpers over the prime field (little-endian int tuples)
# ---------------------------------------------------------------------------


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    # Coefficients are reduced mod p only where a leading term is cancelled
    # and once at the end.
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # reduce modulo the monic polynomial `mod`
    deg = len(mod) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(deg):
                prod[i - deg + j] -= c * mod[j]
    return _poly_trim([c % p for c in prod[:deg]])


def _poly_powmod(base: tuple[int, ...], e: int, mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    cur = base
    while e:
        if e & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        # a mod b with b made monic
        inv_lead = pow(b[-1], -1, p)
        bm = tuple(c * inv_lead % p for c in b)
        r = list(a)
        while len(r) >= len(bm) and any(r):
            if r[-1]:
                c = r[-1]
                for j in range(len(bm)):
                    r[len(r) - len(bm) + j] = (r[len(r) - len(bm) + j] - c * bm[j]) % p
            r.pop()
        a, b = b, _poly_trim(r)
    return a


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial of degree >= 1 over the prime field."""
    k = len(f) - 1
    x = (0, 1)
    # x^(p^k) must equal x ...
    if _poly_powmod(x, p**k, f, p) != _poly_trim(list(x)):
        return False
    # ... and x^(p^(k/r)) - x must be coprime to f for every prime r | k.
    for r in _prime_factors(k):
        h = _poly_powmod(x, p ** (k // r), f, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(f, _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Explicit finite fields
# ---------------------------------------------------------------------------


class FFElement:
    """An element of an :class:`ExplicitField`, as a coefficient vector.

    Coefficients are little-endian modulo the field's defining polynomial.
    Arithmetic coerces plain integers, so mixed expressions like ``z * 2 - 1``
    work.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "ExplicitField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FFElement | None":
        if isinstance(other, FFElement):
            return other if other.field == self.field else None
        if isinstance(other, int):
            return self.field.from_int_mod(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        prod = _poly_mulmod(self.coeffs, o.coeffs, field.modulus, field.p)
        return FFElement(field, prod + (0,) * (field.k - len(prod)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = self.field.one
        cur = base
        while e:
            if e & 1:
                result = result * cur
            cur = cur * cur
            e >>= 1
        return result

    def inverse(self) -> "FFElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def to_int(self) -> int:
        """Integer encoding: sum of coeff_i * p^i."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def value_repr(self) -> int | list[int]:
        """JSON-friendly value: an int for prime fields, else the vector."""
        return self.coeffs[0] if self.field.k == 1 else list(self.coeffs)

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.k}:{list(self.coeffs)})"


class ExplicitField:
    """The finite field with p^k elements on a deterministic modulus."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # monic, little-endian, length k+1
        self.zero = FFElement(self, (0,) * k)
        self.one = self.from_int_mod(1)
        self.generator = self._find_generator()

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def from_int_mod(self, value: int) -> FFElement:
        """The image of an integer (a prime-field constant)."""
        return FFElement(self, (value % self.p,) + (0,) * (self.k - 1))

    def from_encoding(self, code: int) -> FFElement:
        """The element whose coefficient vector is the base-p digits of code."""
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return FFElement(self, tuple(digits))

    def elements(self):
        """Iterate all q elements in encoding order."""
        for code in range(self.q):
            yield self.from_encoding(code)

    def _find_generator(self) -> FFElement:
        order_primes = _prime_factors(self.q - 1)
        # Codes below p are prime-field constants: none generates a proper
        # extension's group.
        for code in range(self.p if self.k > 1 else 1, self.q):
            g = self.from_encoding(code)
            if all(g ** ((self.q - 1) // r) != self.one for r in order_primes):
                return g
        raise ArithmeticError("no generator found")  # pragma: no cover

    def __repr__(self):
        return f"ExplicitField({self.p}^{self.k})"


@lru_cache(maxsize=None)
def build_field(p: int, k: int) -> ExplicitField:
    """Build F_(p^k) on the smallest monic irreducible modulus of degree k.

    Instances are immutable after construction and memoized: repeated calls
    with the same arguments return the identical field object.
    """
    if k < 1:
        raise ValueError(f"degree must be positive, got {k}")
    # The size check comes first: it bounds the trial division below.
    if p**k > MAX_FIELD_SIZE:
        raise SizeBoundError(f"field size {p}^{k} exceeds the bound {MAX_FIELD_SIZE}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"characteristic must be prime, got {p}")
    if k == 1:
        return ExplicitField(p, 1, (0, 1))  # modulus x: plain prime field
    for code in range(p**k):
        digits = []
        c = code
        for _ in range(k):
            digits.append(c % p)
            c //= p
        candidate = tuple(digits) + (1,)
        if _is_irreducible(candidate, p):
            return ExplicitField(p, k, candidate)
    raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover


@lru_cache(maxsize=None)
def find_root_of_unity(E: ExplicitField, n: int) -> FFElement:
    """The deterministic primitive n-th root of unity: g^((q-1)/n), memoised."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if (E.q - 1) % n != 0:
        raise PreconditionError(f"no {n}-th roots of unity in a field of size {E.q}")
    return E.generator ** ((E.q - 1) // n)


def embed_root(E: ExplicitField, z: RootOfUnity) -> FFElement:
    """The concrete value of the exponent class z under the coherent embedding."""
    zeta = find_root_of_unity(E, z.denominator)
    return zeta**z.numerator


def evaluate_sum(E: ExplicitField, s: RootSum) -> FFElement:
    """Evaluate a formal sum of roots of unity in an explicit field."""
    total = E.zero
    for coeff, root in s.terms():
        total = total + embed_root(E, root) * coeff
    return total


@lru_cache(maxsize=None)
def _frobenius_matrix(E: ExplicitField, q: int) -> tuple[tuple[int, ...], ...]:
    """The matrix of the F_p-linear map x -> x^q on E, as a tuple of rows.

    The map is F_p-linear only when q is a power of the characteristic p,
    which every caller passes.  Column j is the image of the basis element x^j, namely (x^q)^j, built by
    repeated multiplication from one q-th power of x.
    """
    xq = E.from_encoding(E.p) ** q if E.k > 1 else E.one
    columns = [E.one]
    for _ in range(1, E.k):
        columns.append(columns[-1] * xq)
    return tuple(zip(*(c.coeffs for c in columns)))


def _frobenius(w: FFElement, q: int) -> FFElement:
    """w^q, as the memoised matrix of x -> x^q applied to w's coordinates."""
    E = w.field
    p, coeffs = E.p, w.coeffs
    return FFElement(
        E, tuple(sum(map(mul, row, coeffs)) % p for row in _frobenius_matrix(E, q))
    )


def brute_order(p: int, k: int, n: int) -> int:
    """Order of the n-th root over F_(p^k) by scan in the quadratic extension.

    Returns the smallest t >= 1 such that zeta_n^t lands in the base field,
    where membership is tested literally as being fixed by the q-power map.
    """
    E2 = build_field(p, 2 * k)
    zeta = find_root_of_unity(E2, n)
    q = p**k
    w = zeta
    for t in range(1, n + 1):
        if _frobenius(w, q) == w:
            return t
        w = w * zeta
    raise ArithmeticError("order scan failed")  # pragma: no cover


def brute_min_poly(p: int, k: int, n: int) -> tuple[FFElement, FFElement]:
    """(trace, norm) of the n-th root over F_(p^k), via the q-power map.

    Requires the extension to have degree exactly 2; both returned values are
    fixed by the q-power map (i.e. lie in the base field) and x^2 - trace*x +
    norm annihilates the chosen root.
    """
    E2 = build_field(p, 2 * k)
    zeta = find_root_of_unity(E2, n)
    q = p**k
    conj = _frobenius(zeta, q)
    if conj == zeta:
        raise PreconditionError(f"degree of the {n}-th root over F_{q} is 1, not 2")
    trace = zeta + conj
    norm = zeta * conj
    if _frobenius(trace, q) != trace or _frobenius(norm, q) != norm:  # pragma: no cover - sanity
        raise ArithmeticError("trace/norm not fixed by the q-power map")
    return trace, norm


def brute_moduli(p: int, k: int) -> set[tuple[int, int]]:
    """All roots of unity of degree 2 over F_(p^k), as (order, exponent) pairs.

    Scans every element of the quadratic extension's multiplicative group and
    keeps those not fixed by the q-power map.  The pair (n, j) identifies the
    element zeta_n^j under the deterministic embedding.
    """
    q = p**k
    if q * q > MAX_FIELD_SIZE:
        raise SizeBoundError(f"field size {q}^2 exceeds the bound {MAX_FIELD_SIZE}")
    E2 = build_field(p, 2 * k)
    g = E2.generator
    big = E2.q - 1
    result: set[tuple[int, int]] = set()
    w = E2.one
    for i in range(big):
        if i > 0 and _frobenius(w, q) != w:
            step = gcd(i, big)
            n = big // step
            result.add((n, i // step))
        w = w * g
    return result


def inseparable_orbit_related(
    ext: ExplicitField, a: FFElement, aprime: FFElement
) -> bool:
    """The orbit relation for inseparable quadratic classes in char 2:
    a ~ c^2 a' - b^2 for some nonzero c and some b, by exhaustive search.

    Over the perfect fields supported here this relates every pair (squaring
    is onto), confirming that the inseparable moduli space is empty.
    """
    if ext.p != 2:
        raise PreconditionError("the orbit relation applies in characteristic 2")
    elements = list(ext.elements())
    for c in elements:
        if c.is_zero:
            continue
        for b in elements:
            if a == c * c * aprime - b * b:
                return True
    return False


# ---------------------------------------------------------------------------
# Exact cyclotomic arithmetic over the rationals
# ---------------------------------------------------------------------------


def _int_polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (monic divisor)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):  # pragma: no cover - sanity
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _cyclotomic_tuple(n: int) -> tuple[int, ...]:
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic_tuple(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    return tuple(_int_polydiv_exact(num, den))


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients (little-endian) of the n-th cyclotomic polynomial.

    Computed by the recursive exact division of x^n - 1 by the product of the
    cyclotomic polynomials of the proper divisors of n.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return list(_cyclotomic_tuple(n))


class CycloRing:
    """Exact arithmetic in rational polynomials modulo the n-th cyclotomic
    polynomial — a concrete realization of the field generated over the
    rationals by a primitive n-th root of unity.

    Elements are little-endian tuples of Fractions of length phi(n).
    """

    def __init__(self, n: int):
        self.n = n
        self.modulus = [Fraction(c) for c in cyclotomic_poly(n)]
        self.degree = len(self.modulus) - 1

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        for i in range(len(coeffs) - 1, self.degree - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = Fraction(0)
                for j in range(self.degree):
                    coeffs[i - self.degree + j] -= c * self.modulus[j]
        coeffs = coeffs[: self.degree]
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def constant(self, value: Fraction | int) -> tuple[Fraction, ...]:
        return self._reduce([Fraction(value)])

    def zeta_power(self, j: int) -> tuple[Fraction, ...]:
        """The class of x^j (the j-th power of the chosen primitive root)."""
        j %= self.n
        coeffs = [Fraction(0)] * (j + 1)
        coeffs[j] = Fraction(1)
        return self._reduce(coeffs)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.degree - 1) if self.degree > 0 else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._reduce(prod)

    def scale(self, a, k: int | Fraction):
        return tuple(x * k for x in a)

    def embed_root(self, z: RootOfUnity) -> tuple[Fraction, ...]:
        """The class of the exponent j/d, requiring d to divide n."""
        if self.n % z.denominator != 0:
            raise ValueError(
                f"order {z.denominator} does not divide the ring order {self.n}"
            )
        return self.zeta_power(self.n // z.denominator * z.numerator)

    def as_rational(self, a) -> Fraction | None:
        """The value as a Fraction if it is a rational constant, else None."""
        if any(a[1:]):
            return None
        return a[0]


def evaluate_sum_rational(s: RootSum) -> Fraction:
    """Evaluate a formal sum of roots of unity as an exact rational number.

    Raises :class:`PreconditionError` if the value is irrational.
    """
    ring = CycloRing(s.lcm_order())
    total = ring.constant(0)
    for coeff, root in s.terms():
        total = ring.add(total, ring.scale(ring.embed_root(root), coeff))
    value = ring.as_rational(total)
    if value is None:
        raise PreconditionError(f"sum {s} is not a rational number")
    return value


def rational_min_poly(n: int) -> tuple[int, int, int]:
    """The monic quadratic satisfied by the primitive n-th root over the
    rationals, as ascending integer coefficients (c0, c1, 1).

    Only defined when the extension has degree 2 (phi(n) = 2, exactly two
    units 1 and j below n; counting stops at a third).  Computed by expanding
    (x - z)(x - z^j) in the explicit cyclotomic ring.
    """
    units = list(islice((j for j in range(1, n) if gcd(j, n) == 1), 3))
    if len(units) != 2:
        raise PreconditionError(f"degree over the rationals is phi({n}) != 2")
    ring = CycloRing(n)
    z1 = ring.zeta_power(1)
    z2 = ring.zeta_power(units[1])
    trace = ring.as_rational(ring.add(z1, z2))
    norm = ring.as_rational(ring.mul(z1, z2))
    if trace is None or norm is None:  # pragma: no cover - sanity
        raise ArithmeticError("trace/norm failed to be rational")
    if trace.denominator != 1 or norm.denominator != 1:  # pragma: no cover
        raise ArithmeticError("trace/norm failed to be integral")
    return (int(norm), -int(trace), 1)
