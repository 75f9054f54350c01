"""Independent brute-force layer: explicit finite fields and exact cyclotomic
arithmetic over the integers.

This module uses none of the formula-based classification modules: orders are
found from the group order q + 1 alone, minimal polynomials by applying the
q-power map, and rational values by writing a sum of roots of unity as a
polynomial in one primitive root and reducing it once modulo the cyclotomic
polynomial.  Its integer helpers are its own: trial division finds the primes
of the numbers it meets (q - 1, p and gcd(n, q + 1) below the field bound,
the degree k, the order of a rational sum), and the rational degree check
counts units.  From ``roots`` it takes only the exponent-class types
``RootOfUnity`` and ``RootSum``, which :func:`evaluate_sum` realizes.  No
formula module imports it, so ``import cyclokit`` does not load it: only the
CLI's ``analyze`` and ``verify``, which realize concrete values and
cross-check them, and the test suite do.  Agreement of the two layers is the
point.  It holds what the CLI and the benchmark realize or cross-check, and
:func:`brute_moduli`, the exhaustive moduli the tests check the moduli
formulas against; the characteristic-2 orbit search, a reference of the tests
alone, lives in the test suite.

An element of an explicit field is one packed int, and a product is one
big-int multiplication and a Barrett reduction (see :class:`ExplicitField`).
The q-power test ("is w fixed by x -> x^q?") never raises w to the q-th
power.  x -> x^q is F_p-linear on coordinates, so each field memoises its
matrix once: the columns are the images of the basis 1, x, ..., x^(k-1),
computed with the field's own multiplication, packed by rows so that a test
is one product.  :func:`brute_order` tests the powers of zeta_n that the
group order q + 1 allows, and :func:`brute_moduli` steps through K* by one
multiplication per element.  No discrete logarithm enters, nor the formula
layer's own reasoning.

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

from functools import lru_cache
from itertools import islice, product
from math import gcd

from .errors import PreconditionError, SizeBoundError
from .roots import RootOfUnity, RootSum

__all__ = [
    "MAX_FIELD_SIZE",
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
    "rational_min_poly",
]

#: Hard ceiling on explicit field sizes p^k.
MAX_FIELD_SIZE = 1 << 20
#: Memo bounds: a command needs one field (F_(q^2)) and its Frobenius matrix, and
#: :func:`find_root_of_unity` under 256 root orders, since no number below 2^20
#: has more than 240 divisors.
_FIELDS_KEPT, _ORDERS_KEPT = 4, 256


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, by trial division (none for m < 2).
    The field callers pass numbers below the field bound, so the loop is
    short; the rational ones pass an order n, whose Phi_n costs far more."""
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
# Explicit finite fields
# ---------------------------------------------------------------------------


def _arithmetic(op):
    """An FFElement operator from op(field, value, other's value) -> value."""

    def method(self, other):
        o = self._value_of(other)
        return NotImplemented if o is None else FFElement(self.field, op(self.field, self.value, o))

    return method


class FFElement:
    """An element of an :class:`ExplicitField`: ``value`` is the field's
    packed int (see there), ``coeffs`` the little-endian coefficient vector
    modulo the defining polynomial that it packs.

    Arithmetic coerces plain integers, so mixed expressions like ``z * 2 - 1``
    work.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "ExplicitField", value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field._coords(self.value)

    def _value_of(self, other) -> int | None:
        """The packed value of other in this field, or None."""
        if isinstance(other, int):
            return other % self.field.p
        if isinstance(other, FFElement) and other.field == self.field:
            return other.value
        return None

    __add__ = __radd__ = _arithmetic(lambda E, a, b: E._slotmod(a + b))
    __sub__ = _arithmetic(lambda E, a, b: E._sub(a, b))
    __rsub__ = _arithmetic(lambda E, a, b: E._sub(b, a))
    __mul__ = __rmul__ = _arithmetic(lambda E, a, b: E._mul(a, b))
    __truediv__ = _arithmetic(lambda E, a, b: E._mul(a, E._inverse(b)))
    __rtruediv__ = _arithmetic(lambda E, a, b: E._mul(b, E._inverse(a)))

    def __neg__(self):
        return FFElement(self.field, self.field._sub(0, self.value))

    def __pow__(self, e: int):
        E = self.field
        return FFElement(E, E._pow(self.value if e >= 0 else E._inverse(self.value), abs(e)))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        o = self._value_of(other)
        return NotImplemented if o is None else self.value == o

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.value))

    def to_int(self) -> int:
        """Integer encoding: sum of coeff_i * p^i."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.k}:{list(self.coeffs)})"


class ExplicitField:
    """The ring F_p[x]/(f) for a monic f of degree k: the field with p^k
    elements on a deterministic modulus, as :func:`build_field` returns it.

    An element is one int.  Coefficient i sits in slot i, bits [i*W, (i+1)*W),
    and the slot width W leaves room for every sum made before a reduction,
    so one big-int product of two elements is their polynomial product with
    each slot an exact integer coefficient (Kronecker substitution).  Every
    slot is reduced mod p at once: by a mask when p = 2, else by a Barrett
    step, floor(v/p) = (v*m) >> t, whose bits from the next slot are masked
    off.  The reduction mod f is Barrett's quotient, exact for polynomials:
    with mu = floor(x^(2k)/f), the quotient of A = a*b is
    floor(floor(A/x^k) * mu / x^k).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = modulus  # monic, little-endian, length k+1
        bound = 2 * k * (p - 1) ** 2 + p  # no slot reduced below exceeds it
        t = (bound * p).bit_length()  # (v*m) >> t is exact for v <= bound
        m = -(-(1 << t) // p)
        # A slot holds v*m for the Barrett step; p = 2 masks instead
        self._width = width = (bound * (m if p > 2 else 1)).bit_length()
        self._kw, self._slot = k * width, (1 << width) - 1
        # 1 in each of the 2k^2 slots that _frobenius_matrix's product fills
        self._ones = ones = ((1 << (2 * k * k * width)) - 1) // self._slot
        # p = 2 masks, so its quotient mask is 0
        self._barrett = (p, m, t, ones * ((1 << max(width - t, 0)) - 1))
        # A multiple of p in every slot of a product, above any slot of
        # quotient * f, so that subtracting it leaves no slot negative
        self._pad = self._pack([-(-k * (p - 1) ** 2 // p) * p] * (2 * k))
        rem, mu = [0] * (2 * k) + [1], [0] * (k + 1)  # x^(2k) = mu*f + rem
        for i in range(k, -1, -1):
            c = mu[i] = rem[i + k] % p
            for j, fj in enumerate(modulus):
                rem[i + j] -= c * fj
        self._mu, self._f = self._pack(mu), self._pack(modulus)
        self.zero, self.one = FFElement(self, 0), FFElement(self, 1)
        self._generator = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExplicitField) and (self.p, self.modulus) == (other.p, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def _pack(self, coeffs) -> int:
        return sum(c << (i * self._width) for i, c in enumerate(coeffs))

    def _coords(self, a: int) -> tuple[int, ...]:
        return tuple((a >> s) & self._slot for s in range(0, self._kw, self._width))

    def _slotmod(self, x: int) -> int:
        """Every slot of x (none above the bound) mod p."""
        if self.p == 2:
            return x & self._ones
        p, m, t, quotient_mask = self._barrett
        return x - p * (((x * m) >> t) & quotient_mask)

    def _sub(self, a: int, b: int) -> int:
        return self._slotmod(a + self._pad - b)

    def _mul(self, a: int, b: int) -> int:
        """The product: one big-int multiplication, then A - quotient * f
        with Barrett's quotient, whose high slots come out 0 mod p."""
        x = a * b
        h = x >> self._kw
        if h:
            slotmod = self._slotmod
            x += self._pad - slotmod((slotmod(h) * self._mu) >> self._kw) * self._f
        return self._slotmod(x)

    def _pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul(result, a)
            e >>= 1
            if e:
                a = self._mul(a, a)
        return result

    def _inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._pow(a, self.q - 2)

    def _is_irreducible(self) -> bool:
        """Rabin's test of the modulus (degree k >= 2) on this product:
        x^(p^k) = x, and x^(p^(k/r)) - x is a unit for every prime r | k.
        Once x^(p^k) = x, the ring is a product of fields F_(p^d) with d | k,
        so u is a unit exactly when u^(p^k - 1) = 1."""
        x = 1 << self._width
        return self._pow(x, self.q) == x and all(
            self._pow(self._sub(self._pow(x, self.p ** (self.k // r)), x), self.q - 1) == 1
            for r in _prime_factors(self.k)
        )

    def from_encoding(self, code: int) -> FFElement:
        """The element whose coefficient vector is the base-p digits of code."""
        return FFElement(self, self._pack(code // self.p**i % self.p for i in range(self.k)))

    @property
    def generator(self) -> FFElement:
        """The smallest generator of the multiplicative group, found on first
        use.  Codes below p are prime-field constants: none generates a proper
        extension's group."""
        if self._generator is None:
            cofactors = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
            self._generator = next(
                g for g in map(self.from_encoding, range(self.p if self.k > 1 else 1, self.q))
                if all(self._pow(g.value, c) != 1 for c in cofactors)
            )
        return self._generator

    def __repr__(self):
        return f"ExplicitField({self.p}^{self.k})"


def _exceeds_bound(p: int, k: int) -> bool:
    """Whether p^k > MAX_FIELD_SIZE, by bit length first: no huge power is
    computed."""
    return (p.bit_length() - 1) * k >= MAX_FIELD_SIZE.bit_length() or p**k > MAX_FIELD_SIZE


@lru_cache(maxsize=_FIELDS_KEPT)
def build_field(p: int, k: int) -> ExplicitField:
    """Build F_(p^k) on the smallest monic irreducible modulus of degree k.

    Instances are immutable after construction and memoized: while a field
    is among the last few built, a repeated call returns the identical object.
    """
    if k < 1:
        raise ValueError(f"degree must be positive, got {k}")
    # The size check comes first: it bounds the trial division below.
    if _exceeds_bound(p, k):
        raise SizeBoundError(f"field size {p}^{k} exceeds the bound {MAX_FIELD_SIZE}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"characteristic must be prime, got {p}")
    if k == 1:
        return ExplicitField(p, 1, (0, 1))  # modulus x: plain prime field
    # Ascending codes: the leading digit of `digits` is the coefficient of x^(k-1).
    for digits in product(range(p), repeat=k):
        candidate = ExplicitField(p, k, digits[::-1] + (1,))
        if candidate._is_irreducible():
            return candidate
    raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover


@lru_cache(maxsize=_ORDERS_KEPT)
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


@lru_cache(maxsize=_FIELDS_KEPT)
def _frobenius_matrix(E: ExplicitField, q: int) -> tuple[int, int]:
    """The matrix of x -> x^q minus the identity on E, packed so that one
    product applies it, and the mask of the slots that hold the result.

    The map is F_p-linear only when q is a power of the characteristic p,
    which every caller passes.  Column j is the image of the basis element
    x^j, namely (x^q)^j, built by repeated multiplication from one q-th power
    of x.  Row r, reversed, sits in block r of 2k-1 slots, so in
    ``a * rows`` the middle slot of block r is coordinate r of a^q - a.
    """
    k, width = E.k, E._width
    block, mid = (2 * k - 1) * width, (k - 1) * width
    xq, column, rows, mids = E._pow(1 << width, q), 1, 0, 0
    for j in range(k):
        for r, coeff in enumerate(E._coords(column)):
            rows += ((coeff - (r == j)) % E.p) << (r * block + mid - j * width)
        mids += E._slot << (j * block + mid)
        column = E._mul(column, xq)
    return rows, mids


def _frobenius(w: FFElement, q: int) -> FFElement:
    """w^q, as the memoised matrix of x -> x^q applied to w by one product."""
    E = w.field
    y = w.value * _frobenius_matrix(E, q)[0]
    block, mid = (2 * E.k - 1) * E._width, (E.k - 1) * E._width
    moved = E._pack((y >> (r * block + mid)) & E._slot for r in range(E.k))
    return FFElement(E, E._slotmod(moved + w.value))


def brute_order(p: int, k: int, n: int) -> int:
    """Order of the n-th root over F_(p^k) in K*/F*, K the quadratic extension.

    The order divides n and, by Lagrange, |K*/F*| = q + 1, so it divides
    t = gcd(n, q + 1): starting there, each prime r of t is stripped while
    zeta_n^(t/r) still lands in the base field, where membership is tested
    literally as being fixed by the q-power map.  Only the group order q + 1
    enters, never the formula layer's gcd(n, q - 1).
    """
    E2 = build_field(p, 2 * k)
    zeta = find_root_of_unity(E2, n).value
    (rows, mids), slotmod = _frobenius_matrix(E2, p**k), E2._slotmod
    t = gcd(n, p**k + 1)
    for r in _prime_factors(t):
        while t % r == 0 and not slotmod((E2._pow(zeta, t // r) * rows) & mids):
            t //= r
    return t


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
    E2 = build_field(p, 2 * k)
    g = E2.generator.value
    (rows, mids), mul, slotmod = _frobenius_matrix(E2, p**k), E2._mul, E2._slotmod
    big = E2.q - 1
    result: set[tuple[int, int]] = set()
    w = 1
    for i in range(big):
        if i > 0 and slotmod((w * rows) & mids):  # w^q - w != 0
            step = gcd(i, big)
            result.add((big // step, i // step))
        w = mul(w, g)
    return result


# ---------------------------------------------------------------------------
# Exact cyclotomic arithmetic over the integers
# ---------------------------------------------------------------------------


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients (little-endian) of the n-th cyclotomic polynomial.

    Phi_n is the product of (x^(n/m) - 1)^mu(m) over the squarefree divisors
    m of n, and has degree phi(n), the sum of mu(m) * n/m.  Each binomial has
    constant term -1, so it is a unit among power series truncated at that
    degree, and multiplying or dividing by x^d - 1 is the same pass,
    s[i] = s[i - d] - s[i]: downwards it reads the old s[i - d] and
    multiplies, upwards the new one and divides.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    squarefree = [(1, 1)]  # (m, mu(m))
    for r in _prime_factors(n):
        squarefree += [(m * r, -mu) for m, mu in squarefree]
    degree = sum(mu * n // m for m, mu in squarefree)
    series = [1] + [0] * degree
    for m, mu in squarefree:
        d = n // m
        for i in (range(degree, -1, -1) if mu > 0 else range(degree + 1)):
            series[i] = (series[i - d] if i >= d else 0) - series[i]
    return series


def _integer_value(terms, L: int) -> int | None:
    """The sum of c * zeta_L^e over the (c, e) terms, as an int if it is
    rational, else None.  The exponents are reduced mod L, and then the
    polynomial once mod Phi_L.  Phi_L is monic with integer coefficients, so
    the reduction never divides.  What remains is the value on the basis
    1, zeta_L, ..., zeta_L^(phi(L) - 1), rational exactly when only its
    constant term is nonzero."""
    modulus = cyclotomic_poly(L)
    degree = len(modulus) - 1
    poly = [0] * L
    for c, e in terms:
        poly[e % L] += c
    for i in range(L - 1, degree - 1, -1):
        c = poly[i]
        if c:
            for j in range(degree):
                poly[i - degree + j] -= c * modulus[j]
    return None if any(poly[1:degree]) else poly[0]


def evaluate_sum_rational(s: RootSum) -> int:
    """Evaluate a formal sum of roots of unity as an exact rational number,
    which is an integer: the sum is an algebraic integer.

    Raises :class:`PreconditionError` if the value is irrational.
    """
    L = s.lcm_order()
    value = _integer_value(((c, L // z.denominator * z.numerator) for c, z in s.terms()), L)
    if value is None:
        raise PreconditionError(f"sum {s} is not a rational number")
    return value


def rational_min_poly(n: int) -> tuple[int, int, int]:
    """The monic quadratic satisfied by the primitive n-th root over the
    rationals, as ascending integer coefficients (c0, c1, 1).

    Only defined when the extension has degree 2 (phi(n) = 2, exactly two
    units 1 and j below n; counting stops at a third).  The conjugates are z
    and z^j, so the trace is z + z^j and the norm the single root z^(1 + j),
    each reduced mod Phi_n.
    """
    units = list(islice((j for j in range(1, n) if gcd(j, n) == 1), 3))
    if len(units) != 2:
        raise PreconditionError(f"degree over the rationals is phi({n}) != 2")
    j = units[1]
    trace = _integer_value([(1, 1), (1, j)], n)
    norm = _integer_value([(1, 1 + j)], n)
    if trace is None or norm is None:  # pragma: no cover - sanity
        raise ArithmeticError("trace/norm failed to be rational")
    return (norm, -trace, 1)
