"""Exact integer and modular arithmetic primitives.

Everything downstream (root-of-unity algebra, field profiles, moduli
descriptions) reduces to the handful of operations here: factorization,
primality, p-adic valuations, Euler's totient, multiplicative orders and the
Chinese remainder theorem.  All functions are pure and operate on plain
integers.

The trial stage of :func:`factorize` walks the primes below 8000, up to the
square root of what is left.  The cofactor left over is prime when it is
below the square of the largest table prime; otherwise :func:`is_prime`
decides it, and Brent's rho with batched gcds splits it when composite.  Over
``F_q`` the moduli layer and the CLI factor ``q - 1`` and ``q + 1`` apart,
never ``q^2 - 1`` (``field_profile.prime_basis``).  :func:`is_prime`
reads a sieve below 8000 and above runs Miller-Rabin on the first j prime
bases, for the least j with n below psi_j, the least strong pseudoprime to
them (OEIS A014233; G. Jaeschke, Math. Comp. 61 (1993) 915-926; Y. Jiang and
Y. Deng, Math. Comp. 83 (2014) 2915-2924).  :func:`factorize` refuses inputs
above :data:`MAX_FACTOR_INPUT` and :func:`is_prime` inputs at or above
psi_12; :func:`eps`, which takes only valuations, has no size bound.

Residues are represented by the immutable :class:`ResidueClass`, which stores
a value already reduced into ``[0, modulus)``.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

from ._value import Value
from .errors import SizeBoundError

__all__ = [
    "MAX_FACTOR_INPUT",
    "ResidueClass",
    "crt",
    "eps",
    "euler_phi",
    "factorize",
    "is_prime",
    "mult_order",
]

#: Largest integer :func:`factorize` accepts (64-bit signed range).
MAX_FACTOR_INPUT = 2**63 - 1

#: Steps of Brent's rho between two gcds.
_RHO_BATCH = 128

#: The Miller-Rabin bases of :func:`is_prime`, the 12 primes up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: psi_j for j = 1..12 (OEIS A014233): the least strong pseudoprime to the
#: first j of :data:`_MR_BASES`, so those j bases decide every n below it.
#: psi_12 = 399165290221 * 798330580441 bounds :func:`is_prime`.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461)


def _sieve(limit: int) -> bytearray:
    """Entry n is 1 exactly when n is prime, for n below ``limit``."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return sieve


#: Primality flags below 8000, read by :func:`is_prime`.
_SIEVE = _sieve(8000)
#: The trial divisors of :func:`factorize`: the 1,007 primes below 8000.
_SMALL_PRIMES = (2, *compress(range(3, 8000, 2), _SIEVE[3::2]))


class ResidueClass(Value):
    """A residue ``value`` modulo ``modulus``, normalized to ``[0, modulus)``."""

    value: int
    modulus: int
    _arithmetic_hint = "residue classes combine by .value arithmetic or crt(), not + or *"

    def __new__(cls, value: int, modulus: int) -> "ResidueClass":
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return tuple.__new__(cls, (value % modulus, modulus))

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


def is_prime(n: int) -> bool:
    """Deterministic primality test: the sieve below 8000, above it
    Miller-Rabin with the first j prime bases up to 37, for the least j with
    n below psi_j (see the module docstring).  Exact below psi_12, the least
    strong pseudoprime to all 12 bases; inputs at or above it raise
    :class:`SizeBoundError`.
    """
    if n < 2:
        return False
    if n < len(_SIEVE):
        return _SIEVE[n] == 1
    if n >= _PSI[-1]:
        raise SizeBoundError(
            f"is_prime input out of range: {n.bit_length()} bits,"
            f" at or above psi_12 = {_PSI[-1]}"
        )
    if gcd(n, 7420738134810) > 1:  # the product of the 12 bases
        return False
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of a composite n with no prime factor in the table.

    Brent's variant of Pollard's rho (R. P. Brent, BIT 20 (1980) 176-184):
    the cycle search compares ``x`` with the iterates of ``y`` over windows
    of doubling length, and the differences are multiplied together mod n so
    that one gcd serves :data:`_RHO_BATCH` steps.  When a batch's gcd is n,
    the steps of that batch are replayed one gcd at a time.  Polynomials
    ``x^2 + c`` are tried for ``c = 1, 2, ...`` until one splits n.
    """
    for c in range(1, 100):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")  # pragma: no cover


def factorize(n: int) -> list[tuple[int, int]]:
    """Return the prime factorization of n as (prime, exponent) pairs.

    Pairs are sorted by ascending prime; ``factorize(1) == []``.  Inputs
    below 1 raise ValueError, inputs above :data:`MAX_FACTOR_INPUT` raise
    :class:`SizeBoundError`.  Each call returns a fresh list.
    """
    if n < 1:
        raise ValueError(f"factorize input out of range: {n}")
    if n > MAX_FACTOR_INPUT:
        raise SizeBoundError(
            f"factorize input out of range: {n.bit_length()} bits,"
            f" above {MAX_FACTOR_INPUT}"
        )
    return _factorize(n)


def _factorize(n: int) -> list[tuple[int, int]]:
    """The factorization of a validated n."""
    factors: dict[int, int] = {}
    rest = n
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    # Every number on the stack divides what the table left, so it has no
    # prime factor in the table: below the square of the largest table prime
    # it is prime.
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m < _SMALL_PRIMES[-1] ** 2 or is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack += (d, m // d)
    return sorted(factors.items())


def eps(n: int, p: int) -> int:
    """The largest e with p^e dividing n, for n >= 1 and any p >= 2: the
    p-adic valuation when p is prime.  It does not test p for primality;
    the public functions that take a prime from a caller test it once."""
    if n < 1 or p < 2:
        raise ValueError(f"eps needs n >= 1 and p >= 2, got n={n}, p={p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def euler_phi(n: int) -> int:
    """Euler's totient of n."""
    result = 1
    for p, e in factorize(n):
        result *= p ** (e - 1) * (p - 1)
    return result


def mult_order(a: int, m: int) -> int:
    """The multiplicative order of a modulo m (requires gcd(a, m) = 1)."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"mult_order requires gcd(a, m) = 1, got a={a}, m={m}")
    if m == 1:
        return 1
    # The order divides phi(m); strip each prime of phi(m) while possible.
    t = euler_phi(m)
    for p, _ in factorize(t):
        while t % p == 0 and pow(a, t // p, m) == 1:
            t //= p
    return t


def crt(classes: list[tuple[int, int]]) -> ResidueClass:
    """Combine (value, modulus) pairs, such as :class:`ResidueClass` values,
    with pairwise-coprime positive moduli into one class.

    Returns the unique class modulo the product of the moduli; no pairs
    yield the trivial class 0 mod 1.
    """
    value, modulus = 0, 1
    for v, m in classes:
        if m < 1 or gcd(modulus, m) != 1:
            raise ValueError(
                f"crt moduli must be positive and pairwise coprime; {m} clashes with {modulus}"
            )
        # value + modulus*t == v (mod m)
        t = (v - value) * pow(modulus, -1, m) % m
        value += modulus * t
        modulus *= m
    return ResidueClass(value, modulus)
