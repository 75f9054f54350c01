"""Seeded input generation for the three benchmark workloads.

Every input is drawn from fixed strata with a fixed count per stratum, so
that runs with different seeds do comparable work.  Strata whose members
differ widely in cost are cut into bands of similar predicted work, and a
seed draws one member per band.  All arithmetic here is plain-integer code
of the benchmark's own; nothing is imported from the package under test.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

#: Largest q with q^2 - 1 < 2^63, the package's factorization input limit.
MAX_LARGE_Q = 3037000499
#: Smallest large field drawn.
MIN_LARGE_Q = 1 << 30
#: A prime above this bound survives the package's trial-division stage.
TRIAL_LIMIT = 1 << 20

WORKLOADS = ("verify-sweep", "cli-report", "lib-sweep")

#: Inputs outside the documented size bounds.  Each must get an answer or
#: exit code 4; they are timed apart from the workload's metrics.
PROBES = (
    ("analyze", "--field", "Q", "--n", "99999999999999999999"),
    ("moduli", "--field", "q:2^100"),
    ("classify", "--field", "q:4294967291"),
)


# ---------------------------------------------------------------------------
# Plain-integer arithmetic
# ---------------------------------------------------------------------------


def factor(m: int) -> dict[int, int]:
    """Prime factorization by trial division (m up to about 2^64)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(m: int) -> bool:
    return m > 1 and factor(m) == {m: 1}


def merge(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for r, e in b.items():
        out[r] = out.get(r, 0) + e
    return out


@lru_cache(maxsize=None)
def square_minus_one_factors(q: int) -> dict[int, int]:
    """Factorization of q^2 - 1, from the factorizations of q - 1 and q + 1."""
    return merge(factor(q - 1), factor(q + 1))


def divisors(fs: dict[int, int]) -> list[int]:
    ds = [1]
    for r, e in fs.items():
        ds = [d * r**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def valuation(m: int, r: int) -> int:
    v = 0
    while m % r == 0:
        m //= r
        v += 1
    return v


def factor_with(n: int, fs: dict[int, int]) -> dict[int, int]:
    """Factorization of a divisor n of a number whose factorization is fs."""
    return {r: v for r in fs if (v := valuation(n, r))}


def order_by_multiplication(q: int, n: int) -> int:
    """The multiplicative order of q modulo n, by repeated multiplication."""
    if n == 1:
        return 1
    x, t = q % n, 1
    while x != 1:
        x = x * q % n
        t += 1
    return t


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; raises for a q that is not a prime power."""
    fs = factor(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, k),) = fs.items()
    return p, k


def field_spec(q: int) -> str:
    p, k = prime_power(q)
    return f"q:{p}" if k == 1 else f"q:{p}^{k}"


def is_quadratic(q: int, n: int) -> bool:
    return (q * q - 1) % n == 0 and (q - 1) % n != 0


def scan_work(q: int) -> int:
    """Predicted work of ``verify`` on F_q, in field multiplications.

    The brute-force order scan raises zeta_n to every t up to the order of
    zeta_n in K*/F*, and tests each power with a q-th power.  Only the
    ranking matters: it cuts the verify primes into bands of similar cost.
    """
    q_cost = q.bit_length() + bin(q).count("1")
    work = 0
    for n in divisors(square_minus_one_factors(q)):
        order = n // gcd(n, q - 1)
        work += sum(t.bit_length() + bin(t).count("1") for t in range(1, order + 1))
        work += order * q_cost
    return work


def bands(pool: list[int], count: int, key) -> list[list[int]]:
    """Split the pool, sorted by key, into count contiguous bands."""
    ranked = sorted(pool, key=key)
    return [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count]
            for i in range(count)]


def big_part(fs: dict[int, int]) -> int:
    """The product of the prime powers whose prime exceeds TRIAL_LIMIT."""
    out = 1
    for r, e in fs.items():
        if r > TRIAL_LIMIT:
            out *= r**e
    return out


def draw_large_fields(rng: random.Random, count: int) -> list[int]:
    """Primes q with q^2 - 1 < 2^63 whose q^2 - 1 keeps a cofactor of at
    least 2^40 after trial division to 2^20, so that factorizing it needs
    the full trial stage and then Pollard rho."""
    out: list[int] = []
    while len(out) < count:
        q = rng.randrange(MIN_LARGE_Q, MAX_LARGE_Q + 1) | 1
        if q in out or not is_prime(q):
            continue
        if big_part(square_minus_one_factors(q)) >= 1 << 40:
            out.append(q)
    return out


def prime_powers(lo: int, hi: int) -> list[int]:
    """All prime powers q with lo <= q < hi."""
    out = []
    for q in range(max(lo, 2), hi):
        fs = factor(q)
        if len(fs) == 1:
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------

# verify-sweep.  Primes in this window cost 0.1 to 0.6 s each; powers of 2
# stop at 2^7 and odd prime powers at 3^5 because 2^8 .. 2^10 and 7^3 or
# 17^2 and above take 1 to 9 s each and would dominate the run.  Every
# pass runs all the powers: their cost does not follow scan_work (3^5 takes
# 0.9 s, 13^2 0.6 s), so a draw among them moved the tail from seed to seed.
VERIFY_PRIME_RANGE = (100, 350)
VERIFY_PRIME_BANDS = 10
VERIFY_POW2 = (2**5, 2**6, 2**7)
VERIFY_ODD_POWERS = (7**2, 3**4, 5**3, 11**2, 13**2, 3**5)

# cli-report.  Small fields are primes, one from each of CLI_SMALL_FIELDS
# bands of q: building F_(q^2) costs about q^2, and the median latency of
# a pass falls among these operations, so every seed draws the same spread
# of sizes.  (2^10 builds cheaper and prime powers differ again; the
# verify-sweep workload covers both.)  The large fields give 6 of the 20
# operations of a pass, so the tail percentile (about p83) falls well inside
# their latencies rather than at the edge between them and the small fields.
CLI_Q_ANALYZE = 4
CLI_Q_N_RANGE = (3, 64)
CLI_SMALL_RANGE = (724, 1025)  # q^2 between 2^19 and 2^20
CLI_SMALL_FIELDS = 4
CLI_LARGE_FIELDS = 3

# lib-sweep.  A query over a prime power costs 1.5 to 7 times one over a
# prime of the same size, and the median query is over a prime, so the
# prime powers form their own strata: drawn among the bands, a seed with
# two of them (2^8 and 7^3) had the highest op_p50_ms of ten.
LIB_SMALL_RANGE = (50, 1025)
LIB_SMALL_FIELDS = 6
LIB_SMALL_CAP = 16
LIB_LARGE_FIELDS = 2
LIB_LARGE_HARD = 2
LIB_LARGE_EASY = 10


def _cli_op(stratum: str, argv: list[str], q: int | None = None,
            n: int | None = None) -> dict:
    return {"stratum": stratum, "argv": argv, "q": q, "n": n}


def verify_sweep(seed: int) -> list[dict]:
    rng = random.Random(seed)
    primes = [q for q in range(*VERIFY_PRIME_RANGE) if is_prime(q)]
    ops = []
    for band in bands(primes, VERIFY_PRIME_BANDS, scan_work):
        ops.append(("prime", rng.choice(band)))
    for q in VERIFY_POW2:
        ops.append(("pow2", q))
    for q in VERIFY_ODD_POWERS:
        ops.append(("odd-power", q))
    rng.shuffle(ops)
    return [_cli_op(s, ["verify", "--field", field_spec(q)], q) for s, q in ops]


def _quadratic_orders(q: int) -> list[int]:
    return [n for n in divisors(square_minus_one_factors(q)) if is_quadratic(q, n)]


def cli_report(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for n in rng.sample(range(*CLI_Q_N_RANGE), CLI_Q_ANALYZE):
        ops.append(_cli_op("rational", ["analyze", "--field", "Q", "--n", str(n)], None, n))
    ops.append(_cli_op("rational", ["moduli", "--field", "Q"]))
    ops.append(_cli_op("rational", ["classify", "--field", "Q"]))
    small = [q for q in range(*CLI_SMALL_RANGE) if is_prime(q)]
    for band in bands(small, CLI_SMALL_FIELDS, key=lambda q: q):
        q = rng.choice(band)
        spec = field_spec(q)
        n = rng.choice(_quadratic_orders(q))
        ops.append(_cli_op("small", ["analyze", "--field", spec, "--n", str(n)], q, n))
        ops.append(_cli_op("small", ["classify", "--field", spec], q))
    for q in draw_large_fields(rng, CLI_LARGE_FIELDS):
        spec = field_spec(q)
        ops.append(_cli_op("large", ["classify", "--field", spec], q))
        ops.append(_cli_op("large", ["moduli", "--field", spec], q))
    rng.shuffle(ops)
    return ops


def lib_sweep(seed: int) -> list[dict]:
    """Fields with the quadratic orders queried over each.

    Small fields, one prime from each of LIB_SMALL_FIELDS bands of field
    size, one power of 2 and one odd prime power, take up to LIB_SMALL_CAP
    of their quadratic orders.  Large
    fields take LIB_LARGE_HARD orders divisible by a cofactor of at least
    2^40 that survives trial division, and LIB_LARGE_EASY others, so each
    seed puts the same number of expensive factorizations into the run.
    """
    rng = random.Random(seed)
    fields = []
    small = prime_powers(*LIB_SMALL_RANGE)
    primes = [q for q in small if is_prime(q)]
    picks = [rng.choice(band) for band in bands(primes, LIB_SMALL_FIELDS, key=lambda q: q)]
    picks.append(rng.choice([q for q in small if q & (q - 1) == 0]))
    picks.append(rng.choice([q for q in small if q % 2 and q not in primes]))
    for q in picks:
        orders = _quadratic_orders(q)
        fields.append({"q": q, "stratum": "small",
                       "orders": sorted(rng.sample(orders, min(LIB_SMALL_CAP, len(orders))))})
    for q in draw_large_fields(rng, LIB_LARGE_FIELDS):
        fs = square_minus_one_factors(q)
        hard, easy = [], []
        for n in _quadratic_orders(q):
            (hard if big_part(factor_with(n, fs)) >= 1 << 40 else easy).append(n)
        chosen = rng.sample(hard, LIB_LARGE_HARD) + rng.sample(easy, LIB_LARGE_EASY)
        fields.append({"q": q, "stratum": "large", "orders": sorted(chosen)})
    for f in fields:
        f["p"], f["k"] = prime_power(f["q"])
    return fields


def generate(workload: str, seed: int):
    if workload == "verify-sweep":
        return verify_sweep(seed)
    if workload == "cli-report":
        return cli_report(seed)
    if workload == "lib-sweep":
        return lib_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")
