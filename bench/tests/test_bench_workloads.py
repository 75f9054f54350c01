from collections import Counter

import pytest

import workloads as w


@pytest.mark.parametrize("name", w.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert w.generate(name, 7) == w.generate(name, 7)


@pytest.mark.parametrize("name", w.WORKLOADS)
def test_seeds_differ(name):
    assert w.generate(name, 1) != w.generate(name, 2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_sweep_strata_counts(seed):
    ops = w.generate("verify-sweep", seed)
    counts = Counter(op["stratum"] for op in ops)
    assert counts == {"prime": w.VERIFY_PRIME_BANDS, "pow2": len(w.VERIFY_POW2),
                      "odd-power": len(w.VERIFY_ODD_POWERS)}
    for op in ops:
        q = op["q"]
        assert q <= 1024 and q * q <= 1 << 20
        p, k = w.prime_power(q)
        assert {"prime": k == 1, "pow2": p == 2 and k > 1,
                "odd-power": p > 2 and k > 1}[op["stratum"]]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cli_report_strata_counts(seed):
    ops = w.generate("cli-report", seed)
    counts = Counter(op["stratum"] for op in ops)
    assert counts == {"rational": w.CLI_Q_ANALYZE + 2, "small": 2 * w.CLI_SMALL_FIELDS,
                      "large": 2 * w.CLI_LARGE_FIELDS}
    for op in ops:
        if op["stratum"] == "large":
            assert op["q"] ** 2 - 1 < 2**63
            assert w.big_part(w.square_minus_one_factors(op["q"])) >= 2**40
        if op["argv"][0] == "analyze" and op["q"] is not None:
            assert w.is_quadratic(op["q"], op["n"])
    small = sorted({op["q"] for op in ops if op["stratum"] == "small"})
    primes = [q for q in range(*w.CLI_SMALL_RANGE) if w.is_prime(q)]
    assert [q in band for q, band in zip(small, w.bands(primes, w.CLI_SMALL_FIELDS, lambda q: q))] \
        == [True] * w.CLI_SMALL_FIELDS


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lib_sweep_strata_counts(seed):
    fields = w.generate("lib-sweep", seed)
    assert Counter(f["stratum"] for f in fields) == {"small": w.LIB_SMALL_FIELDS + 2,
                                                     "large": w.LIB_LARGE_FIELDS}
    kinds = Counter("prime" if k == 1 else "pow2" if p == 2 else "odd-power"
                    for f in fields if f["stratum"] == "small" for p, k in [(f["p"], f["k"])])
    assert kinds == {"prime": w.LIB_SMALL_FIELDS, "pow2": 1, "odd-power": 1}
    for f in fields:
        q = f["q"]
        assert all(w.is_quadratic(q, n) for n in f["orders"])
        assert len(set(f["orders"])) == len(f["orders"])
        if f["stratum"] == "small":
            assert 1 <= len(f["orders"]) <= w.LIB_SMALL_CAP and q * q <= 1 << 20
        else:
            fs = w.square_minus_one_factors(q)
            hard = [n for n in f["orders"] if w.big_part(w.factor_with(n, fs)) >= 2**40]
            assert len(hard) == w.LIB_LARGE_HARD
            assert len(f["orders"]) == w.LIB_LARGE_HARD + w.LIB_LARGE_EASY


def test_plain_arithmetic():
    assert w.factor(2**4 * 3 * 1000003) == {2: 4, 3: 1, 1000003: 1}
    assert w.divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]
    assert w.order_by_multiplication(13, 7) == 2
    assert w.prime_power(3**5) == (3, 5)
    assert w.field_spec(2**6) == "q:2^6" and w.field_spec(101) == "q:101"
