import copy
import json
import os
import subprocess
import sys

import check
from conftest import BENCH

ANALYZE = ["analyze", "--field", "q:13", "--n", "7"]
GOOD_ANALYZE = {
    "command": "analyze", "field": "q:13",
    "results": {"n": 7, "degree": 2, "quadratic": True, "in_field": False, "n_F": 1,
                "order_of_zeta": 7, "min_poly": {"yogh": 6}},
    "oracle_checked": True, "mismatches": [],
}
VERIFY = ["verify", "--field", "q:5"]
GOOD_VERIFY = {"command": "verify", "field": "q:5",
               "results": {"max_n": 24, "orders_checked": 8},
               "oracle_checked": True, "mismatches": []}


def run_check(argv, report, rc=0, stderr="", timed_out=False, refusal_ok=False):
    return check.check_cli(argv, rc, json.dumps(report), stderr, timed_out, refusal_ok)


def test_accepts_correct_reports():
    assert run_check(ANALYZE, GOOD_ANALYZE) is None
    assert run_check(VERIFY, GOOD_VERIFY) is None


def test_rejects_corrupted_reports():
    for path, value in [("degree", 3), ("quadratic", False), ("n_F", 7), ("order_of_zeta", 1)]:
        bad = copy.deepcopy(GOOD_ANALYZE)
        bad["results"][path] = value
        assert run_check(ANALYZE, bad) is not None, path
    bad = copy.deepcopy(GOOD_ANALYZE)
    bad["results"]["min_poly"]["yogh"] = 5
    assert run_check(ANALYZE, bad) is not None
    bad = copy.deepcopy(GOOD_VERIFY)
    bad["results"]["orders_checked"] = 7
    assert run_check(VERIFY, bad) is not None
    bad = copy.deepcopy(GOOD_VERIFY)
    bad["mismatches"] = [{"n": 3, "check": "order"}]
    assert run_check(VERIFY, bad) is not None
    assert check.check_cli(VERIFY, 0, "not json", "", False) is not None


def test_rejects_wrong_exit_codes_tracebacks_and_timeouts():
    assert run_check(VERIFY, GOOD_VERIFY, rc=1) is not None
    assert run_check(VERIFY, GOOD_VERIFY, rc=4) is not None
    assert run_check(VERIFY, GOOD_VERIFY, stderr="Traceback (most recent call last):") is not None
    assert run_check(VERIFY, GOOD_VERIFY, timed_out=True) is not None


def test_probe_refusal_is_exit_four_only():
    probe = ["moduli", "--field", "q:2^100"]
    assert check.check_cli(probe, 4, "", "error: too big", False, refusal_ok=True) is None
    assert check.check_cli(probe, 1, "", "Traceback ...", False, refusal_ok=True) is not None
    assert check.check_cli(probe, 3, "", "error", False, refusal_ok=True) is not None


def test_lib_checks_reject_corruption():
    good = {"yogh": 6, "galois_image": [1, 6], "kappa_in_field": True, "s_n": [7],
            "field_equal": True}
    assert check.check_lib_order(good, 13, 7) is None
    for key, value in [("yogh", 5), ("galois_image", [1]), ("s_n", [2, 7]),
                       ("kappa_in_field", False), ("field_equal", False)]:
        assert check.check_lib_order({**good, key: value}, 13, 7) is not None, key
    field = {"full_moduli_cardinality": 156, "s_max_classes": 1, "s_max_cardinality": 156,
             "g2_cardinality": 12, "nu": {"2": 3, "7": 1, "3": 1}}
    assert check.check_lib_field(field, 13) is None
    assert check.check_lib_field({**field, "nu": {"2": 2}}, 13) is not None
    assert check.check_lib_field({**field, "full_moduli_cardinality": 155}, 13) is not None


def test_checker_accepts_the_real_cli():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    env.pop("CYCLOKIT_MAX_Q", None)
    for argv in (ANALYZE, VERIFY, ["classify", "--field", "q:13"], ["moduli", "--field", "Q"]):
        res = subprocess.run([sys.executable, "-m", "cyclokit.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert check.check_cli(argv, res.returncode, res.stdout, res.stderr, False) is None, argv
