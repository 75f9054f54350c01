import json
import os
import subprocess
import sys

import pytest

import run
import tracer
from conftest import BENCH


def test_self_time_on_synthetic_tree():
    # a [0, 10] with children b [1, 4] and c [5, 9]; c has child d [6, 7].
    spans = [
        (1, 0, "b", 1.0, 4.0, 0),
        (3, 2, "d", 6.0, 7.0, 0),
        (2, 0, "c", 5.0, 9.0, 0),
        (0, -1, "a", 0.0, 10.0, 0),
        (4, -1, "b", 20.0, 22.0, 1),
    ]
    calls, selfs = tracer.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert selfs == pytest.approx({"a": 3.0, "b": 5.0, "c": 3.0, "d": 1.0})


def test_wrap_records_nesting_and_operation():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    t.op = 5
    assert outer(1) == 4
    (sid_i, parent_i, name_i, *_, op_i), (sid_o, parent_o, name_o, *_) = t.spans
    assert (name_i, name_o) == ("inner", "outer")
    assert parent_i == sid_o and parent_o == -1 and op_i == 5


def test_install_rebinds_every_namespace():
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cyclokit
from cyclokit import moduli, numtheory, oracle, quadcyclo
from tracer import Tracer, install
t = Tracer()
install(t)
assert quadcyclo.factorize is numtheory.factorize is moduli.factorize is oracle.factorize
assert cyclokit.min_poly is quadcyclo.min_poly
cyclokit.min_poly(cyclokit.finite_field(23), 16)
print(json.dumps(t.summary()))
"""
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    res = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["calls"]["quadcyclo.min_poly"] == 1
    assert summary["calls"]["oracle.build_field"] >= 1
    assert summary["counts"][tracer.FFMUL] > 0
    assert summary["distinct"]["oracle.build_field"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 101)], 100)
    assert (value, pct, n) == (90.0, 90.0, 100)
    # More samples than the floor: same percentile, more samples beyond it.
    value, pct, n = run.tail([float(i) for i in range(1, 101)], 50)
    assert (value, pct, n) == (80.0, 80.0, 100)
    assert run.tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0, 3)


def test_end_to_end_scales_cpu_time_to_reference_speed():
    r = run.Run(2)
    r.items = r.wall_items = [[0.1, 0.3], [0.2]]
    r.setups = r.setup_walls = [0.1, 0.2, 0.3]
    r.calibrations = [2 * run.CAL_REF_S, 2 * run.CAL_REF_S, 3 * run.CAL_REF_S]
    r.rss_kb = [2048]
    metrics, info = run.end_to_end(r)
    assert metrics == pytest.approx({"setup_s": 0.1, "ops_per_s": 10.0, "op_p50_ms": 100.0,
                                     "op_tail_ms": 150.0, "peak_rss_mb": 2.0})
    assert info["cpu"] == pytest.approx({"setup_s": 0.2, "ops_per_s": 5.0, "op_p50_ms": 200.0,
                                         "op_tail_ms": 300.0})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
