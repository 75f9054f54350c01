"""cyclokit benchmark: what users of the batch CLI and of the library wait for.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is loaded from ``src/`` next to this
directory, with ``src`` on ``PYTHONPATH`` (no installed console script is
needed).  One client runs a closed loop: each operation starts when the
previous one has ended.

Workloads (see ``workloads.py``):
* ``verify-sweep`` - one ``python -m cyclokit.cli verify`` process per
  operation, over small finite fields;
* ``cli-report`` - ``analyze``, ``moduli`` and ``classify`` processes over
  Q, small fields and large fields, plus an untimed out-of-range probe slice;
* ``lib-sweep`` - library sessions, one process each, querying the public
  formula functions per (field, n).

The seed's operations form one pass.  Passes repeat until ``--seconds`` of
measurement have passed, and at least three run.  Operation latency and
set-up time are CPU time (user plus system) of the process doing the work,
scaled to a reference machine speed: ``calibrate.py``, fixed work that
depends on nothing in the repository, runs in a child beside every set-up
sample (three times per library session), and every timing is multiplied by ``CAL_REF_S`` over its median
CPU time in the same run.  On a few shared cores wall time also measures
what other tenants run, and the speed of the cores themselves drifts by a
third between runs minutes apart; both would hide the program's own
changes.  Unscaled CPU and wall times are printed beside each metric and
kept in the detail file.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and it reports per-layer metrics from
spans recorded around the package's public functions (``tracer.py``).
Every output is checked against a plain-integer recomputation
(``check.py``).  Details go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: A child still running after this long is killed and counts as failed.
OP_TIMEOUT_S = 30.0
#: No operation starts after this much wall time, so a run ends within 180 s.
HARD_LIMIT_S = 140.0
MIN_PASSES = 3
#: Calibration samples after each untraced library session.
CAL_PER_SESSION = 3
#: In untraced passes of a CLI workload, one fresh process timed from
#: spawn to ``import cyclokit.cli`` done precedes every SETUP_EVERY-th
#: operation, so set-up samples spread over the whole run.
SETUP_EVERY = 4
#: CPU seconds ``calibrate.py`` takes at the reference speed to which
#: timings are scaled (about what it takes on the 2-vCPU VM the benchmark
#: was written on).
CAL_REF_S = 0.2

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Layers and functions whose self time is reported as a metric.  Only
#: those that run on every workload are listed, so no metric is a
#: structural zero; the detail file carries every traced function.
SELF_TIME_MODULES = ("numtheory", "roots", "field_profile", "quadcyclo", "moduli", "oracle")
SELF_TIME_FUNCTIONS = (
    "numtheory.factorize", "numtheory.is_prime",
    "roots.canonical", "roots.multiply", "roots.RootSum",
    "field_profile.n_F", "field_profile.order_of_zeta", "field_profile.contains_root",
    "quadcyclo.yogh", "quadcyclo.min_poly", "quadcyclo.kappa_class", "quadcyclo.is_quadratic",
    "oracle.build_field", "oracle.evaluate_sum", "oracle.find_root_of_unity",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [(f"{name}.calls", "count") for name in tracer.span_names()]
    out += [(f"{tracer.FFMUL}.calls", "count"),
            ("numtheory.factorize.distinct_ratio", "ratio"),
            ("oracle.build_field.distinct", "count")]
    out += [(f"{m}.self_s", "s") for m in SELF_TIME_MODULES]
    out += [(f"{f}.self_s", "s") for f in SELF_TIME_FUNCTIONS]
    out += [("import_s", "s"), ("trace.overhead_s", "s")]
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Spawner:
    """Client of ``spawner.py``, which runs every child of the benchmark."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.env = dict(os.environ)
        self.env.pop("CYCLOKIT_MAX_Q", None)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")

    def run(self, argv: list[str], timeout: float, stdin: str | None = None) -> dict:
        request = {"argv": argv, "env": self.env, "stdin": stdin,
                   "timeout": timeout, "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Clock:
    """Measurement window and the run's hard limit."""

    def __init__(self, seconds: float) -> None:
        self.begin = time.monotonic()
        self.seconds = seconds

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.begin)

    def op_timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.remaining()))


def measure_setup(spawner: Spawner, module: str) -> tuple[float, float]:
    """(CPU seconds, wall seconds) a fresh process takes from spawn until
    ``module`` is imported."""
    code = f"import time, {module}; print(time.process_time(), time.monotonic())"
    res = spawner.run([sys.executable, "-c", code], OP_TIMEOUT_S)
    if res["rc"] != 0:
        raise RuntimeError(f"import {module} failed:\n{res['stderr']}")
    cpu, ready = map(float, res["stdout"].split()[-2:])
    return cpu, ready - res["start"]


def calibrate(spawner: Spawner) -> float:
    """CPU seconds of one run of ``calibrate.py`` in a fresh process."""
    res = spawner.run([sys.executable, str(BENCH / "calibrate.py")], OP_TIMEOUT_S)
    if res["rc"] != 0:
        raise RuntimeError(f"calibrate.py failed:\n{res['stderr']}")
    return res["cpu_s"]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float], floor: int) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that
    has at least ten samples beyond it in a run of ``floor`` samples.

    Every run takes at least ``floor`` samples, so the percentile keeps ten
    samples beyond it and is the same in every run of a workload however
    many passes the machine's speed allowed.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if min(n, floor) < 11:
        return ordered[-1], 100.0, n
    share = (floor - 10) / floor
    return ordered[max(0, round(share * n) - 1)], 100.0 * share, n


def latency_metrics(items: list[list[float]]) -> tuple[dict, float, int]:
    """ops_per_s, op_p50_ms and op_tail_ms from per-item latency samples
    (seconds), with the tail's percentile and sample count."""
    flat = [x for s in items for x in s]
    tail_value, tail_pct, count = tail(flat, MIN_PASSES * len(items))
    return {"ops_per_s": len(flat) / sum(flat),
            "op_p50_ms": statistics.median(flat) * 1000,
            "op_tail_ms": tail_value * 1000}, tail_pct, count


def end_to_end(run: "Run") -> tuple[dict, dict]:
    """Metrics from the CPU-time samples of untraced passes, scaled to the
    reference speed.

    ``ops_per_s`` is completed operations over the CPU time spent in them;
    it leaves out the harness's own time between operations and the set-up
    probes.  The unscaled figures, and the same from wall time, go into
    ``info``.
    """
    calibration = statistics.median(run.calibrations)
    scale = CAL_REF_S / calibration
    cpu, tail_pct, count = latency_metrics(run.items)
    cpu["setup_s"] = statistics.median(run.setups)
    metrics = {"setup_s": cpu["setup_s"] * scale, "ops_per_s": cpu["ops_per_s"] / scale,
               "op_p50_ms": cpu["op_p50_ms"] * scale, "op_tail_ms": cpu["op_tail_ms"] * scale,
               "peak_rss_mb": max(run.rss_kb) / 1024}
    wall, _, _ = latency_metrics(run.wall_items)
    wall["setup_s"] = statistics.median(run.setup_walls)
    info = {"tail_percentile": tail_pct, "samples": count,
            "items": sum(1 for s in run.items if s), "setup_samples": len(run.setups),
            "calibration_s": calibration, "calibration_samples": len(run.calibrations),
            "cpu": cpu, "wall": wall}
    return metrics, info


class Layers:
    """Per-pass sums of span summaries from traced processes."""

    def __init__(self) -> None:
        self.passes: list[dict] = []
        self.import_s: list[float] = []
        self.by_stratum: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))

    def new_pass(self) -> None:
        self.passes.append({"calls": defaultdict(float), "self_s": defaultdict(float),
                            "distinct": defaultdict(float)})

    def add(self, summary: dict, stratum: str) -> None:
        cur = self.passes[-1]
        for name, value in summary["calls"].items():
            cur["calls"][name] += value
        for name, value in summary["counts"].items():
            cur["calls"][name] += value
        for name, value in summary["self_s"].items():
            cur["self_s"][name] += value
            self.by_stratum[stratum][name] += value
        for name, value in summary["distinct"].items():
            cur["distinct"][name] += value

    def table(self) -> dict:
        """Median over traced passes of calls and self time per name."""
        names = sorted({n for p in self.passes for n in list(p["calls"]) + list(p["self_s"])})
        out = {}
        for name in names:
            out[name] = {
                "calls": statistics.median(p["calls"].get(name, 0) for p in self.passes),
                "self_s": statistics.median(p["self_s"].get(name, 0.0) for p in self.passes),
            }
        return out

    def metrics(self, overhead_s: float) -> dict:
        table = self.table()
        get = lambda name, key: table.get(name, {}).get(key, 0)  # noqa: E731
        out = {}
        for name, unit in per_layer_metrics():
            if name.endswith(".calls"):
                out[name] = get(name[:-len(".calls")], "calls")
            elif name in (f"{m}.self_s" for m in SELF_TIME_MODULES):
                module = name[:-len(".self_s")]
                out[name] = sum(v["self_s"] for k, v in table.items()
                                if k.startswith(module + "."))
            elif name.endswith(".self_s"):
                out[name] = get(name[:-len(".self_s")], "self_s")
        fact_calls = get("numtheory.factorize", "calls")
        distinct = statistics.median(p["distinct"].get("numtheory.factorize", 0)
                                     for p in self.passes)
        out["numtheory.factorize.distinct_ratio"] = distinct / fact_calls if fact_calls else 0.0
        out["oracle.build_field.distinct"] = statistics.median(
            p["distinct"].get("oracle.build_field", 0) for p in self.passes)
        out["import_s"] = statistics.median(self.import_s)
        out["trace.overhead_s"] = overhead_s
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    """What the passes of one run collected."""

    def __init__(self, count: int) -> None:
        # Untraced latencies: CPU time, and wall time alongside.
        self.items: list[list[float]] = [[] for _ in range(count)]
        self.wall_items: list[list[float]] = [[] for _ in range(count)]
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.calibrations: list[float] = []
        self.rss_kb: list[int] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.layers = Layers()
        self.passes = 0
        self.probes: list[dict] = []

    def record(self, index: int, cpu: float, wall: float, reason: str | None, traced: bool,
               failure: dict) -> None:
        self.attempted += 1
        if reason:
            self.failures.append({**failure, "reason": reason, "traced": traced})
        elif not traced:
            self.items[index].append(cpu)
            self.wall_items[index].append(wall)


def repeat_passes(run: Run, clock: Clock, trace: bool, one_pass) -> None:
    """Run passes until the measurement window is used up.

    With tracing, untraced and traced passes alternate, starting untraced.
    """
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        traced = trace and run.passes % 2 == 1
        run.pass_walls[traced].append(one_pass(traced))
        run.passes += 1
        now = time.monotonic()
        if clock.remaining() <= 0:
            break
        if (run.passes >= MIN_PASSES
                and (now - start) + (now - pass_start) > clock.seconds):
            break


def run_cli_workload(spawner: Spawner, ops: list[dict], clock: Clock, trace: bool,
                     spans_dir: Path, probes: bool) -> Run:
    run = Run(len(ops))

    def one_pass(traced: bool) -> float:
        if traced:
            run.layers.new_pass()
        wall = 0.0
        for i, op in enumerate(ops):
            if clock.remaining() <= 0:
                break
            if not traced and i % SETUP_EVERY == 0:
                cpu, setup_wall = measure_setup(spawner, "cyclokit.cli")
                run.setups.append(cpu)
                run.setup_walls.append(setup_wall)
                run.calibrations.append(calibrate(spawner))
            spans = spans_dir / f"op{i}.json"
            if traced:
                argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), str(i), *op["argv"]]
            else:
                argv = [sys.executable, "-m", "cyclokit.cli", *op["argv"]]
            res = spawner.run(argv, clock.op_timeout())
            reason = check.check_cli(op["argv"], res["rc"], res["stdout"], res["stderr"],
                                     res["timed_out"])
            wall += res["wall_s"]
            run.record(i, res["cpu_s"], res["wall_s"], reason, traced,
                       {"argv": op["argv"], "stderr": res["stderr"][-2000:]})
            if reason:
                continue
            if traced:
                doc = json.loads(spans.read_text())
                run.layers.add(doc["summary"], op["stratum"])
                run.layers.import_s.append(doc["import_s"])
            else:
                run.rss_kb.append(res["maxrss_kb"])
        return wall

    repeat_passes(run, clock, trace, one_pass)
    if probes:
        run.probes = run_probes(spawner, clock)
    return run


def run_probes(spawner: Spawner, clock: Clock) -> list[dict]:
    """The out-of-range slice: timed and checked, kept out of the metrics."""
    out = []
    for argv in workloads.PROBES:
        res = spawner.run([sys.executable, "-m", "cyclokit.cli", *argv], clock.op_timeout())
        failure = check.check_cli(list(argv), res["rc"], res["stdout"], res["stderr"],
                                  res["timed_out"], refusal_ok=True)
        out.append({"argv": list(argv), "rc": res["rc"], "wall_s": res["wall_s"],
                    "failure": failure, "wrong_answer": res["rc"] == 0 and failure is not None,
                    "stderr_tail": res["stderr"][-300:]})
    return out


def lib_job(fields: list[dict], spans: Path | None) -> str:
    job = []
    for f in fields:
        nu_primes = [r for r in workloads.square_minus_one_factors(f["q"]) if r != f["p"]]
        job.append({"p": f["p"], "k": f["k"], "orders": f["orders"], "nu_primes": nu_primes})
    return json.dumps({"fields": job, "spans": str(spans) if spans else None})


def check_lib_record(rec: dict, q: int) -> str | None:
    if "error" in rec:
        return rec["error"]
    try:
        if rec["n"] is None:
            return check.check_lib_field(rec["result"], q)
        return check.check_lib_order(rec["result"], q, rec["n"])
    except (KeyError, TypeError) as exc:
        return f"malformed result: {exc!r}"


def run_lib_workload(spawner: Spawner, fields: list[dict], clock: Clock, trace: bool,
                     spans_dir: Path) -> Run:
    keys = [(i, n) for i, f in enumerate(fields) for n in [None] + f["orders"]]
    run = Run(len(keys))
    argv = [sys.executable, str(BENCH / "lib_session.py")]

    def one_pass(traced: bool) -> float:
        spans = spans_dir / f"session{run.passes}.json" if traced else None
        timeout = max(1.0, min(4 * OP_TIMEOUT_S, clock.remaining()))
        res = spawner.run(argv, timeout, stdin=lib_job(fields, spans))
        lines = res["stdout"].splitlines()
        try:
            ready = json.loads(lines[0])
            records = json.loads(lines[-1])["ops"]
        except (IndexError, ValueError):
            records = []
        if res["rc"] != 0 or len(records) != len(keys):
            for i in range(len(keys)):
                run.record(i, 0.0, 0.0, f"session exit {res['rc']}", traced,
                           {"stderr": res["stderr"][-2000:]})
            return 0.0
        if not traced:
            run.calibrations += [calibrate(spawner) for _ in range(CAL_PER_SESSION)]
            run.setups.append(ready["ready_cpu_s"])
            run.setup_walls.append(ready["ready"] - res["start"])
            run.rss_kb.append(res["maxrss_kb"])
        for i, rec in enumerate(records):
            q = fields[rec["field"]]["q"]
            run.record(i, rec["cpu_s"], rec["lat_s"], check_lib_record(rec, q), traced,
                       {"field": q, "n": rec["n"]})
        if traced:
            run.layers.new_pass()
            run.layers.add(json.loads(spans.read_text())["summary"], "session")
            run.layers.import_s.append(ready["import_s"])
        return sum(rec["lat_s"] for rec in records)

    repeat_passes(run, clock, trace, one_pass)
    return run


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cyclokit" / "cli.py").is_file():
        print(f"error: no cyclokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args.workload, args.seed)
    clock = Clock(args.seconds)
    inputs = workloads.generate(args.workload, args.seed)
    spans_dir = OUT / "spans" / args.workload
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    spawner = Spawner()
    try:
        warm = spawner.run([sys.executable, "-c", "import cyclokit.cli"], OP_TIMEOUT_S)
        if warm["rc"] != 0:
            print(f"error: cannot import cyclokit.cli:\n{warm['stderr']}", file=sys.stderr)
            return 2
        if args.workload == "lib-sweep":
            run = run_lib_workload(spawner, inputs, clock, bool(args.trace), spans_dir)
        else:
            run = run_cli_workload(spawner, inputs, clock, bool(args.trace), spans_dir,
                                   probes=args.workload == "cli-report")
    finally:
        spawner.close()

    failed, attempted = len(run.failures), run.attempted
    if not any(run.items) or not run.setups:
        print("error: no operation succeeded", file=sys.stderr)
        for f in run.failures[:5]:
            print(json.dumps(f), file=sys.stderr)
        return 1
    metrics, info = end_to_end(run)
    walls = run.pass_walls
    detail = {"provenance": prov, "passes": run.passes, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted,
              "end_to_end": metrics, **info, "probes": run.probes,
              "failures": run.failures[:20], "inputs": inputs,
              "item_cpu_samples_ms": [[x * 1000 for x in s] for s in run.items],
              "item_wall_samples_ms": [[x * 1000 for x in s] for s in run.wall_items],
              "setup_cpu_samples_s": run.setups, "setup_wall_samples_s": run.setup_walls,
              "calibration_samples_s": run.calibrations}
    units = dict(END_TO_END)
    if args.trace:
        overhead = (statistics.median(walls[True]) - statistics.median(walls[False])
                    if walls[True] and walls[False] else float("nan"))
        layer_metrics = run.layers.metrics(overhead)
        units = dict(per_layer_metrics())
        detail["layers"] = run.layers.table()
        traced_passes = len(run.layers.passes)
        detail["self_s_per_pass_by_stratum"] = {
            s: {name: v / traced_passes for name, v in by_name.items()}
            for s, by_name in run.layers.by_stratum.items()}
        detail["pass_walls"] = {"untraced": walls[False], "traced": walls[True]}
        reported = layer_metrics
    else:
        reported = metrics
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str))

    print_report(args, prov, detail, reported, units)
    correct = failed == 0 and not any(p["wrong_answer"] for p in run.probes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


def print_report(args, prov: dict, detail: dict, reported: dict, units: dict) -> None:
    print(json.dumps({"provenance": prov}))
    print(f"{args.workload}  seed {args.seed}  passes {detail['passes']}  "
          f"attempted {detail['attempted']}  failed {detail['failed']}  "
          f"fail_ratio {detail['fail_ratio']:.4f}")
    cpu, wall = detail["cpu"], detail["wall"]
    for name, value in detail["end_to_end"].items():
        beside = (f"  scaled CPU time; unscaled {cpu[name]:.4f}, wall {wall[name]:.4f}"
                  if name in wall else "")
        print(f"  {name:<14} {value:12.4f} {dict(END_TO_END)[name]:<4}{beside}")
    print(f"  calibrate.py median {detail['calibration_s']:.4f} s CPU over "
          f"{detail['calibration_samples']} samples; timings scaled by "
          f"{CAL_REF_S / detail['calibration_s']:.4f}")
    print(f"  op_tail_ms is p{detail['tail_percentile']:.2f} of {detail['samples']} samples "
          f"({detail['items']} distinct operations)")
    for probe in detail["probes"]:
        outcome = "ok" if probe["failure"] is None else probe["failure"]
        print(f"  probe {' '.join(probe['argv'])}: exit {probe['rc']}, "
              f"{probe['wall_s'] * 1000:.1f} ms, {outcome}")
    if detail["probes"]:
        bad = sum(p["failure"] is not None for p in detail["probes"])
        print(f"  probe fail_ratio {bad / len(detail['probes']):.4f} (not in the metrics)")
    if args.trace:
        table = detail["layers"]
        top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]
        print("  self time per traced pass (median over traced passes):")
        for name, row in top:
            print(f"    {name:<40} {row['self_s']:10.4f} s  {row['calls']:>10.0f} calls")
        for name, value in reported.items():
            if name.startswith("trace.") or name == "import_s":
                print(f"  {name:<14} {value:12.4f} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
