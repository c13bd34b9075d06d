#!/usr/bin/env python3
"""End-to-end benchmark of dstrain.

Runs one named workload for a fixed time, checks every experiment's
simulated outputs against the ones recorded in perfbench/expected/, and
prints one JSON object as the last line of standard output:

    python3 perfbench/run.py --workload testbed_sweep --seed 3 \\
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace to .bench_out/). Run it from the repository
root; the first run builds perfbench_driver into .bench_build/ (or
$CARGO_TARGET_DIR). See perfbench/README.md.

    python3 perfbench/run.py --workload W --record   # re-record outputs
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("testbed_sweep", "fabric_ring", "fabric_contended")

# Simulated outputs must match the recorded ones to this relative
# tolerance (or this absolute one, for values near zero). Not bitwise,
# so a change that reorders float sums still passes.
REL_TOL = 1e-6
ABS_TOL = 1e-9

# The run must end within 180 s; a pass still running at this many
# seconds after the start is killed and counted as failed.
HARD_LIMIT_S = 170.0

# name -> (unit, better) of every metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "exp_s.p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "hw.cluster_build_s": ("s", "lower"),
    "hw.route_cold_us": ("us", "lower"),
    "hw.route_warm_ns": ("ns", "lower"),
    "hw.route_pairs": ("count", "higher"),
    "net.transfers": ("count", "lower"),
    "net.solves": ("count", "lower"),
    "net.solves_per_transfer": ("ratio", "lower"),
    "net.fast_path_ratio": ("ratio", "higher"),
    "net.index_updates": ("count", "lower"),
    "net.region_flows_mean": ("flows", "lower"),
    "net.region_peak": ("flows", "lower"),
    "net.rate_updates": ("count", "lower"),
    "net.capacity_updates": ("count", "lower"),
    "net.cancels": ("count", "lower"),
    "net.stalled_parks": ("count", "lower"),
    "net.reroutes": ("count", "lower"),
    "net.batched_events": ("count", "higher"),
    "net.bytes_aborted": ("B", "lower"),
    "coll.invocations": ("count", "lower"),
    "coll.fabric_bytes": ("B", "lower"),
    "coll.allgather_s": ("s", "lower"),
    "coll.allgather_events": ("count", "lower"),
    "coll.alltoall_s": ("s", "lower"),
    "coll.alltoall_events": ("count", "lower"),
    "strategies.plan_build_s": ("s", "lower"),
    "strategies.plan_tasks": ("count", "lower"),
    "memplan.solve_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.run_p90_s": ("s", "lower"),
    "engine.spans": ("count", "lower"),
    "telemetry.probe_s": ("s", "lower"),
    "telemetry.deposits": ("count", "lower"),
    "telemetry.stream_buckets": ("count", "lower"),
    "telemetry.memory_bytes": ("B", "lower"),
    "fault.impacts": ("count", "higher"),
    "resilience.route_invalidations": ("count", "lower"),
    "resilience.reconvergence_waits": ("count", "lower"),
    "resilience.collective_timeouts": ("count", "lower"),
    "recovery.checkpoints": ("count", "lower"),
    "recovery.recoveries": ("count", "higher"),
    "recovery.lost_iterations": ("count", "lower"),
    "core.setup_s": ("s", "lower"),
    "core.fingerprint_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build ----------------------------------------------------------------


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build_driver():
    """Configure (once) and build perfbench_driver; None on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    driver = out / "perfbench_driver"
    return driver if driver.exists() else None


# --- driver passes ---------------------------------------------------------


def reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def run_driver(driver, args, timeout):
    """Run the driver; returns (records, number of unparsable lines,
    exit code). A pass killed by the timeout has exit code None."""
    try:
        done = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(timeout, 1.0))
        stdout, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as e:
        stdout, code = e.stdout or "", None
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    records = []
    bad = 0
    for line in stdout.splitlines():
        try:
            rec = json.loads(line, parse_constant=reject_constant)
        except ValueError:
            rec = None
        if isinstance(rec, dict) and "t" in rec:
            records.append(rec)
        else:
            bad += 1
            log(f"unparsable driver line: {line[:120]}")
    return records, bad, code


def point_count(driver, workload, seed):
    """Experiments in one pass of the workload; None if --list fails."""
    records, bad, code = run_driver(
        driver, workload_args(workload, seed) + ["--list"], 60)
    if code != 0 or bad:
        return None
    return sum(1 for r in records if r["t"] == "point")


def workload_args(workload, seed):
    return ["--workload", workload, "--seed", str(seed)]


# --- output check -----------------------------------------------------------


def load_expected(workload):
    path = EXPECTED_DIR / f"{workload}.json"
    with open(path) as f:
        return json.load(f)["outputs"]


def close(actual, expected):
    if not isinstance(actual, (int, float)) or not math.isfinite(actual):
        return False
    return abs(actual - expected) <= max(
        REL_TOL * max(abs(actual), abs(expected)), ABS_TOL)


def check_outputs(key, outputs, expected):
    """Mismatch descriptions of one experiment's outputs (empty = ok)."""
    want = expected.get(key)
    if want is None:
        return [f"no recorded outputs for '{key}'"]
    problems = []
    for name in sorted(set(want) | set(outputs)):
        if name not in outputs or name not in want:
            problems.append(f"{name}: present in only one of run/record")
        elif not close(outputs[name], want[name]):
            problems.append(f"{name}: {outputs[name]!r} != {want[name]!r}")
    return problems


class Check:
    """Failure accounting over every experiment of a run."""

    def __init__(self, expected, points):
        self.expected = expected
        self.points = points  # experiments per pass
        self.attempted = 0
        self.failed = 0
        self.consistent = True  # counters and fingerprints repeat
        self.fingerprints = {}
        self.counters = None

    def experiment(self, rec):
        self.attempted += 1
        problems = []
        if not rec.get("ok"):
            problems.append(rec.get("error") or "experiment failed")
        else:
            problems += check_outputs(rec["key"], rec["out"], self.expected)
            first = self.fingerprints.setdefault(rec["key"], rec["fp"])
            if first != rec["fp"]:
                problems.append("report differs from an earlier pass")
        if problems:
            self.failed += 1
            log(f"FAILED {rec['key']}: {'; '.join(problems[:3])}")

    def unparsable(self, lines):
        """Driver lines that are not JSON: each is an experiment whose
        outputs cannot be checked."""
        self.attempted += lines
        self.failed += lines

    def batch(self, rec, exps):
        """A pass that ended with @p exps experiment lines, parsed or
        not; a pass that is short of the workload's points fails the
        missing ones."""
        if exps != self.points:
            missing = max(self.points - exps, 1)
            self.attempted += missing
            self.failed += missing
            self.consistent = False
            log(f"pass {rec['batch']}: {exps} experiments, "
                f"not {self.points}")
        if self.counters is None:
            self.counters = rec["counters"]
        elif rec["counters"] != self.counters:
            self.consistent = False
            log(f"pass {rec['batch']}: layer counters differ from pass 0")

    def crashed(self, what):
        """A driver process died or timed out; its next experiment is
        counted as failed."""
        self.attempted += 1
        self.failed += 1
        self.consistent = False
        log(f"driver died: {what}")


# --- the timed run ----------------------------------------------------------


median = statistics.median


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(driver, workload, seed, seconds, trace):
    start = time.monotonic()
    check = Check(load_expected(workload),
                  point_count(driver, workload, seed))
    passes = {False: [], True: []}  # traced -> batch records
    run_samples = []
    per_point = {}  # key -> untraced [(setup_s, run_s, wall_s), ...]
    probes = {}
    if check.points is None:
        check.crashed("--list")
        return check, passes, run_samples, per_point, probes
    OUT_DIR.mkdir(exist_ok=True)
    trace_files = []
    k = 0
    while True:
        traced = bool(trace) and k % 2 == 1
        args = workload_args(workload, seed) + ["--batch", str(k)]
        if traced:
            path = OUT_DIR / f"trace-{workload}-{seed}-pass{k}.json"
            args += ["--traced", "--trace-out", str(path)]
            trace_files.append(path)
        began = time.monotonic()
        records, bad, code = run_driver(
            driver, args, HARD_LIMIT_S - (began - start))
        took = time.monotonic() - began
        exps = [r for r in records if r["t"] == "exp"]
        batch = [r for r in records if r["t"] == "batch"]
        for rec in exps:
            check.experiment(rec)
            if rec.get("ok"):
                run_samples.append(rec["run_s"])
                if not traced:
                    per_point.setdefault(rec["key"], []).append(
                        (rec["setup_s"], rec["run_s"], rec["wall_s"]))
        check.unparsable(bad)
        if code != 0 or not batch:
            check.crashed(f"pass {k} after {len(exps) + bad} experiments")
            break
        check.batch(batch[0], len(exps) + bad)
        passes[traced].append(batch[0])
        log(f"pass {k}{' (traced)' if traced else ''}: "
            f"wall {batch[0]['wall_s']:.3f} s")
        k += 1
        if trace and k < 2:
            continue
        # Stop before a pass that would end past the measuring time.
        if time.monotonic() - start + took > seconds:
            break

    if trace and passes[True]:
        path = OUT_DIR / f"trace-{workload}-{seed}-probes.json"
        trace_files.append(path)
        records, bad, code = run_driver(
            driver, workload_args(workload, seed) +
            ["--probes", "--trace-out", str(path)],
            HARD_LIMIT_S - (time.monotonic() - start))
        found = [r for r in records if r["t"] == "probes"]
        if code != 0 or bad or not found:
            check.crashed("probes")
        else:
            probes = found[0]["metrics"]
        merge_traces(trace_files,
                     OUT_DIR / f"trace-{workload}-seed{seed}.json")
    return check, passes, run_samples, per_point, probes


def merge_traces(paths, dest):
    """One Chrome trace of every traced process (pid = pass order)."""
    events = []
    for pid, path in enumerate(paths, start=1):
        if not path.exists():
            continue
        with open(path) as f:
            for ev in json.load(f)["traceEvents"]:
                ev["pid"] = pid
                events.append(ev)
        path.unlink()
    with open(dest, "w") as f:
        json.dump({"traceEvents": events}, f)


def fast_tenth(values):
    """10th percentile: the program's own cost on a shared host, where
    other tenants slow some stretches of a run by up to 2x."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end_metrics(passes, per_point):
    """Each point's setup, run and whole-experiment seconds are taken at
    their fast tenth over the run's untraced passes; a pass is then the
    sum over its points."""
    fast = [[fast_tenth(list(column)) for column in zip(*samples)]
            for samples in per_point.values()]
    setup, run_s, wall = zip(*fast)
    return {
        "setup_s": math.fsum(setup),
        "wall_s": math.fsum(wall),
        "exp_s.p50": median(run_s),
        "peak_rss_mb": max(b["peak_rss_mb"] for b in passes[False]),
    }


def per_layer_metrics(passes, run_samples, probes, counters):
    c = counters
    traced, untraced = passes[True], passes[False]

    def span(name):
        return median([b["spans"].get(name, 0.0) for b in traced])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.events": c["events"],
        "sim.events_per_s": ratio(
            c["events"], median([b["run_s"] for b in untraced])),
        "net.transfers": c["transfers"],
        "net.solves": c["solves"],
        "net.solves_per_transfer": ratio(c["solves"], c["transfers"]),
        "net.fast_path_ratio": ratio(
            c["fast_starts"] + c["fast_finishes"], 2 * c["transfers"]),
        "net.index_updates": c["index_updates"],
        "net.region_flows_mean": ratio(c["region_flows"],
                                       c["region_solves"]),
        "net.region_peak": c["region_peak"],
        "net.rate_updates": c["rate_updates"],
        "net.capacity_updates": c["capacity_updates"],
        "net.cancels": c["cancels"],
        "net.stalled_parks": c["stalled_parks"],
        "net.reroutes": c["reroutes"],
        "net.batched_events": c["batched_events"],
        "net.bytes_aborted": c["bytes_aborted"],
        "coll.invocations": c["coll_invocations"],
        "coll.fabric_bytes": c["coll_fabric_bytes"],
        "engine.run_s": span("engine.run"),
        "engine.run_p90_s": p90(run_samples),
        "engine.spans": c["spans"],
        "telemetry.probe_s": span("telemetry.probe"),
        "telemetry.deposits": c["deposits"],
        "telemetry.stream_buckets": c["stream_buckets"],
        "telemetry.memory_bytes": c["telemetry_bytes"],
        "fault.impacts": c["fault_impacts"],
        "resilience.route_invalidations": c["route_invalidations"],
        "resilience.reconvergence_waits": c["reconvergence_waits"],
        "resilience.collective_timeouts": c["collective_timeouts"],
        "recovery.checkpoints": c["checkpoints"],
        "recovery.recoveries": c["recoveries"],
        "recovery.lost_iterations": c["lost_iterations"],
        "core.setup_s": span("core.setup"),
        "core.fingerprint_s": span("core.fingerprint"),
        "trace.overhead_s": median([b["wall_s"] for b in traced]) -
        median([b["wall_s"] for b in untraced]),
    }
    m.update(probes)
    return m


def result_line(check, metrics, table):
    return {
        "correct": check.failed == 0 and check.consistent,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table if name in metrics},
    }


# --- recording ----------------------------------------------------------------


def record(driver, workload):
    """Run every point any seed can draw once; store its outputs."""
    records, unparsable, code = run_driver(
        driver, ["--workload", workload, "--record"], 3600)
    exps = [r for r in records if r["t"] == "exp"]
    bad = [r["key"] for r in exps if not r.get("ok")]
    if code != 0 or bad or unparsable:
        log(f"record failed (exit {code}; failed points: {bad[:5]}; "
            f"{unparsable} unparsable lines)")
        return 1
    outputs = {r["key"]: {k: float(f"{v:.12g}") for k, v in r["out"].items()}
               for r in exps}
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    # One point per line keeps the file diffable.
    lines = [f" {json.dumps(k)}: {json.dumps(outputs[k], sort_keys=True)}"
             for k in sorted(outputs)]
    header = json.dumps({"workload": workload})[:-1]
    with open(path, "w") as f:
        f.write(header + ', "outputs": {\n' + ",\n".join(lines) + "\n}}\n")
    log(f"recorded {len(outputs)} points to {path}")
    return 0


def main(argv=None, driver=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the workload's expected outputs")
    args = parser.parse_args(argv)

    if driver is None:
        driver = build_driver()
    if driver is None:
        log("cannot build perfbench_driver")
        return 1
    if args.record:
        return record(driver, args.workload)

    check, passes, run_samples, per_point, probes = run_workload(
        driver, args.workload, args.seed, args.seconds, args.trace)
    # A failed run still reports its counts; metrics need a whole pass
    # of each kind and at least one experiment that ran.
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if not passes[False] or not per_point or (
            args.trace and not passes[True]):
        log("no complete pass; metrics left out")
    elif args.trace:
        metrics = per_layer_metrics(passes, run_samples, probes,
                                    check.counters)
    else:
        metrics = end_to_end_metrics(passes, per_point)
        log(f"{len(per_point)} points, each timed in "
            f"{len(passes[False])} passes")
    print(json.dumps(result_line(check, metrics, table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
