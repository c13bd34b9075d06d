"""Tests of the benchmark itself (not of dstrain).

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench_driver on first use, exactly as run.py does.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (perfbench/run.py)


def setUpModule():
    global DRIVER
    DRIVER = run.build_driver()
    if DRIVER is None:
        raise RuntimeError("cannot build perfbench_driver")


def keys(*args):
    records, bad, code = run.run_driver(DRIVER, list(args), 60)
    assert code == 0 and bad == 0, f"driver {args} exited {code}"
    return [r["key"] for r in records if r["t"] == "point"]


def drawn(workload, seed):
    """The point keys @p seed generates, in execution order."""
    return keys("--workload", workload, "--seed", str(seed), "--list")


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(drawn(workload, 7), drawn(workload, 7))

    def test_seed_changes_order_and_fault_plans(self):
        for workload in ("testbed_sweep", "fabric_contended"):
            with self.subTest(workload=workload):
                seen = {tuple(drawn(workload, s)) for s in range(1, 6)}
                self.assertGreater(len(seen), 1)

    def test_every_drawable_point_has_recorded_outputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                menu = keys("--workload", workload, "--menu")
                self.assertEqual(len(menu), len(set(menu)))
                self.assertEqual(set(menu), set(run.load_expected(workload)))
                for seed in (1, 2, 3):
                    self.assertLessEqual(set(drawn(workload, seed)),
                                         set(menu))

    def test_fault_variants_run_after_their_base(self):
        order = drawn("testbed_sweep", 4)
        for i, key in enumerate(order):
            if " | " in key:
                self.assertIn(key.split(" | ")[0], order[:i])


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        records, bad, code = run.run_driver(
            DRIVER, ["--workload", "testbed_sweep", "--seed", "3",
                     "--batch", "0"], 120)
        assert code == 0 and bad == 0
        cls.exps = [r for r in records if r["t"] == "exp"]
        cls.batch = [r for r in records if r["t"] == "batch"][0]
        cls.expected = run.load_expected("testbed_sweep")

    def run_check(self, exps):
        check = run.Check(self.expected, len(self.exps))
        for rec in exps:
            check.experiment(rec)
        return check

    def test_unchanged_pass_is_accepted(self):
        check = self.run_check(self.exps)
        self.assertEqual(check.attempted, len(self.exps))
        self.assertEqual(check.failed, 0)

    def test_perturbed_report_is_rejected(self):
        for name in ("iter_s", "tflops", "bw.roce", "coll_fabric_bytes"):
            with self.subTest(output=name):
                exps = copy.deepcopy(self.exps)
                target = next(r for r in exps if r["out"].get(name))
                target["out"][name] *= 1.0 + 1e-4
                self.assertEqual(self.run_check(exps).failed, 1)

    def test_float_noise_within_tolerance_is_accepted(self):
        exps = copy.deepcopy(self.exps)
        for rec in exps:
            rec["out"] = {k: v * (1.0 + 1e-9) for k, v in rec["out"].items()}
        self.assertEqual(self.run_check(exps).failed, 0)

    def test_missing_output_and_unknown_point_are_rejected(self):
        exps = copy.deepcopy(self.exps)
        del exps[0]["out"]["iter_s"]
        exps[1]["key"] += " | unknown"
        self.assertEqual(self.run_check(exps).failed, 2)

    def test_non_finite_output_is_rejected(self):
        exps = copy.deepcopy(self.exps)
        exps[0]["out"]["iter_s"] = None  # the driver writes NaN as null
        exps[1]["out"]["tflops"] = float("inf")
        self.assertEqual(self.run_check(exps).failed, 2)

    def test_nondeterministic_report_is_rejected(self):
        exps = copy.deepcopy(self.exps)
        again = copy.deepcopy(exps[0])
        again["fp"] = "0" * 16
        self.assertEqual(self.run_check(exps + [again]).failed, 1)

    def test_changed_counters_are_inconsistent(self):
        check = run.Check(self.expected, len(self.exps))
        check.batch(self.batch, len(self.exps))
        other = copy.deepcopy(self.batch)
        other["counters"]["solves"] += 1
        check.batch(other, len(self.exps))
        self.assertFalse(check.consistent)
        self.assertEqual(check.failed, 0)

    def test_short_pass_fails_its_missing_points(self):
        check = run.Check(self.expected, len(self.exps))
        for rec in self.exps[:-3]:
            check.experiment(rec)
        check.batch(self.batch, len(self.exps) - 3)
        self.assertEqual((check.attempted, check.failed),
                         (len(self.exps), 3))
        self.assertFalse(check.consistent)


class Probes(unittest.TestCase):
    def test_every_workload_probes_every_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                records, bad, code = run.run_driver(
                    DRIVER, ["--workload", workload, "--probes"], 120)
                self.assertEqual((code, bad), (0, 0))
                metrics = records[-1]["metrics"]
                for name in ("hw.route_pairs", "coll.allgather_events",
                             "coll.alltoall_events", "strategies.plan_tasks"):
                    self.assertGreater(metrics[name], 0, name)


class FakeDriverRuns(unittest.TestCase):
    """run.main against a stand-in driver: a shell script that lists one
    fabric_ring point and runs @p commands for every pass."""

    def run_main(self, commands):
        key = next(iter(run.load_expected("fabric_ring")))
        point = json.dumps({"t": "point", "key": key})
        run.OUT_DIR.mkdir(exist_ok=True)
        fake = run.OUT_DIR / "fake_driver.sh"
        fake.write_text(
            "#!/bin/sh\n"
            f"case \" $* \" in *\" --list \"*) echo '{point}'; exit 0;; esac\n"
            + "".join(c + "\n" for c in commands))
        fake.chmod(0o755)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "fabric_ring", "--seconds",
                                 "0", "--trace", "0"], driver=fake)
        finally:
            fake.unlink()
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def exp_line(self):
        expected = run.load_expected("fabric_ring")
        key = next(iter(expected))
        return json.dumps({"t": "exp", "batch": 0, "traced": 0, "key": key,
                           "ok": 1, "error": "", "setup_s": 0.1,
                           "run_s": 1.0, "wall_s": 1.1, "fp": "0",
                           "out": expected[key]})

    def test_dead_driver_still_reports_a_failed_run(self):
        res = self.run_main([f"echo '{self.exp_line()}'", "kill -ABRT $$"])
        # The experiment that passed, plus one failure for the crash.
        self.assertEqual((res["correct"], res["attempted"], res["failed"]),
                         (False, 2, 1))
        self.assertEqual(res["metrics"], {})

    def test_nan_output_is_a_failed_experiment(self):
        batch = json.dumps({"t": "batch", "batch": 0, "traced": 0,
                            "wall_s": 1.0, "setup_s": 0.1, "run_s": 1.0,
                            "peak_rss_mb": 10.0, "counters": {}})
        nan_line = self.exp_line().replace('"iter_s": ', '"iter_s": nan, '
                                           '"was": ', 1)
        self.assertIn("nan", nan_line)
        res = self.run_main([f"echo '{nan_line}'", f"echo '{batch}'"])
        self.assertEqual((res["correct"], res["attempted"], res["failed"]),
                         (False, 1, 1))
        self.assertEqual(res["metrics"], {})


class EndToEndAggregation(unittest.TestCase):
    def test_points_are_timed_at_their_fast_tenth_and_summed(self):
        # Point a: ten passes at 1.0 s but three slowed by other tenants;
        # point b: one pass.
        a = [(0.1, 1.0, 1.0)] * 7 + [(0.3, 2.0, 2.1)] * 3
        b = [(0.2, 3.0, 3.5)]
        passes = {False: [{"peak_rss_mb": 5.0}, {"peak_rss_mb": 7.0}]}
        m = run.end_to_end_metrics(passes, {"a": a, "b": b})
        self.assertAlmostEqual(m["setup_s"], 0.3)
        self.assertAlmostEqual(m["wall_s"], 4.5)
        self.assertAlmostEqual(m["exp_s.p50"], 2.0)
        self.assertEqual(m["peak_rss_mb"], 7.0)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def test_tables_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        for section, table in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            with self.subTest(section=section):
                self.assertEqual(
                    [(m["name"], m["unit"], m["better"])
                     for m in self.spec[section]],
                    [(name, unit, better)
                     for name, (unit, better) in table.items()])

    def result(self, trace):
        done = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
             "testbed_sweep", "--seed", "5", "--seconds", "1", "--trace",
             str(trace)], cwd=run.ROOT, capture_output=True, text=True,
            timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_untraced_run_emits_every_end_to_end_metric(self):
        res = self.result(0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]})
        for name, metric in res["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        res = self.result(1)
        self.assertTrue(res["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()},
            {m["name"]: m["unit"] for m in self.spec["per_layer"]})
        trace = run.OUT_DIR / "trace-testbed_sweep-seed5.json"
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for span in ("engine.run", "core.setup", "telemetry.probe",
                     "core.fingerprint", "hw.route_probe"):
            self.assertIn(span, names)


if __name__ == "__main__":
    unittest.main()
