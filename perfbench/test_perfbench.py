#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py            # all, builds and runs
    python3 perfbench/test_perfbench.py Offline    # no build, no runs

Offline checks BENCHMARK.json against the benchmark's contract, the metric
reduction, the correctness checks and the layer diff. TracedRuns builds the
driver, runs every workload traced for one second, and asserts that the calls the
benchmark times from outside cover at least 95% of the traced jobs' wall
time and that every per-layer metric is reported.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layerdiff  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Outside-timed calls of a job; unattributed_s is the rest of its wall time.
TIMED_CALLS = ("lefdef.read_s", "pao.total_s", "route.total_s",
               "eval.summarize_s", "eval.digest_s")


def fake_job(design, wall, layers=None):
    """A correct job record of `design` (a cpr_top or served_def design)."""
    pinned = {**run.PINNED_DIGESTS["cpr_top"],
              **run.PINNED_DIGESTS["served_def"]}
    objectives = {**run.PINNED_OBJECTIVES["cpr_top"],
                  **run.PINNED_OBJECTIVES["served_def"]}
    job = {"design": design, "wall_s": wall, "cpu_s": wall,
           "digest": pinned[design], "nets": 100, "clean": 99,
           "routability_pct": 99.0, "via_count": 500, "wirelength": 4000,
           "drc_violations": 0, "pao_objective": objectives[design]}
    if layers is not None:
        job["layers"] = layers
    return job


def fake_layers():
    names = {m["name"] for m in SPEC["per_layer"]}
    added = {"gen.design_s", "serve.queue_wait_s", "serve.overhead_s",
             "serve.queue_peak_depth", "serve.jobs_retried"}
    layers = {name: 0.0 for name in names - added}
    layers["route.total_s"] = 0.98
    layers["unattributed_s"] = 0.02
    return layers


class Offline(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_tail_is_the_eleventh_largest_sample(self):
        self.assertEqual(run.tail(list(range(30))), 19)
        self.assertEqual(run.tail(list(range(15))), 7)  # median floor
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.tail_label(30), "p67 of 30")

    def test_end_to_end_reports_every_metric(self):
        rec = {"setup_s": [0.2, 0.1, 0.3], "peak_rss_mb": 900.0,
               "jobs": [fake_job("top", 7.0), fake_job("top", 7.2)],
               "traced": []}
        values, samples = run.end_to_end(rec)
        metrics = run.report(SPEC["end_to_end"], values)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(samples, 2)
        self.assertAlmostEqual(values["jobs_per_s"], 2 / 14.2)
        self.assertEqual(values["setup_s"], 0.2)

    def test_quality_pools_nets_and_averages_per_design(self):
        nets = {"a": 100, "b": 300}
        jobs = [{"design": "a", "routability_pct": 99.0, "via_count": 10,
                 "wirelength": 100},
                {"design": "b", "routability_pct": 100.0, "via_count": 30,
                 "wirelength": 300},
                {"design": "a", "routability_pct": 99.0, "via_count": 10,
                 "wirelength": 100}]
        self.assertEqual(run.quality(jobs, lambda j: nets[j["design"]]),
                         (99.75, 20, 200))

    def test_timings_weigh_every_design_equally(self):
        jobs = [{"design": "a", "wall_s": 1.0}, {"design": "a", "wall_s": 1.2},
                {"design": "a", "wall_s": 1.1}, {"design": "b", "wall_s": 3.0}]
        self.assertAlmostEqual(run.mean_over_designs(jobs, "wall_s"), 2.05)

    def test_per_layer_reports_every_metric(self):
        rec = {"gen_s": [0.1], "jobs": [],
               "traced": [fake_job("top", 1.0, fake_layers())]}
        metrics = run.report(SPEC["per_layer"], run.per_layer(rec))
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})

    def test_check_rejects_a_mismatched_digest_and_low_coverage(self):
        good = fake_job("top", 1.0, fake_layers())
        rec = {"jobs": [fake_job("top", 1.0)], "traced": [good]}
        self.assertEqual(run.check(rec, "cpr_top"), [])
        rec["jobs"][0]["digest"] = "fedcba9876543210"
        self.assertTrue(run.check(rec, "cpr_top"))
        rec["jobs"][0]["digest"] = good["digest"]
        rec["jobs"][0]["pao_objective"] += 1.0
        self.assertTrue(run.check(rec, "cpr_top"))
        rec["jobs"][0]["pao_objective"] = good["pao_objective"]
        good["layers"]["unattributed_s"] = 0.2
        self.assertTrue(run.check(rec, "cpr_top"))
        self.assertTrue(run.check({"jobs": [], "traced": []}, "cpr_top"))

    def test_check_rejects_drc_violations_of_a_served_replay(self):
        served = [{"design": d, "digest": run.PINNED_DIGESTS["served_def"][d],
                   "event": "serve.job.completed", "status": "ok",
                   "attempts": 1} for d in ("ecc", "efc")]
        rec = {"jobs": [fake_job("ecc", 0.5), fake_job("efc", 0.7)],
               "traced": [], "served": {"jobs": served}}
        self.assertEqual(run.check(rec, "served_def"), [])
        rec["jobs"][1]["drc_violations"] = 3
        self.assertTrue(run.check(rec, "served_def"))

    def test_layerdiff_flags_only_deltas_beyond_the_spread(self):
        def lines(rrr, gen):
            out = []
            for v, g in zip(rrr, gen):
                out.append(json.dumps({"info": {"workload": "cpr_top"}}))
                out.append(json.dumps({"correct": True, "attempted": 1,
                                       "failed": 0, "metrics": {
                    "route.rrr_s": {"value": v, "unit": "s"},
                    "pao.gen_s": {"value": g, "unit": "s"}}}))
            return "\n".join(out) + "\n"

        with tempfile.TemporaryDirectory() as tmp:
            a, b, c = (os.path.join(tmp, n) for n in "abc")
            # route.rrr_s halves, far beyond its spread; pao.gen_s moves by
            # less than its run-to-run range.
            Path(a).write_text(lines([2.0, 2.1, 1.9], [1.0, 1.2, 0.9]))
            Path(b).write_text(lines([1.0, 1.05, 0.95], [1.1, 0.95, 1.05]))
            Path(c).write_text(lines([1.0], [1.0]))
            rows = layerdiff.compare(layerdiff.load_runs(a),
                                     layerdiff.load_runs(b))
            flagged = {r[2]: r[-1] for r in rows}
            self.assertEqual(flagged, {"route.rrr_s": True,
                                       "pao.gen_s": False})
            self.assertEqual([r[1] for r in rows], ["core", "route"])
            single = layerdiff.compare(layerdiff.load_runs(a),
                                       layerdiff.load_runs(c))
            self.assertFalse(any(r[-1] for r in single))


class TracedRuns(unittest.TestCase):
    def test_timed_calls_cover_the_traced_wall_time(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", "7", "--seconds", "1", "--trace",
                     "1"], cwd=run.ROOT, capture_output=True, text=True,
                    timeout=900)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(set(values),
                                 {m["name"] for m in SPEC["per_layer"]})
                timed = sum(values[k] for k in TIMED_CALLS)
                self.assertGreaterEqual(
                    timed / (timed + values["unattributed_s"]), 0.95)


if __name__ == "__main__":
    unittest.main()
