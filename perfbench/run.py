#!/usr/bin/env python3
"""Run one workload of the repository benchmark, check it, report metrics.

    python3 perfbench/run.py --workload cpr_top --seed 7 --seconds 25 --trace 0

Builds perfbench/driver.cpp, with the library layers under src/ that it
links, into .bench_build (CMake, Release), runs the driver for one workload
and checks every output. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. The line
before it carries the run's context: machine calibration, sample counts and
route digests. A run that fails a check prints no numbers and exits 1.
perfbench/NOTES.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ".bench_build"  # relative to ROOT; the served workload's socket lives here too
DRIVER = BUILD_DIR + "/perfbench_driver"

WORKLOADS = ("cpr_top", "nopao_div", "served_def")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A traced job's timed calls must cover this share of its wall time.
MIN_COVERAGE = 0.95

# Every job routes a design generated with seed 7, whose results the
# repository pins: route digests (route::resultDigest, as `cpr_route --digest`
# and cpr_served print them) and pin access objectives. The run seed orders
# the served jobs; it does not change a design.
PINNED_DIGESTS = {
    "cpr_top": {"top": "f5208d438efa8410"},
    "nopao_div": {"div": "58cda68415d1400d"},
    "served_def": {"ecc": "d87945cf309620e9", "efc": "be8ce85a1d260216"},
}
PINNED_OBJECTIVES = {
    "cpr_top": {"top": 341718.4},
    "served_def": {"ecc": 25560.9, "efc": 33920.7},
}
OBJECTIVE_TOLERANCE = 0.05


class BenchError(Exception):
    """A build or run failure: reported on stderr, no result line, exit 1."""


def run_child(cmd, timeout, stdout):
    """Runs cmd from the repository root in its own process group. On timeout
    the whole group (make and compilers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} did not finish within {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("src/CMakeLists.txt not found: the benchmark builds "
                         "the library from the repository's sources")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        code, out = run_child(cmd, deadline - time.monotonic(),
                              subprocess.PIPE)
        if code != 0:
            sys.stderr.write(out)
            raise BenchError(f"{' '.join(cmd)} exited with {code}")


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", BUILD_DIR]
    code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        raise BenchError(f"perfbench_driver exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


# ---- statistics --------------------------------------------------------------

def tail(samples):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest sample. With fewer than 21 samples that percentile lies at
    or below the median, so the median is reported instead."""
    ordered = sorted(samples)
    median = statistics.median(ordered)
    return max(median, ordered[-11]) if len(ordered) >= 11 else median


def tail_label(n):
    if n < 21:
        return f"p50 of {n} (fewer than 21 samples)"
    return f"p{100.0 * (n - 10) / n:.0f} of {n}"


def by_design(jobs):
    """{design: [job, ...]} in first-seen order."""
    groups = {}
    for job in jobs:
        groups.setdefault(job["design"], []).append(job)
    return groups


def mean_over_designs(jobs, key):
    """Each design's mean, averaged over designs: a run's value does not
    depend on how many jobs of each design fit in its window. A mean, not a
    median: job times switch between a fast and a slow mode as the shared
    host's load changes, and the median of a window jumps with whichever
    mode has more jobs in it (see perfbench/NOTES.md)."""
    return statistics.mean(statistics.mean(j[key] for j in group)
                           for group in by_design(jobs).values())


# ---- checks ------------------------------------------------------------------

def all_jobs(rec):
    return rec["jobs"] + rec["traced"]


def served_jobs(rec):
    return rec["served"]["jobs"] if "served" in rec else []


def digests_by_design(rec):
    found = {}
    for job in all_jobs(rec) + served_jobs(rec):
        found.setdefault(job["design"], set()).add(job["digest"])
    return found


def coverage(job):
    """Share of a traced job's wall time spent inside the timed calls."""
    wall = job["wall_s"]
    return (wall - job["layers"]["unattributed_s"]) / wall if wall > 0 else 0.0


def check(rec, workload):
    """Every reason the run's outputs are wrong; empty when correct."""
    problems = []
    digests = digests_by_design(rec)
    for design, found in sorted(digests.items()):
        if len(found) != 1:
            problems.append(f"{design}: runs disagree on the route digest "
                            f"{sorted(found)}")
    for job in all_jobs(rec):
        if job["drc_violations"] != 0:
            problems.append(f"{job['design']}: {job['drc_violations']:.0f} "
                            "DRC violations at signoff")
        if not 0 < job["clean"] <= job["nets"]:
            problems.append(f"{job['design']}: {job['clean']:.0f} clean nets "
                            f"of {job['nets']:.0f}")
    for job in served_jobs(rec):
        if (job["event"] != "serve.job.completed" or job["status"] != "ok"
                or job["attempts"] != 1):
            problems.append(f"served {job['design']} job ended "
                            f"{job['event']}/{job['status']} after "
                            f"{job['attempts']:.0f} attempt(s)")
    for job in rec["traced"]:
        if coverage(job) < MIN_COVERAGE:
            problems.append(f"{job['design']}: timed calls cover only "
                            f"{coverage(job):.1%} of the traced job")
    pinned = PINNED_DIGESTS[workload]
    for design in sorted(set(digests) | set(pinned)):
        if digests.get(design) != {pinned.get(design)}:
            problems.append(f"{design}: digest "
                            f"{sorted(digests.get(design, []))}, pinned "
                            f"{pinned.get(design)}")
    objectives = PINNED_OBJECTIVES.get(workload, {})
    for job in all_jobs(rec):
        want = objectives.get(job["design"])
        if want is not None and abs(job["pao_objective"] - want) > \
                OBJECTIVE_TOLERANCE:
            problems.append(f"{job['design']}: pin access objective "
                            f"{job['pao_objective']}, pinned {want}")
    return problems


# ---- reduction -----------------------------------------------------------------

def quality(jobs, nets_of):
    """Routability over the run's designs with nets pooled, and via count and
    wirelength per design (mean), from one result per design."""
    first = [group[0] for group in by_design(jobs).values()]
    nets = sum(nets_of(j) for j in first)
    clean = sum(round(j["routability_pct"] * nets_of(j) / 100.0)
                for j in first)
    return (100.0 * clean / nets,
            statistics.mean(j["via_count"] for j in first),
            statistics.mean(j["wirelength"] for j in first))


def end_to_end(rec):
    """End-to-end values, plus the latency sample count."""
    values = {"setup_s": statistics.median(rec["setup_s"]),
              "peak_rss_mb": rec["peak_rss_mb"]}
    if "served" in rec:
        served = rec["served"]
        jobs = served["jobs"]
        latencies = [j["latency_s"] for j in jobs]
        values["wall_s"] = mean_over_designs(jobs, "service_s")
        values["cpu_s"] = served["cpu_s"] / len(jobs)
        values["jobs_per_s"] = len(jobs) / served["loop_s"]
        (values["routability_pct"], values["via_count"],
         values["wirelength"]) = quality(
             jobs, lambda j: served["nets"][j["design"]])
    else:
        jobs = rec["jobs"]
        latencies = [j["wall_s"] for j in jobs]
        values["wall_s"] = mean_over_designs(jobs, "wall_s")
        values["cpu_s"] = mean_over_designs(jobs, "cpu_s")
        values["jobs_per_s"] = len(jobs) / sum(latencies)
        (values["routability_pct"], values["via_count"],
         values["wirelength"]) = quality(jobs, lambda j: j["nets"])
    values["job_latency_p50_s"] = statistics.median(latencies)
    values["job_latency_tail_s"] = tail(latencies)
    return values, len(latencies)


def per_layer(rec):
    """Per-layer values: the median over the traced jobs of each figure the
    driver copied or timed, plus set-up and service figures."""
    traced = rec["traced"]
    values = {name: statistics.median(job["layers"][name] for job in traced)
              for name in traced[0]["layers"]}
    values["gen.design_s"] = statistics.median(rec["gen_s"])
    served = rec.get("served")
    jobs = served["jobs"] if served else []
    values["serve.queue_wait_s"] = (
        statistics.median(j["wait_s"] for j in jobs) if jobs else 0.0)
    values["serve.overhead_s"] = (
        statistics.median(j["service_s"] - j["pipeline_s"] for j in jobs)
        if jobs else 0.0)
    values["serve.queue_peak_depth"] = (
        served["queue_peak_depth"] if served else 0.0)
    values["serve.jobs_retried"] = served["jobs_retried"] if served else 0.0
    return values


def report(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps its build or driver child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        rec = run_driver(args)
        problems = check(rec, args.workload)
        failed = sum(1 for j in served_jobs(rec)
                     if j["event"] != "serve.job.completed"
                     or j["status"] != "ok")
        attempted = len(all_jobs(rec)) + len(served_jobs(rec))
        metrics = {}
        samples = 0
        if not problems:
            if args.trace:
                metrics = report(spec["per_layer"], per_layer(rec))
            else:
                values, samples = end_to_end(rec)
                metrics = report(spec["end_to_end"], values)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": rec["nproc"], "effective_cores": rec["effective_cores"],
        "spin_per_s": rec["spin_per_s"],
        "digests": {d: sorted(f) for d, f in digests_by_design(rec).items()},
    }
    if samples:
        info["job_latency_samples"] = samples
        info["job_latency_tail"] = tail_label(samples)
    if rec["traced"]:
        info["traced_coverage_min"] = min(coverage(j) for j in rec["traced"])
    print(json.dumps({"info": info}))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
