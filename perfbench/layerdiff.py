#!/usr/bin/env python3
"""Compare two sets of traced benchmark runs layer by layer.

    for s in 1 2 3; do python3 perfbench/run.py --workload cpr_top --seed 7 \\
        --seconds 25 --trace 1; done > before.jsonl
    # ... change the code, then the same loop > after.jsonl
    python3 perfbench/layerdiff.py before.jsonl after.jsonl

Each file holds the stdout of one or more `run.py --trace 1` runs: every
result line (a JSON object with "metrics") is one run, attributed to the
workload named by the info line before it. For each workload present in both
files and each per-layer metric the tool prints both medians and the relative
delta, and flags ('*') a delta only when it is larger than the spread between
repeated runs: the wider of the two sides' ranges (max - min). A side with a
single run has no measured spread, so nothing on that workload is flagged.
Exit status is 0 whether or not anything is flagged.
"""

import json
import statistics
import sys

# Metrics whose layer is not the first segment of their name.
LAYER_OF = {
    "lr.iterations": "core",
    "pao_objective": "core",
    "pao.rung.primary": "core",
    "failed_frac": "eval",
    "unattributed_s": "run",
}
LAYER_OF_PREFIX = {"pao": "core"}
LAYER_ORDER = ("gen", "lefdef", "core", "route", "eval", "serve", "run")


def layer_of(metric):
    if metric in LAYER_OF:
        return LAYER_OF[metric]
    prefix = metric.split(".", 1)[0]
    return LAYER_OF_PREFIX.get(prefix, prefix)


def load_runs(path):
    """{workload: [{metric: value}, ...]} from one file of run.py output."""
    runs = {}
    workload = "?"
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            if "info" in obj:
                workload = obj["info"].get("workload", "?")
            elif obj.get("correct") and obj.get("metrics"):
                runs.setdefault(workload, []).append(
                    {k: v["value"] for k, v in obj["metrics"].items()})
    return runs


def compare(before, after):
    """Rows (workload, layer, metric, median_before, median_after, delta,
    spread, flagged) for every metric both sides report."""
    rows = []
    for workload in sorted(set(before) & set(after)):
        a_runs, b_runs = before[workload], after[workload]
        metrics = set(a_runs[0]).intersection(*a_runs[1:], *b_runs)
        for metric in sorted(metrics, key=lambda m: (
                LAYER_ORDER.index(layer_of(m))
                if layer_of(m) in LAYER_ORDER else len(LAYER_ORDER), m)):
            a = [r[metric] for r in a_runs]
            b = [r[metric] for r in b_runs]
            spread = max(max(a) - min(a), max(b) - min(b))
            delta = statistics.median(b) - statistics.median(a)
            measured = len(a) > 1 and len(b) > 1
            rows.append((workload, layer_of(metric), metric,
                         statistics.median(a), statistics.median(b), delta,
                         spread, measured and abs(delta) > spread))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load_runs(argv[1]), load_runs(argv[2])
    print(f"{'workload':<11} {'layer':<7} {'metric':<24} {'before':>13} "
          f"{'after':>13} {'delta':>8} {'spread':>11}")
    for workload, layer, metric, a, b, delta, spread, flagged in compare(
            before, after):
        rel = f"{delta / a:+.1%}" if a else ("0" if delta == 0 else "new")
        print(f"{workload:<11} {layer:<7} {metric:<24} {a:>13.6g} {b:>13.6g} "
              f"{rel:>8} {spread:>11.4g}{' *' if flagged else ''}")
    for workload in sorted(set(before) ^ set(after)):
        print(f"{workload}: runs on one side only", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
