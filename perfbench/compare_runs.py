#!/usr/bin/env python3
"""Compare two directories of benchmark runs, parent against change.

    python3 perfbench/compare_runs.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the run records perfbench/run.py writes with --out;
only untraced records are compared.  For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
fraction of seed-matched pairs the change wins (ties count for neither)
and a verdict:

  unresolved  a side's spread (quartile distance / median) is wider than
              the bound, and not every change run beats every parent run
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  regressed   the change's median is worse than the parent's by more
              than the bound
  unchanged   otherwise

The runs are comparable only if every run is correct with no failed job
and both sides simulated the same cycles for each workload and seed.
Exit code 1 when a metric regressed or the runs are not comparable.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Untraced run records by workload, each list sorted by seed."""
    runs = collections.defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == 0 and "result" in rec:
            runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, lower_is_better, bound):
    """Verdict for one metric from each side's values and the (parent,
    change) pairs run with the same seed."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    every_run_better = all(better(c, p) for c in change for p in parent)
    worse_by = (c_med - p_med if lower_is_better else p_med - c_med) / p_med if p_med else 0.0
    if spread > bound and not every_run_better:
        return "unresolved", win_frac
    if win_frac >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1 and better(c_med, p_med):
        return "improved", win_frac
    if worse_by > bound:
        return "regressed", win_frac
    return "unchanged", win_frac


def comparability_problems(parent_runs, change_runs):
    problems = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, recs in runs.items():
            for r in recs:
                if r["failed"] != 0 or not r["result"]["correct"]:
                    problems.append(f"{side} {workload} seed {r['seed']}: run failed or incorrect")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        cycles = collections.defaultdict(set)
        for recs in (parent_runs.get(workload, []), change_runs.get(workload, [])):
            for r in recs:
                cycles[r["seed"]].add(r["sim_cycles"])
        for seed, values in sorted(cycles.items()):
            if len(values) > 1:
                problems.append(f"{workload} seed {seed}: sim_cycles differ {sorted(values)}")
        if workload not in parent_runs or workload not in change_runs:
            problems.append(f"{workload}: runs on one side only")
    return problems


def compare(parent_dir, change_dir, bench):
    """Returns (table rows, comparability problems)."""
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_recs, c_recs = parent_runs[workload], change_runs[workload]
        for m in bench["end_to_end"]:
            name = m["name"]
            by_seed = collections.defaultdict(lambda: ([], []))
            for side, recs in enumerate((p_recs, c_recs)):
                for r in recs:
                    by_seed[r["seed"]][side].append(r["result"]["metrics"][name]["value"])
            parent = [v for ps, _ in by_seed.values() for v in ps]
            change = [v for _, cs in by_seed.values() for v in cs]
            pairs = [pc for ps, cs in by_seed.values() for pc in zip(ps, cs)]
            result, win_frac = verdict(parent, change, pairs,
                                       m["better"] == "lower", m["bound"])
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "parent": quartiles(parent), "change": quartiles(change),
                         "pairs": len(pairs), "win_frac": win_frac, "verdict": result})
    return rows, comparability_problems(parent_runs, change_runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    rows, problems = compare(args.parent_dir, args.change_dir, bench)
    fmt = "{:<20} {:<16} {:>30} {:>30} {:>9} {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3", "change q1/median/q3",
                     "win", "verdict"))
    for r in rows:
        parent, change = ("{:.4g}/{:.4g}/{:.4g}".format(*r[s]) for s in ("parent", "change"))
        print(fmt.format(r["workload"], r["metric"], parent, change,
                         f"{r['win_frac']:.2f}/{r['pairs']}", r["verdict"]))
    for p in problems:
        print(f"not comparable: {p}")
    regressed = any(r["verdict"] == "regressed" for r in rows)
    return 1 if regressed or problems or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
