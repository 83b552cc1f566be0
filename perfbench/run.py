#!/usr/bin/env python3
"""Build and run the MEDEA benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator library plus medea_bench) in $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls only re-check the build.
The workload runs in its own process, so peak_rss_mb belongs to it.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with its unit.  The run is correct
when no job failed, every simulated output matches
perfbench/baseline/golden.json and every metric is present; otherwise
the line still prints and the exit code is 1.  A full record of the run
(all metrics, simulated counters, outputs) goes to --out, by default
<build dir>/runs, and a traced run also writes a Perfetto trace and the
per-layer self-time ledger there.

--smoke runs every workload at toy size, untraced and traced, against
the golden values for that size, and checks that every metric named in
BENCHMARK.json is reported with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected an integer of at least 1")
    return value


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"[perfbench] cannot read {what} {path}: {e}")


def build(build_dir):
    """Configure once, then build medea_bench; returns the binary path."""
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            sys.exit("[perfbench] cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "medea_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
        sys.exit("[perfbench] build failed")
    return os.path.join(build_dir, "medea_bench")


def run_binary(binary, workload, seed, seconds, trace, smoke, out_prefix):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append(f"--out-prefix={out_prefix}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"[perfbench] {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"[perfbench] medea_bench failed for {workload} (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except ValueError:
        sys.exit(f"[perfbench] medea_bench printed no report for {workload}")


def golden_mismatches(report, golden, size):
    """Every golden entry for this workload and seed must equal the run's
    (a workload whose outputs depend on the seed is pinned at some seeds
    and checked by its own invariants at the others)."""
    entry = golden.get(size, {}).get(report["workload"])
    if entry is None:
        return [f"no golden values for {report['workload']}"]
    expected = dict(entry.get("any_seed", {}))
    expected.update(entry.get(f"seed{report['seed']}", {}))
    actual = dict(report["outputs"], counts=report["counts"])
    problems = []
    for key, want in sorted(expected.items()):
        got = actual.get(key)
        if got != want:
            if isinstance(want, dict) and isinstance(got, dict):
                diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
                problems.append(f"{key}: {len(diff)} values differ, e.g. {diff[:3]}")
            else:
                problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def check_run(report, bench, golden, size):
    """Returns (contract result line, list of problems)."""
    section = "per_layer" if report["trace"] else "end_to_end"
    measured = report["layer"] if report["trace"] else report["e2e"]
    problems = [f"job failed: {e}" for e in report["errors"]]
    problems += golden_mismatches(report, golden, size)
    metrics = {}
    for spec in bench[section]:
        name = spec["name"]
        got = measured.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"metric {name} has unit {got['unit']}, expected {spec['unit']}")
        else:
            metrics[name] = got
    correct = not problems and report["failed"] == 0
    line = {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}
    return line, problems


def record_run(out_dir, report, line, problems):
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    record = dict(report, result=line, problems=problems)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark definition")
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=non_negative_int, default=1)
    ap.add_argument("--seconds", type=positive_int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at toy size, untraced and traced")
    ap.add_argument("--golden", default=os.path.join(HERE, "baseline", "golden.json"))
    ap.add_argument("--out", help="directory for run records and trace files")
    ap.add_argument("--bin", help="use this medea_bench instead of building one")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    golden = load_json(args.golden, "golden values")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = args.bin or build(build_dir)
    out_dir = args.out or os.path.join(build_dir, "smoke" if args.smoke else "runs")
    os.makedirs(out_dir, exist_ok=True)
    seconds = args.seconds or bench["run_seconds"]

    if args.smoke:
        failures = 0
        for workload in workloads:
            for trace in (0, 1):
                prefix = os.path.join(out_dir, f"{workload}-seed{args.seed}")
                report = run_binary(binary, workload, args.seed, 1, trace, True, prefix)
                line, problems = check_run(report, bench, golden, "smoke")
                record_run(out_dir, report, line, problems)
                for p in problems:
                    log(f"{workload} trace={trace}: {p}")
                failures += not line["correct"]
                log(f"{workload} trace={trace}: {'ok' if line['correct'] else 'FAILED'}")
        print(json.dumps({"smoke": True, "correct": failures == 0, "failed_runs": failures}))
        return 0 if failures == 0 else 1

    prefix = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    report = run_binary(binary, args.workload, args.seed, seconds, args.trace, False, prefix)
    line, problems = check_run(report, bench, golden, "full")
    record_run(out_dir, report, line, problems)
    for p in problems:
        log(p)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
