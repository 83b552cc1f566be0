#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, must pass its golden checks and report every metric of
BENCHMARK.json with its unit; the traced runs must leave a Perfetto trace
and a ledger holding every per-layer metric; and the same runs against a
tampered golden file must fail.

    python3 perfbench/test_smoke.py --bin PATH/medea_bench --work-dir DIR
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def smoke(binary, out_dir, golden=None):
    """Exit code of run.py --smoke (0 only when every run is correct)."""
    cmd = [sys.executable, "-B", RUN, "--smoke", "--bin", binary, "--out", out_dir]
    if golden:
        cmd += ["--golden", golden]
    return subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120).returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    failures = []

    ok_dir = os.path.join(args.work_dir, "ok")
    rc = smoke(args.bin, ok_dir)
    if rc != 0:
        failures.append(f"smoke run failed (exit {rc})")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        prefix = os.path.join(ok_dir, f"{w}-seed1")
        try:
            with open(prefix + ".perfetto.json") as f:
                if not json.load(f)["traceEvents"]:
                    failures.append(f"{w}: empty Perfetto trace")
            with open(prefix + ".ledger.json") as f:
                missing = per_layer - set(json.load(f)["metrics"])
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"{w}: trace files unreadable: {e}")
            continue
        if missing:
            failures.append(f"{w}: ledger lacks {sorted(missing)}")

    with open(os.path.join(HERE, "baseline", "golden.json")) as f:
        golden = json.load(f)
    golden["smoke"]["jacobi_mp_wb"]["any_seed"]["total_cycles"]["8P_16k$_WB"] += 1
    tampered = os.path.join(args.work_dir, "tampered_golden.json")
    with open(tampered, "w") as f:
        json.dump(golden, f)
    if smoke(args.bin, os.path.join(args.work_dir, "tampered"), tampered) == 0:
        failures.append("a tampered golden file did not fail the run")

    for f in failures:
        print(f"FAIL: {f}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
