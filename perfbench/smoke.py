#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Run from the repository root (builds the benchmark on first use).  For each
workload in BENCHMARK.json it runs run.py with --size tiny --seconds 1,
once untraced and once traced, and asserts that the run exits 0, reports
correct output, and prints every end-to-end (resp. per-layer) metric named
in BENCHMARK.json with that metric's unit.  Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"FAIL {label}: exit {proc.returncode}")
                failures += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append("output check failed")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{m['name']} unit {got['unit']}")
            print(f"{'FAIL' if problems else 'ok  '} {label}: "
                  f"{len(result['metrics'])} metrics"
                  + (" — " + "; ".join(problems) if problems else ""))
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
