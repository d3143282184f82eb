#!/usr/bin/env python3
"""Steadiness check: two interleaved run sets, A and B, of the same code.

    python3 perfbench/steady.py [--runs 10] [--seconds 10]
                                [--workloads sim_storm,match_churn,live_trunk]
                                [--first-seed 1] [--trace 0]

Run from the repository root.  For each seed in turn it runs every
workload once per set, alternating the order (A B, then B A, ...), so slow
drift of the host lands on both sets alike instead of on one block.  Per
set, workload and metric it prints the median and the spread (interquartile
distance over the median, from statistics.quantiles(n=4)) and the drift of
set B's median from set A's, flagged against the bound in BENCHMARK.json.
host.ref_ms (a fixed loop in the benchmark program) is listed per run so
host drift can be told apart from a program change.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    refs = [float(v) for v in re.findall(r"host\.ref_ms\s+([0-9.]+)",
                                         proc.stderr)]
    return result, statistics.median(refs) if refs else float("nan")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    # values[set][workload][metric] -> list over seeds; set 0 is A, 1 is B.
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(2)]
    for i in range(args.runs):
        seed = args.first_seed + i
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in workloads:
                result, ref = run_once(w, seed, seconds, args.trace)
                if not result["correct"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect output")
                for name, m in result["metrics"].items():
                    values[s][w][name].append(m["value"])
                print(f"set {'AB'[s]} seed {seed} {w}: "
                      f"host.ref_ms {ref:.3f} " +
                      " ".join(f"{k}={v['value']:.6g}"
                               for k, v in result["metrics"].items()),
                      flush=True)

    for w in workloads:
        print(f"\n{w}")
        for m in metrics:
            name = m["name"]
            med_a, sp_a = spread(values[0][w][name])
            med_b, sp_b = spread(values[1][w][name])
            drift = abs(med_b - med_a) / med_a if med_a else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and drift > bound:
                flag += "  DRIFT>BOUND"
            if bound is not None and max(sp_a, sp_b) > bound:
                flag += "  SPREAD>BOUND"
            print(f"  {name:24s} A med {med_a:12.6g} iqr/med {sp_a:6.3f}"
                  f" | B med {med_b:12.6g} iqr/med {sp_b:6.3f}"
                  f" | drift {drift:6.3f}" +
                  (f" (bound {bound})" if bound is not None else "") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
