#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark, runs one workload, prints JSON.

    python3 perfbench/run.py --workload sim_storm|match_churn|live_trunk \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  The first run configures and builds the
library and the benchmark program under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that is set); later runs only re-check the
build.  The program's report goes to stderr; the last line of stdout is one
JSON object with the end-to-end metrics named in BENCHMARK.json (--trace 0)
or the per-layer ones (--trace 1).  Exits non-zero, without a result line,
when the build fails or a named metric is missing, and with the result
line when an output check failed (correct: false).

An untraced run is several fresh processes, run one after another: POOLS
sub-seeds of the run's seed, each run REPEATS times on the same inputs, and
each process gets --seconds / REPEATS.  Sub-seed k of seed n is
n * POOLS + k, so a workload with one sub-seed runs on the seed itself.
Per sub-seed, each time metric combines the repeats with PICK: the fastest
where interference only ever adds time to identical work, the median for
live_trunk, whose threads' batching can also make a process cheaper by
chance.  Every other metric is the worst repeat's.  Over sub-seeds, times
are averaged and every other metric is again the worst.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
DEADLINE_S = 170.0
# (POOLS, REPEATS, PICK) of an untraced run; see README.md, protocol.
# sim_storm pools its worlds itself.  match_churn pools sub-seeds because
# one 50k population's cost depends on its draw, and repeats its timed
# phase in forked samples of one process.
CHILDREN = {"sim_storm": (1, 2, min),
            "match_churn": (3, 1, min),
            "live_trunk": (1, 8, statistics.median)}
TIME_UNITS = {"s", "ms", "us", "ns"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # A failed configure must not leave a cache that skips it later.
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench_bin", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench_bin")


def run_child(program, args, seed, seconds, deadline):
    """One benchmark process; its parsed result line, or None."""
    # Back malloc's heap with transparent huge pages: on a VM the page walks
    # of a 100 MB fabric are what host contention slows most, and huge
    # pages cut that run-to-run spread (see README.md, host drift).
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    cmd = [program, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", args.trace,
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {DEADLINE_S:.0f} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark program exited {proc.returncode} without a result")
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    program = build()
    if program is None:
        log("build failed")
        return 1

    started = time.monotonic()
    pools, repeats, pick_time = ((1, 1, min) if args.trace == "1"
                                 else CHILDREN[args.workload])
    results = []
    for seed in [args.seed * pools + k for k in range(pools)]:
        for _ in range(repeats):
            result = run_child(program, args, seed, args.seconds / repeats,
                               started + DEADLINE_S)
            if result is None:
                return 1
            results.append(result)

    metrics = {}
    for m in wanted:
        got = [r["metrics"].get(m["name"]) for r in results]
        if any(g is None for g in got):
            log(f"metric {m['name']} missing from the {args.workload} run")
            return 1
        if any(g["unit"] != m["unit"] for g in got):
            log(f"metric {m['name']} has unit {got[0]['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        values = [g["value"] for g in got]
        time_metric = m["unit"] in TIME_UNITS
        worst = min if m["better"] == "higher" else max
        per_seed = [(pick_time if time_metric else worst)(values[i:i + repeats])
                    for i in range(0, len(values), repeats)]
        value = (sum(per_seed) / len(per_seed) if time_metric
                 else worst(per_seed))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = all(r["correct"] for r in results)
    log(f"{args.workload} finished in {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
