#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark: a parent commit against a change.

    python3 tools/ab_pairs.py PARENT CHANGE [--workload W] [--pairs N]
        [--trace 0|1] [--seconds S] [--first-seed K]

Run from inside the repository.  PARENT and CHANGE are any git revisions;
`git stash create` names an uncommitted tree without touching a branch.
Both sides are exported clean (`git archive`, so no untracked file, build
tree or worktree entry leaks in or is left behind) into a fresh temporary
directory, which is deleted at exit, and each builds its own benchmark
program with a tiny run first.  Pair i runs `perfbench/run.py` on seed
K + i for both sides, one after the other, and alternates which side goes
first, so slow host drift lands on both sides alike.

For every end-to-end metric in CHANGE's BENCHMARK.json (--trace 0) or
every per-layer one (--trace 1) it prints both sides' median and
interquartile range (IQR, from statistics.quantiles(n=4)), the change of
the median, and the pairs the change won.  The verdict column:
  * `unresolved`: the parent's IQR is wider than the metric's relative
    bound, so the runs cannot tell, unless every run of the change reads
    better than every run of the parent;
  * `WORSE>bound`: the change's median is worse than the parent's by more
    than the bound;
  * `better`: the medians differ by more than the parent's IQR and the
    change won at least 9 of every 10 pairs;
  * `worse`: worse by more than the parent's IQR, inside the bound;
  * blank: none of these, i.e. noise.
Exits 1 when a run fails or reports incorrect output, or when an
end-to-end metric reads `WORSE>bound` or `unresolved`.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def log(msg):
    print(f"ab_pairs: {msg}", file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, into):
    """A clean copy of the commit's tree in the new directory `into`."""
    os.makedirs(into)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_bench(tree, workload, seed, seconds, trace, size="full"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    # Each tree builds under its own .bench_build: a shared build directory
    # would run one side's program for both.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def wins(metric, parent, change):
    lower = metric["better"] == "lower"
    return sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))


def verdict(metric, parent, change):
    """Flag for the change's median against the parent's spread and bound."""
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    lower = metric["better"] == "lower"
    gain = (p_med - c_med) if lower else (c_med - p_med)
    bound = metric.get("bound")
    if bound is not None and p_med:
        separated = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        if p3 - p1 > bound * abs(p_med) and not separated:
            return "unresolved"
        if -gain / abs(p_med) > bound:
            return "WORSE>bound"
    if abs(gain) <= p3 - p1:
        return ""
    if gain < 0:
        return "worse"
    return "better" if wins(metric, parent, change) >= 0.9 * len(parent) else ""


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="live_trunk")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--first-seed", type=int, default=201)
    args = parser.parse_args()

    revs = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
            "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    workdir = tempfile.mkdtemp(prefix="ab_pairs-")
    trees = {side: os.path.join(workdir, side) for side in revs}
    try:
        for side, rev in revs.items():
            export(rev, trees[side])
            log(f"{side} {rev[:12]} -> {trees[side]}")
            first = run_bench(trees[side], args.workload, 1, 1, args.trace,
                              size="tiny")
            if not first["correct"]:
                raise SystemExit(f"{side}: tiny {args.workload} run failed "
                                 "its output check")
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = args.seconds or spec["run_seconds"]
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result = run_bench(trees[side], args.workload, seed, seconds,
                                   args.trace)
                runs[side].append(result)
                log(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                    + ", ".join(f"{m['name']}={fmt(result['metrics'][m['name']]['value'])}"
                                for m in metrics[:5]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}, --trace {args.trace}, {args.pairs} pairs, "
          f"{seconds:g} s per run, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}; parent {revs['parent'][:12]}, "
          f"change {revs['change'][:12]}")
    print()
    print("| metric | parent median (IQR) | change median (IQR) | change "
          "| wins | verdict |")
    print("|---|---|---|---|---|---|")
    broke_bound = False
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p1, p_med, p3 = quartiles(parent)
        c1, c_med, c3 = quartiles(change)
        delta = (f"{100.0 * (c_med - p_med) / abs(p_med):+.1f}%" if p_med
                 else "n/a")
        flag = verdict(metric, parent, change)
        broke_bound |= flag in ("WORSE>bound", "unresolved")
        print(f"| {name} ({metric['unit']}) | {fmt(p_med)} ({fmt(p1)}–{fmt(p3)}) "
              f"| {fmt(c_med)} ({fmt(c1)}–{fmt(c3)}) | {delta} "
              f"| {wins(metric, parent, change)}/{len(parent)} | {flag} |")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs)
                 for side, rs in runs.items()}
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    print()
    print(f"failed operations: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}; "
          f"all output checks passed: {correct}")
    if args.pairs < 5:
        print(f"note: the parent's IQR comes from {args.pairs} runs; "
              "treat the verdicts as indicative")
    return 0 if correct and not broke_bound else 1


if __name__ == "__main__":
    sys.exit(main())
