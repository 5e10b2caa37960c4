#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in two sets of runs of one build and
compares them metric by metric.

For each workload, each set makes one run per seed, seeds 1 to --runs in
both sets. For every end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) and how far the
second median moved from the first. A metric agrees when every spread and
the move, in either direction, stay within its bound from BENCHMARK.json.
The share of failed operations must also be identical in every run.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, all workloads
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads churn_zipf_k1000

Run it from anywhere; it runs the benchmark command from the repository
root and appends every raw result to perfbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    parser.add_argument("--sets", type=int, default=2, choices=[1, 2])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", "steady.jsonl"), "a")

    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for seed in range(1, args.runs + 1):
                r = run_once(bench["command"], w, seed, args.seconds)
                runs[w].append(r)
                log.write(json.dumps({"set": s, "workload": w, "seed": seed, **r}) + "\n")
                log.flush()
                print(f"set {s + 1} {w} seed {seed}: wall {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']}, failed {r['failed']}", file=sys.stderr)
        sets.append(runs)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<40} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread%':>8} {'moved%':>8} {'bound%':>7}  verdict")
        shares = []
        for s, runs in enumerate(sets):
            shares.append({r["failed"] / r["attempted"] for r in runs[w]})
            if not all(r["correct"] for r in runs[w]):
                ok = False
                print(f"set {s + 1}: a run reported correct=false")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[w]]
                median, q1, q3, spread = summary(values)
                moved = ""
                good = spread <= bound
                if first_median is None:
                    first_median = median
                else:
                    change = (median - first_median) / first_median if first_median else 0.0
                    moved = f"{100 * change:+.1f}"
                    good = good and abs(change) <= bound
                ok = ok and good
                print(f"{name:<40} {s + 1:>3} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{100 * spread:>8.2f} {moved:>8} {100 * bound:>7.0f}  "
                      f"{'ok' if good else 'OUT'}")
        same = all(sh == shares[0] and len(sh) == 1 for sh in shares)
        print(f"failed share per run: {[sorted(sh) for sh in shares]} "
              f"({'identical' if same else 'DIFFERS'})")
        ok = ok and same
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
