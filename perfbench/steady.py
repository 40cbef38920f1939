#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds and across sets of runs.

Runs every named workload untraced, once per seed (seeds 1..runs) and per
set, with the sets interleaved: seed 1 runs set A then set B, seed 2 runs B
then A, and so on, so that slow drift of the host's speed falls on both sets
alike.  For each end-to-end metric it prints, per set, the median and the
distance between the first and third quartiles as a share of the median
("ok" when below a third of the metric's bound in BENCHMARK.json), and how
much worse the median of each later set is than that of the first ("agree"
when within the bound).  Exits non-zero when a spread other than that of
setup_s exceeds its bound, or when two sets disagree by more than a bound.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads fig7,ckpt] [--json OUT]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(series):
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--json", help="also write every value to this file")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in manifest["end_to_end"]}
    everything = {}
    failures = 0
    for workload in args.workloads.split(","):
        sets = [{} for _ in range(args.sets)]
        for seed in range(1, args.runs + 1):
            order = range(args.sets) if seed % 2 else reversed(range(args.sets))
            for k in order:
                for name, value in run_once(workload, seed, args.seconds).items():
                    sets[k].setdefault(name, []).append(value)
        everything[workload] = sets
        for name, m in metrics.items():
            bound = m["bound"]
            first = statistics.median(sets[0][name])
            for k, values in enumerate(per_set[name] for per_set in sets):
                med = statistics.median(values)
                s = spread(values)
                if name != "setup_s" and s > bound:
                    failures += 1
                line = (f"{workload:10} {name:14} set {chr(65 + k)}  median {med:.6g}  "
                        f"spread {s:.4f} {'ok' if s < bound / 3 else 'WIDE'}")
                if k > 0:
                    worse = (med - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    failures += worse > bound
                    line += f"  worse than A by {worse:+.4f} {'agree' if worse <= bound else 'DIFFER'}"
                print(f"{line}  (bound {bound})", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
