#!/usr/bin/env python3
"""Run-to-run spread study of the benchmark.

Runs the command of BENCHMARK.json several times per workload, each time
with another seed, and prints for every end-to-end metric its median, its
quartiles and its interquartile range as a share of the median, against
the metric's bound. Run it from the repository root:

    python3 f2perf/spread.py --runs 10 --save set1.json
    python3 f2perf/spread.py --runs 10 --save set2.json
    python3 f2perf/spread.py --compare set1.json set2.json

`--compare` reports, per workload and metric, how far the second set's
median moved from the first's, as a share of the first, against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace=0):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--save", help="write the raw values here")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    args = ap.parse_args()
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        worst = 0.0
        for workload, first in sets[0].items():
            second = sets[1][workload]
            for metric, bound in bounds.items():
                a = statistics.median(first[metric])
                b = statistics.median(second[metric])
                shift = (b - a) / a
                worst = max(worst, abs(shift) / bound)
                print(f"{workload:15s} {metric:12s} {a:12.5g} -> {b:12.5g} "
                      f"{shift:+7.3f} (bound {bound})")
        print(f"largest |shift| / bound: {worst:.2f}")
        return

    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    raw = {}
    for workload in workloads:
        runs = [run_once(bench, workload, args.seed0 + i, seconds) for i in range(args.runs)]
        raw[workload] = {m: [r[m] for r in runs] for m in bounds}
        for metric, bound in bounds.items():
            med, q1, q3, iqr = spread(raw[workload][metric])
            flag = "ok" if iqr <= bound / 3 else ("within bound" if iqr <= bound else "TOO NOISY")
            print(f"{workload:15s} {metric:12s} median {med:12.5g} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"iqr/median {iqr:6.3f} bound {bound} {flag}", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
