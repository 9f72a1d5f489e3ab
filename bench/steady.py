#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed (one set), optionally twice over the
same seeds, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. With two
sets it also prints how far the second median moved from the first,
in the worse direction. Compare both with the metric's bound in
BENCHMARK.json; aim for spreads below a third of it.

    python3 bench/steady.py --workloads archive,live-query --seeds 1-10 --sets 2

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_range(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for wl in names:
        sets = [[run(bench["command"], wl, s, bench["run_seconds"]) for s in seed_range(args.seeds)]
                for _ in range(args.sets)]
        for m in bench["end_to_end"]:
            line = f"{wl:13s} {m['name']:14s} bound {m['bound']:.2f}"
            medians = []
            for runs in sets:
                values = [r[m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                line += f" | median {med:12.4f} spread {(q3 - q1) / med:6.3f}"
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                line += f" | second set worse by {worse:+.3f}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
