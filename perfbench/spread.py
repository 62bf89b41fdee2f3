#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each named
workload (untraced), then prints, per metric, the median and the
distance between the first and third quartile as a share of the
median, next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]

Each run's full output is kept under perfbench/runs/ (ignored by git),
so two sets can be compared with `perfbench --diff OLD NEW`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--tag", default="spread")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs("perfbench/runs", exist_ok=True)
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, check=True)
            path = f"perfbench/runs/{args.tag}-{workload}-{seed}.txt"
            with open(path, "w") as f:
                f.write(run.stdout)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok &= steady
            print(f"  {workload:16} {m['name']:16} median {med:12.5g}  "
                  f"spread {spread:.4f}  bound {m['bound']}  "
                  f"{'ok' if steady else 'TOO WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
