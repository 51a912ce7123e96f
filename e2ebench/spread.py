#!/usr/bin/env python3
"""Runs one benchmark workload over several seeds and reports, for every
metric of the final JSON line, the median, the quartiles and the spread
(quartile distance as a share of the median).

Run from the repository root:

  python3 e2ebench/spread.py --workload serve-hot --seeds 1-10 \
      --seconds 10 [--trace 0|1] [--log runs.jsonl]

Each run's JSON line is appended to --log when given, so a later reader
can recompute any figure.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = ["bash", "e2ebench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds,
               "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}")
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload,
                                      "seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"{'metric':<30} {'unit':<8} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<30} {units[name]:<8} {med:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g} {spread:>8.4f}")


if __name__ == "__main__":
    main()
