#!/usr/bin/env python3
"""Steadiness procedure for the benchmark.

Runs every workload N times (default 10), with seeds 1 to N, and for
each end-to-end metric reports the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. The bound a metric can hold is three times its spread, at
least 0.05; a metric whose bound would exceed 0.25, the largest a bound may
be, cannot be held steady. The procedure fails when a metric's spread needs
more than its bound in BENCHMARK.json. With --sets 2 it repeats the whole
procedure and also fails when a second median is worse than the first by
more than the bound.

Each run also reports, per round, its CPU time before calibration and the
calibration time measured around the round (see run.py). Their medians are
the control: when the host's speed changes between sets, the raw CPU time
and the calibration time move together and the calibrated metrics do not.

    python3 wlbench/steady.py                        # 10 runs per workload
    python3 wlbench/steady.py --runs 5 --workloads city_grid --seconds 10
    python3 wlbench/steady.py --sets 2 --out steady.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_BOUND = 0.25


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if not result or not result["correct"] or result["failed"]:
        raise SystemExit("run.py failed on %s seed %d:\n%s" % (workload, seed, out.stderr[-3000:]))
    rounds = re.findall(r" cpu ([0-9.]+)s calib ([0-9.]+)s ", out.stderr)
    result["control"] = {"raw_cpu_s": statistics.median(float(c) for c, _ in rounds),
                         "calib_s": statistics.median(float(k) for _, k in rounds)}
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def measure(workloads, runs, seconds):
    table = {}
    for w in workloads:
        results = [run_once(w, seed, seconds) for seed in range(1, runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        table[w] = {"correct": all(r["correct"] for r in results), "failed_shares": sorted(shares),
                    "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values)
            table[w]["metrics"][name] = {"median": med, "spread": sp, "values": values}
        for name in ("raw_cpu_s", "calib_s"):
            values = [r["control"][name] for r in results]
            med, sp = spread(values)
            table[w].setdefault("control", {})[name] = {"median": med, "spread": sp, "values": values}
        print("%s: correct=%s failed/attempted=%s" % (w, table[w]["correct"], table[w]["failed_shares"]))
        for name, m in list(table[w]["metrics"].items()) + list(table[w]["control"].items()):
            print("  %-16s median %-14.6g spread %.4f" % (name, m["median"], m["spread"]))
        sys.stdout.flush()
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for i in range(args.sets):
        print("== set %d" % (i + 1))
        sets.append(measure(workloads, args.runs, seconds))

    print("== bounds")
    ok = True
    for name, bound in bounds.items():
        worst = max(s[w]["metrics"][name]["spread"] for s in sets for w in workloads)
        derived = max(0.05, 3 * worst)
        line = "  %-16s bound %.3f  worst spread %.4f  derived %.3f" % (name, bound, worst, derived)
        if derived > bound:
            ok = False
            line += "  CANNOT BE HELD STEADY" if derived > MAX_BOUND else "  NEEDS A LARGER BOUND"
        print(line)
    if len(sets) > 1:
        print("== second median vs first")
        for w in workloads:
            for name, bound in bounds.items():
                a = sets[0][w]["metrics"][name]["median"]
                b = sets[1][w]["metrics"][name]["median"]
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = (b - a) / a if better == "lower" else (a - b) / a
                flag = "  WORSE THAN BOUND" if worse > bound else ""
                ok = ok and not flag
                print("  %-14s %-16s %+.4f%s" % (w, name, worse, flag))
            for name in ("raw_cpu_s", "calib_s"):
                a = sets[0][w]["control"][name]["median"]
                b = sets[1][w]["control"][name]["median"]
                print("  %-14s %-16s %+.4f  (control)" % (w, name, (b - a) / a))
            if sets[0][w]["failed_shares"] != sets[1][w]["failed_shares"]:
                ok = False
                print("  %s: failed shares differ" % w)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
