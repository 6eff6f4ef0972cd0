#!/usr/bin/env python3
"""Steadiness check: run the benchmark in two sets, at different times,
and judge every end-to-end metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10]

Each set runs every workload --runs times, each run with its own seed
(set k uses seeds k*1000, k*1000+1, ...), workloads interleaved so host
drift spreads over all of them; GAP seconds pass between the sets.
Per workload and metric it prints each set's median and quartiles, the
spread (quartile distance over median, as statistics.quantiles(n=4)
gives the quartiles), the spread of the raw, unnormalised value where
the run reports one, and the second set's drift from the first in the
metric's worse direction. A metric passes when its spread stays within
its bound in both sets and its drift stays within its
bound. The exit status is 0 only when every metric passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Seconds between the two sets, so host drift falls between them.
GAP = 60
# End-to-end metrics whose raw value the run's detail line reports.
RAW = {
    "setup_s": "raw_setup_s",
    "throughput_per_cpu_s": "raw_throughput_per_cpu_s",
    "cpu_ms_p50": "raw_cpu_ms_p50",
    "cpu_ms_p90": "raw_cpu_ms_p90",
}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    raw = {m: detail[k] for m, k in RAW.items() if k in detail}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values, "raw": raw,
            "kernel_ms": detail.get("ref_kernel_ms")}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), q1, med, q3


def worse_by(first, second, better):
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for k in (1, 2):
        if k > 1:
            time.sleep(GAP)
        runs = {n: [] for n in names}
        for i in range(args.runs):
            for n in names:
                r = run_once(n, k * 1000 + i, seconds)
                runs[n].append(r)
                print("set %d %s seed %d: correct=%s failed=%d/%d kernel=%.4fms %s" % (
                    k, n, r["seed"], r["correct"], r["failed"], r["attempted"], r["kernel_ms"] or 0,
                    " ".join("%s=%.6g" % kv for kv in sorted(r["values"].items()))), flush=True)
        sets.append(runs)

    ok = True
    print("\n%-13s %-21s %5s %-32s %-32s %-15s %7s  %s" % (
        "workload", "metric", "bound", "set1 median [q1,q3] spread", "set2 median [q1,q3] spread",
        "raw spread 1/2", "drift", "verdict"))
    for n in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds, raw_cols, verdict = [], [], [], []
            for s in sets:
                vals = [r["values"][name] for r in s[n]]
                sp, q1, med, q3 = spread(vals)
                meds.append(med)
                cols.append("%.5g [%.5g,%.5g] %.3f" % (med, q1, q3, sp))
                if sp > bound:
                    verdict.append("spread>bound")
                raws = [r["raw"][name] for r in s[n] if name in r["raw"]]
                raw_cols.append("%.3f" % spread(raws)[0] if len(raws) >= 2 else "-")
            drift = worse_by(meds[0], meds[1], m["better"])
            if drift > bound:
                verdict.append("drift>bound")
            ok = ok and not verdict
            print("%-13s %-21s %5.2f %-32s %-32s %-15s %+7.3f  %s" % (
                n, name, bound, cols[0], cols[1], "/".join(raw_cols), drift,
                "FAIL " + ",".join(verdict) if verdict else "pass"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
