"""Steadiness mode: run each workload twenty times, one seed per run, in two
sets of ten, and report the median, quartiles and spread of every
end-to-end metric.

    python3 perfbench/steadiness.py

Spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
is below a third of its bound in BENCHMARK.json and the second set's median
is no worse than the first's by more than the bound.  Seeds run from 1;
every workload and the run length are those of BENCHMARK.json.  The result
is written to steadiness.json next to this file as the evidence for the
bounds; the exit code is 0 only if every metric is steady and no operation
failed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def worse_by(metric, first, second):
    """How much worse the second median is, as a share of the first."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    result = {"hardware": {"cpu": cpu_model(), "cores": os.cpu_count()},
              "seconds": seconds, "runs": RUNS, "workloads": {}}
    all_ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(SETS):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            runs = [run_once(name, seed, seconds) for seed in seeds]
            failed = sum(r["failed"] for r in runs)
            stats = {}
            for metric in bench["end_to_end"]:
                m = metric["name"]
                st = summarize([r["metrics"][m]["value"] for r in runs])
                st["bound"] = metric["bound"]
                st["steady"] = st["spread"] < metric["bound"] / 3
                if sets:
                    st["worse_than_set1"] = worse_by(
                        metric, sets[0]["metrics"][m]["median"], st["median"])
                    st["steady"] = (st["steady"]
                                    and st["worse_than_set1"] <= metric["bound"])
                all_ok = all_ok and st["steady"] and failed == 0
                stats[m] = st
                print(f"{name:16s} set {s + 1} {m:14s} median {st['median']:.6g} "
                      f"spread {st['spread']:.4f} bound {metric['bound']} "
                      f"{'ok' if st['steady'] else 'NOT STEADY'}", flush=True)
            sets.append({"seeds": list(seeds), "failed": failed, "metrics": stats})
        result["workloads"][name] = sets
    result["steady"] = all_ok
    with open(os.path.join(HERE, "steadiness.json"), "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
