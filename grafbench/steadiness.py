#!/usr/bin/env python3
"""Measure how steady the benchmark is on this host.

    python3 grafbench/steadiness.py

Run from the repository root. Takes two sets of ten runs of every workload
in BENCHMARK.json, the second set starting two minutes after the first
ends. Within a set the workloads are interleaved (run i of every workload,
then run i + 1), each run with its own seed. For every end-to-end metric it
prints each set's median and quartiles and the spread (interquartile range
over the median). A spread above the metric's bound in BENCHMARK.json is
marked OVER, and one above a third of the bound, the steadiness target, is
marked WIDE; setup_s is held to the same rules. It then checks that the
second set's medians are no worse than the first set's by more than the
bound, and that the failed share of operations is the same in both sets.
Exits 0 only when no spread is WIDE or OVER and both sets agree.
"""
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2
GAP_S = 120


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: {workload} seed {seed} failed its output checks")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # sets[s][workload] -> list of results
    sets = []
    for s in range(SETS):
        if s:
            time.sleep(GAP_S)
        results = {w: [] for w in workloads}
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                results[w].append(run_once(bench, w, seed))
                print(f"set {s + 1} run {i + 1}/{RUNS} {w} done", file=sys.stderr)
        sets.append(results)

    over = wide = disagree = 0
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                mark = ""
                if spread > spec["bound"]:
                    mark, over = "  OVER", over + 1
                elif spread > spec["bound"] / 3:
                    mark, wide = "  WIDE", wide + 1
                print(f"{name:<18} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {spec['bound']:>6}{mark}")
            for med in medians[1:]:
                worse = (med - medians[0]) / medians[0]
                if spec["better"] == "higher":
                    worse = -worse
                if worse > spec["bound"]:
                    disagree += 1
                    print(f"{name:<18} set 2 worse than set 1 by {worse:.4f} > {spec['bound']}")
        shares = [sum(r["failed"] for r in results[w]) / sum(r["attempted"] for r in results[w])
                  for results in sets]
        print(f"failed share per set: {shares}")
        disagree += len(set(shares)) != 1
    print(f"\nspreads above their bound: {over}; above a third of it: {wide}; "
          f"disagreements between sets: {disagree}")
    steady = over == 0 and wide == 0 and disagree == 0
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
