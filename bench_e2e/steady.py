#!/usr/bin/env python3
"""Steadiness self-check for bench_e2e.

    python3 bench_e2e/steady.py [--runs 10] [--sets 1] [--workloads a,b]

Runs every workload --runs times through run.py, each with another seed
and for BENCHMARK.json's run_seconds, and prints per end-to-end metric its
median, quartiles (as Python's statistics.quantiles(n=4) gives them), min
and max, and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json. A spread under a third of the bound is "ok", under the
bound "wide", else "FAIL". With --sets 2 the whole round runs twice and
the second median's drift from the first is checked against the bound
too. Raw values are saved to .bench_build/steady.json. Exits non-zero when
any run fails or any check reads FAIL.
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
SEED_BASE = 101  # Run i of set s uses seed SEED_BASE + 1000 * s + i.


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def worse_share(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    failures = 0
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {name: [] for name in metrics}
            for i in range(args.runs):
                seed = SEED_BASE + s * 1000 + i
                t0 = time.time()
                result = run_once(workload, seed, bench["run_seconds"])
                if result is None:
                    print("%s seed %d: RUN FAILED" % (workload, seed))
                    failures += 1
                    continue
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print("%s seed %d: ok in %.0fs" % (workload, seed,
                                                   time.time() - t0),
                      flush=True)
            sets.append(values)
        raw[workload] = sets
        print("\n%s (%d runs x %d set(s), %ds each)" %
              (workload, args.runs, args.sets, bench["run_seconds"]))
        print("%-16s %12s %12s %12s %12s %12s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread",
               "bound", "verdict"))
        for name, m in metrics.items():
            for s, values in enumerate(sets):
                v = values[name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                if spread < m["bound"] / 3:
                    verdict = "ok"
                elif spread <= m["bound"]:
                    verdict = "wide"
                else:
                    verdict = "FAIL"
                    failures += 1
                print("%-16s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% "
                      "%5.0f%% %s" % (name + ("" if s == 0 else "#2"),
                                      statistics.median(v), q1, q3, min(v),
                                      max(v), spread * 100, m["bound"] * 100,
                                      verdict))
            if len(sets) == 2 and sets[0][name] and sets[1][name]:
                drift = worse_share(m, statistics.median(sets[0][name]),
                                    statistics.median(sets[1][name]))
                verdict = "ok" if drift <= m["bound"] else "FAIL"
                failures += verdict == "FAIL"
                print("%-16s second median worse by %.2f%% (bound %.0f%%) %s"
                      % (name, drift * 100, m["bound"] * 100, verdict))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
