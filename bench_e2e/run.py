#!/usr/bin/env python3
"""Builds and runs bench_e2e, the end-to-end benchmark of EmbLookup.

    python3 bench_e2e/run.py --workload online_zipf --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The script

  1. builds the library and the bench_e2e program from the checkout's
     sources into .bench_build/e2e (bench_e2e/CMakeLists.txt);
  2. trains the model once per built binary: the artifacts directory is
     keyed by the SHA-256 of the bench_e2e binary, so a commit that changes
     training or encode numerics never reuses another build's model;
  3. runs one workload and relays its report. The last stdout line is the
     result: {"correct", "attempted", "failed", "metrics"}, end-to-end
     metrics with --trace 0 and per-layer metrics with --trace 1.

A traced run also needs the untraced figures for the same build and seed
to report trace.overhead_pct; it reuses a saved untraced result or makes
one first. Every result is also saved with its provenance block under
.bench_build/results/. A failed correctness check, an invalid run or a
failed build exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ("online_zipf", "bulk_annotate", "routed_shards")
# Latency metrics whose traced/untraced ratio gives the tracing overhead.
OVERHEAD_METRICS = ("p50_us.low", "p50_us.high", "p50_us.writes")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", os.path.join(ROOT, "bench_e2e"),
                       "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                      log_path) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                       "-j", jobs], log_path) == 0


def binary_key():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def artifacts(key):
    """Trains once per binary; drops artifacts of other binaries."""
    root = os.path.join(BUILD_ROOT, "artifacts")
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        if name != key:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    final = os.path.join(root, key)
    if os.path.exists(os.path.join(final, "ready")):
        return final
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.time()
    proc = subprocess.run([BINARY, "--prepare", tmp], cwd=ROOT,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    with open(os.path.join(tmp, "ready"), "w") as f:
        json.dump({"prepare_s": time.time() - t0, "binary_key": key}, f)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    log("one-time training for build %s took %.1fs" % (key, time.time() - t0))
    return final


def run_workload(art, workload, seed, seconds, trace):
    """Runs bench_e2e; returns (report lines, result dict) or None."""
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--artifacts", art, "--work-dir", work,
           "--trace-out", os.path.join(BUILD_ROOT, "results",
                                       "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s timed out after %ds" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log("bench_e2e: %s exited with %d" % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("bench_e2e: malformed result line")
        return None
    return lines[:-1], result


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    return None


def save(key, workload, seed, trace, record):
    path = os.path.join(BUILD_ROOT, "results", key,
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def untraced_reference(key, art, workload, seed, seconds):
    path = os.path.join(BUILD_ROOT, "results", key,
                        "%s-seed%d-trace0.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record.get("seconds") == seconds:
            return record["result"]["metrics"]
    done = run_workload(art, workload, seed, seconds, 0)
    if done is None:
        return None
    lines, result = done
    save(key, workload, seed, 0, {"seconds": seconds, "result": result,
                                  "provenance": tagged(lines, "provenance")})
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 3:
        parser.error("--seconds must be at least 3 (three phases)")

    if not build():
        log("bench_e2e: build failed; see .bench_build/build.log")
        return 1
    key = binary_key()
    art = artifacts(key)
    if art is None:
        log("bench_e2e: one-time training failed")
        return 1
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)

    done = run_workload(art, args.workload, args.seed, args.seconds,
                        args.trace)
    if done is None:
        return 1
    lines, result = done
    record = {"seconds": args.seconds, "result": result,
              "provenance": tagged(lines, "provenance")}
    if args.trace:
        traced = tagged(lines, "e2e")
        untraced = untraced_reference(key, art, args.workload, args.seed,
                                      args.seconds)
        if traced is None or untraced is None:
            log("bench_e2e: no untraced reference for trace.overhead_pct")
            return 1
        ratios = sorted(traced[m]["value"] / untraced[m]["value"]
                        for m in OVERHEAD_METRICS)
        overhead = (ratios[len(ratios) // 2] - 1.0) * 100.0
        result["metrics"]["trace.overhead_pct"] = {"value": overhead,
                                                   "unit": "%"}
        record["provenance"]["trace_overhead_pct"] = overhead
        record["traced_e2e"] = traced
    else:
        record["provenance"]["trace_overhead_pct"] = None
    path = save(key, args.workload, args.seed, args.trace, record)
    for line in lines:
        if not line.startswith("e2e: "):
            print(line)
    print("provenance+: " + json.dumps(record["provenance"]))
    print("saved: " + os.path.relpath(path, ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
