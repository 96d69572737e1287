#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload swarm_anon --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the stigmergy library,
stigfuzz and the benchmark worker from source into .bench_build/. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The exact work counts are printed on the
line before it, and with --trace 0 the ungated wall-clock figures on the
line before that. The exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("swarm_ids", "swarm_anon", "serve_mix", "fuzz_batch")
# Fresh worker processes that only set up, half before and half after the
# measuring one, so setup_s is a median over cold starts spread across the
# run. fuzz_batch samples its own (stigfuzz --cases 0 before every
# invocation).
SETUP_SPAWNS = {"swarm_ids": 4, "swarm_anon": 4, "serve_mix": 8, "fuzz_batch": 0}
# Wall-clock figures: per-layer metrics of a traced run, printed on their
# own line by an untraced one.
WALL_PREFIX = "wall."
WORKER_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    for need in ("src/CMakeLists.txt", "tools/stigfuzz.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("missing %s: run from a full checkout of the repository" % need, 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench_worker", "stigfuzz"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd), 3)


def cpu_times():
    """System-wide CPU time counters from /proc/stat (empty elsewhere)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def run_worker(args, work_dir, setup_only):
    cmd = [os.path.join(BUILD, "perfbench_worker"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--stigfuzz", os.path.join(BUILD, "stigfuzz")]
    if setup_only:
        cmd.append("--setup-only")
    if args.falsify:
        cmd += ["--falsify", args.falsify]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("worker timed out", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("worker exited with code %d" % proc.returncode, 4)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: falsifies one expected output so the checks must fail.
    ap.add_argument("--falsify", choices=("payload", "reply"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive", 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    work_dir = os.path.join(ROOT, ".bench_build", "run", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    steal_before = cpu_times()
    spawns = 0 if args.trace else SETUP_SPAWNS[args.workload]
    setup = []
    for _ in range(spawns // 2):
        setup += run_worker(args, work_dir, True)["setup_s"]
    out = run_worker(args, work_dir, False)
    setup += out["setup_s"]
    for _ in range(spawns - spawns // 2):
        setup += run_worker(args, work_dir, True)["setup_s"]

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = dict(out["metrics"])
        for name, value in out["counts"].items():
            metrics[name] = {"value": value, "unit": "count"}
        metrics["fail_frac"] = {"value": out["failed"] / max(1, out["attempted"]),
                                "unit": "ratio"}
        # Layers this workload does not exercise did no work: report 0.
        for name, unit in declared.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: v for k, v in out["metrics"].items()
                   if not k.startswith(WALL_PREFIX)}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    unknown = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics))
    if unknown or missing:
        die("metrics do not match BENCHMARK.json: unknown %s, missing %s"
            % (unknown, missing), 5)
    for name, unit in declared.items():
        if metrics[name]["unit"] != unit:
            die("metric %s has unit %s, declared %s"
                % (name, metrics[name]["unit"], unit), 5)

    # Host steal explains most run-to-run spread on shared VMs (README.md).
    spent = [b - a for a, b in zip(steal_before, cpu_times())]
    if len(spent) > 7 and sum(spent) > 0:
        print("perfbench: host steal %.1f%% of CPU time during the run"
              % (100.0 * spent[7] / sum(spent)), file=sys.stderr)
    for note in out["notes"]:
        print("note: " + note)
    if not args.trace:
        wall = {k: v for k, v in out["metrics"].items()
                if k.startswith(WALL_PREFIX)}
        print(json.dumps({"wall": wall}, sort_keys=True))
    print(json.dumps({"counts": out["counts"]}, sort_keys=True))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
