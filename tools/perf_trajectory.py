#!/usr/bin/env python3
"""Appends one line of performance numbers to the perf trajectory.

    python3 tools/perf_trajectory.py --label "sweep naming" --seeds 3

Runs perfbench's gated workloads (the ones BENCHMARK.json lists, for
its run_seconds) on k fresh seeds, and E13 Table C (relative-naming
construction at n = 128..1024), in the checkout given by --root
(default: this one). Then appends one JSON object to the trajectory
file (default:
bench/perf_trajectory.jsonl of this checkout): the commit measured, each
workload's end-to-end metrics as median and quartiles over the seeds with
its attempted and failed operation counts, and the Table C build times in
ms. Nothing is gated on it; it is the record later changes compare with.

Measuring another checkout (say a parent commit unpacked with
`git archive`) writes into this checkout's trajectory: pass --root, and
--commit when that checkout is not a git work tree. E13 is built in
--build-dir (default <root>/build, configured on first use).

To compare two checkouts, pass --parent DIR (with --parent-label, and
--parent-commit when DIR is not a git work tree): each workload then runs
seed by seed on DIR and on --root in turn, so drift of the host between
runs lands on both sides alike, and both lines are appended, DIR's first.
The side that runs first alternates seed by seed, so a bias of the first
(or second) run of a pair lands on both sides alike too; each line's
"run_position" lists, seed by seed, when that side ran (0 = first).
Lines measured one checkout at a time put all seeds of a side in one block
and cannot resolve a 20% change at a few seeds.

    python3 tools/perf_trajectory.py --label "change" --seeds 5 \
        --parent ../parent --parent-label "parent" --parent-commit <sha>
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
TABLE_C_SIZES = (128, 256, 512, 1024)


def die(msg):
    print("perf_trajectory: " + msg, file=sys.stderr)
    sys.exit(1)


def git(root, *args):
    proc = subprocess.run(["git", "-C", root] + list(args), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values):
    """Median and quartiles (inclusive method; equal to the median below
    two values)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def run_workload(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("%s seed %d printed no result (exit %d)"
            % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def table_c(root, build_dir):
    """E13 Table C build times in ms, by robot count."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", root, "-B", build_dir], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "bench_e13_scale"], check=True, stdout=sys.stderr)
    work = tempfile.mkdtemp(prefix="perf_trajectory_")
    try:
        subprocess.run([os.path.join(build_dir, "bench", "bench_e13_scale")],
                       cwd=work, check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(work, "BENCH_e13_scale.json")) as f:
            values = json.load(f)["values"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {str(n): values["relative_build_ns_n%d" % n] / 1e6
            for n in TABLE_C_SIZES}


def run_position(side, k, sides):
    """When `side` runs seed number `k`: the first side rotates by one
    every seed."""
    return (side - k) % sides


def measure(roots, spec, seeds, seconds):
    """Per root, each workload's summary: every seed runs on every root in
    turn before the next seed, starting with a different root each seed."""
    runs = [{w["name"]: [] for w in spec["workloads"]} for _ in roots]
    for w in spec["workloads"]:
        for k, s in enumerate(seeds):
            order = sorted(range(len(roots)),
                           key=lambda i: run_position(i, k, len(roots)))
            for i in order:
                runs[i][w["name"]].append(run_workload(roots[i], w["name"],
                                                       s, seconds))
    summaries = []
    for side in runs:
        workloads = {}
        for name, done in side.items():
            metrics = {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in done]
                metrics[m["name"]] = dict(spread(values), unit=m["unit"])
            workloads[name] = {
                "attempted": sum(r["attempted"] for r in done),
                "failed": sum(r["failed"] for r in done),
                "metrics": metrics,
            }
            print("%s: %s" % (name, json.dumps(metrics)), file=sys.stderr)
        summaries.append(workloads)
    return summaries


def commit_of(root, given, flag):
    commit = given or git(root, "rev-parse", "HEAD")
    if commit is None:
        die("%s is not a git work tree: pass %s" % (root, flag))
    return commit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=REPO,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--label", required=True,
                    help="what the line measures, e.g. 'sweep naming, parent'")
    ap.add_argument("--commit", help="commit measured (default: git HEAD "
                    "of --root)")
    ap.add_argument("--seeds", type=int, default=3,
                    help="fresh seeds per workload (default 3)")
    ap.add_argument("--first-seed", type=int,
                    help="first seed (default: drawn from the clock)")
    ap.add_argument("--build-dir", help="build tree for E13 (default "
                    "<root>/build)")
    ap.add_argument("--out", default=os.path.join(REPO, "bench",
                                                  "perf_trajectory.jsonl"),
                    help="trajectory file to append to")
    ap.add_argument("--parent", help="second checkout, run seed by seed "
                    "in turn with --root; its line is appended first")
    ap.add_argument("--parent-label", help="label of --parent's line")
    ap.add_argument("--parent-commit", help="commit of --parent (default: "
                    "git HEAD of --parent)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    if args.seeds < 1:
        die("--seeds must be at least 1")
    if args.parent and not args.parent_label:
        die("--parent needs --parent-label")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = float(spec["run_seconds"])
    sides = [(root, args.label, commit_of(root, args.commit, "--commit"),
              args.build_dir)]
    if args.parent:
        parent = os.path.abspath(args.parent)
        sides.insert(0, (parent, args.parent_label,
                         commit_of(parent, args.parent_commit,
                                   "--parent-commit"), None))
    first = args.first_seed
    if first is None:
        first = int(datetime.datetime.now().timestamp()) % 1000000 * 100
    seeds = list(range(first, first + args.seeds))

    summaries = measure([side[0] for side in sides], spec, seeds, seconds)
    lines = []
    for i, ((where, label, commit, build_dir), workloads) in enumerate(
            zip(sides, summaries)):
        lines.append({
            "commit": commit,
            "dirty": bool(git(where, "status", "--porcelain",
                              "--untracked-files=no")),
            "label": label,
            "date": datetime.date.today().isoformat(),
            "seeds": seeds,
            "run_position": [run_position(i, k, len(sides))
                             for k in range(len(seeds))],
            "seconds": seconds,
            "alternated": len(sides) > 1,
            "workloads": workloads,
            "e13_table_c_build_ms": table_c(
                where, os.path.abspath(build_dir or
                                       os.path.join(where, "build"))),
        })
    with open(args.out, "a") as f:
        for line in lines:
            f.write(json.dumps(line, sort_keys=True) + "\n")
    for line in lines:
        print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
