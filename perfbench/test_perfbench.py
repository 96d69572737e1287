#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny run lengths.

    python3 perfbench/test_perfbench.py

Every workload must print every end-to-end metric of BENCHMARK.json with
its unit, its wall-clock figures, and every per-layer metric when traced;
a falsified expectation must make the run exit non-zero. The first test builds the benchmark if
.bench_build/ holds no build yet.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Printed on their own line by an untraced run; per-layer when traced.
WALL = {"wall.op_p50_ms": "ms", "wall.op_p90_ms": "ms",
        "wall.throughput_per_s": "1/s"}
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("swarm_ids", "swarm_anon", "serve_mix", "fuzz_batch")
# Per-layer metrics each workload must measure (non-zero), not just print.
OWN_LAYERS = {
    "swarm_ids": ("core.build_ms", "core.step_p50_us", "proto.compute_us",
                  "proto.compute_allocs", "swarm.instants"),
    "swarm_anon": ("core.build_live_mb", "proto.naming_ms",
                   "proto.sliced_core_ms", "geom.sec_us", "geom.granular_ms"),
    "serve_mix": ("serve.wire_us", "serve.batch_p50_us", "serve.step_us",
                  "serve.req.step", "serve.transcript_digest"),
    "fuzz_batch": ("fuzz.case_p50_ms", "fuzz.serial_s", "fault.share",
                   "par.lib_wall_s", "fuzz.cases"),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, falsify=None, seconds=0.5, seed=7):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if falsify:
        cmd += ["--falsify", falsify]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, lines


class Metrics(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, lines = run(workload)
                self.assertEqual(code, 0, lines)
                self.check(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                counts = json.loads(lines[-2])["counts"]
                self.assertTrue(counts)
                wall = json.loads(lines[-3])["wall"]
                self.assertEqual({k: v["unit"] for k, v in wall.items()},
                                 WALL)

    def test_traced_run_prints_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, lines = run(workload, trace=1)
                self.assertEqual(code, 0, lines)
                self.check(result, SPEC["per_layer"])
                for name in OWN_LAYERS[workload] + ("wall.op_p50_ms",):
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, first = run(workload, seed=11)
                _, _, second = run(workload, seed=11)
                self.assertEqual(first[-2], second[-2])


class Checks(unittest.TestCase):
    def test_flipped_payload_byte_fails(self):
        code, result, _ = run("swarm_anon", falsify="payload")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_altered_reply_fails(self):
        code, result, _ = run("serve_mix", falsify="reply")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
