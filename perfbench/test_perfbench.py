#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repository root)

Builds the benchmark like run.py does, then checks that:
  * a short smoke run of each workload passes its correctness gate;
  * every metric name in BENCHMARK.json is printed with its unit
    (end-to-end with --trace 0, per-layer with --trace 1);
  * a deliberately corrupted reference value trips the gate (exit 1);
  * the benchmark sources pass sap_lint.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def binary():
    path = run.build(BUILD)
    if path is None:
        raise RuntimeError("perfbench build failed")
    return path


def bench(workload, trace=0, seconds=2, extra=()):
    proc = subprocess.run(
        [binary(), "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace)] + list(extra),
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


class Smoke(unittest.TestCase):
    def check_names(self, workload, trace, key):
        rc, lines, result = bench(workload, trace)
        self.assertEqual(rc, 0, "\n".join(lines[-20:]))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(any(name in l and unit in l and "n=" in l for l in lines[:-1]),
                            "%s not printed with its unit" % name)
        return result

    def test_workloads_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_names(w["name"], 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_per_layer(self):
        self.check_names("ingest-mix", 1, "per_layer")

    def test_corrupted_reference_trips_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines, result = bench(w["name"], extra=["--corrupt-reference"])
                self.assertEqual(rc, 1, "\n".join(lines[-20:]))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_sources_lint_clean(self):
        subprocess.run(["cmake", "--build", BUILD, "--target", "sap_lint"],
                       check=True, capture_output=True)
        proc = subprocess.run([os.path.join(BUILD, "sap", "sap_lint"),
                               os.path.join(HERE, "src")], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
