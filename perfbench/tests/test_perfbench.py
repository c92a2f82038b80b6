"""Tests of the benchmark itself.

Run from the root of a source checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the driver (about a minute).  Every run here uses
--tiny, a fixed run of a few dozen uses or requests, so the whole file takes
well under two minutes after the build.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
            "--tiny", *extra]
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=900)


def result_line(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                     "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = run(w["name"], trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = result_line(out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertRegex(out.stdout, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}\n")
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_injected_mismatch_fails_the_run(self):
        for w in load_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    out = run(w["name"], trace, "--inject-mismatch")
                    self.assertEqual(out.returncode, 1, out.stderr)
                    result = result_line(out)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_bad_arguments_fail_without_a_result(self):
        out = run("no_such_workload", 0)
        self.assertEqual(out.returncode, 2)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
