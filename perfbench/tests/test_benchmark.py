#!/usr/bin/env python3
"""Self-tests of the lake benchmark.

Run from the repository root:

    python3 perfbench/tests/test_benchmark.py

Builds perfbench incrementally (see perfbench/run.py), checks that the
metric names the binary emits match BENCHMARK.json, that the output-contract
check rejects malformed results, and runs the C++ self-tests
(perfbench/tests/selftest.cc: percentile refusal, the correctness gate
flagging a wrong reference, span accounting).
"""
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402


def listed_metrics(binary, trace):
    out = subprocess.run([str(binary), "--list-metrics", str(trace)],
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines() if line.strip())


class MetricNamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_emitted_names_match_benchmark_json(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.assertEqual(listed_metrics(self.binary, trace),
                                 run.expected_metrics(trace))

    def test_names_use_the_allowed_charset(self):
        for trace in (0, 1):
            for name, unit in run.expected_metrics(trace).items():
                self.assertRegex(name, run.NAME_RE)
                self.assertRegex(unit, run.UNIT_RE)


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_metrics(0)
        self.good = {"correct": True, "attempted": 120, "failed": 0,
                     "metrics": {n: {"value": 1.5, "unit": u}
                                 for n, u in self.expected.items()}}

    def test_accepts_a_well_formed_result(self):
        self.assertEqual(run.contract_errors(self.good, self.expected), [])

    def test_rejects_unknown_missing_and_malformed_metrics(self):
        extra = dict(self.good, metrics=dict(self.good["metrics"],
                                             **{"bad name": {"value": 1, "unit": "s"}}))
        self.assertTrue(run.contract_errors(extra, self.expected))
        missing = dict(self.good, metrics={k: v for k, v in self.good["metrics"].items()
                                           if k != "setup_s"})
        self.assertTrue(run.contract_errors(missing, self.expected))
        nan = dict(self.good, metrics=dict(self.good["metrics"],
                                           setup_s={"value": float("nan"), "unit": "s"}))
        self.assertTrue(run.contract_errors(nan, self.expected))
        unit = dict(self.good, metrics=dict(self.good["metrics"],
                                            setup_s={"value": 1, "unit": "ms"}))
        self.assertTrue(run.contract_errors(unit, self.expected))
        self.assertTrue(run.contract_errors(dict(self.good, extra=1), self.expected))
        self.assertTrue(run.contract_errors(dict(self.good, attempted=0), self.expected))


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary_passes(self):
        binary = run.build("lakebench_selftest")
        proc = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:] + proc.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()
