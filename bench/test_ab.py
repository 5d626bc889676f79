"""Unit test of the A/B gate's verdict.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab  # noqa: E402

with open(os.path.join(ab.ROOT, "BENCHMARK.json")) as f:
    GATED = ab.gates(json.load(f))
RSS_BOUND = next(m["bound"] for m in GATED if m["name"] == "peak_rss_mb")


def run(rate, rss=100.0, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"refs_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}}}


class Verdict(unittest.TestCase):
    BASE = [run(4.0e6), run(4.4e6), run(4.2e6)]

    def test_the_gates_come_from_benchmark_json(self):
        self.assertEqual([m["name"] for m in GATED], ["refs_per_s", "peak_rss_mb"])
        self.assertEqual([m["better"] for m in GATED], ["higher", "lower"])

    def test_within_the_bound_passes(self):
        self.assertEqual(ab.verdict(self.BASE, [run(3.3e6), run(3.2e6), run(3.4e6)], GATED), [])
        self.assertEqual(ab.verdict(self.BASE, [run(5e6)] * 3, GATED), [])

    def test_a_median_beyond_the_bound_fails(self):
        problems = ab.verdict(self.BASE, [run(3.1e6), run(3.0e6), run(5e6)], GATED)
        self.assertEqual(len(problems), 1)
        self.assertIn("trails", problems[0])

    def test_an_incorrect_or_failing_head_run_fails_at_any_speed(self):
        head = [run(9e6), run(9e6, correct=False), run(9e6, failed=2)]
        problems = ab.verdict(self.BASE, head, GATED)
        self.assertEqual(len(problems), 2)
        self.assertIn("run 1 reported correct=False", problems[0])
        self.assertIn("failed=2", problems[1])

    def test_peak_memory_beyond_its_bound_fails(self):
        within = 100.0 * (1 + RSS_BOUND) - 0.5
        beyond = 100.0 * (1 + RSS_BOUND) + 0.5
        self.assertEqual(ab.verdict(self.BASE, [run(4.2e6, rss=within)] * 3, GATED), [])
        self.assertEqual(ab.verdict(self.BASE, [run(4.2e6, rss=50.0)] * 3, GATED), [], "less memory passes")
        problems = ab.verdict(self.BASE, [run(4.2e6, rss=beyond)] * 2 + [run(4.2e6, rss=50.0)], GATED)
        self.assertEqual(len(problems), 1)
        self.assertIn("exceeds", problems[0])
        self.assertIn("MiB", problems[0])


class EveryWorkload(unittest.TestCase):
    BASE = [run(4.0e6), run(4.4e6), run(4.2e6)]

    def test_the_kernel_evaluation_and_orchestration_workloads_are_gated(self):
        self.assertEqual(ab.WORKLOADS, ("perf-suite", "eval-best-of-six", "sweep-journaled"))

    def test_each_workload_is_gated_with_the_same_bounds(self):
        ok, slow = [run(4.2e6)] * 3, [run(3.0e6)] * 3
        runs = {w: (self.BASE, ok) for w in ab.WORKLOADS}
        self.assertEqual(ab.verdicts(runs, GATED), [])
        for w in ab.WORKLOADS:
            with self.subTest(workload=w):
                problems = ab.verdicts(dict(runs, **{w: (self.BASE, slow)}), GATED)
                self.assertEqual(len(problems), 1)
                self.assertTrue(problems[0].startswith(f"{w}: "), problems[0])
                self.assertIn("trails", problems[0])

    def test_an_incorrect_evaluation_run_fails_the_gate(self):
        ok = [run(4.2e6)] * 3
        runs = {w: (self.BASE, ok) for w in ab.WORKLOADS}
        runs["eval-best-of-six"] = (self.BASE, [run(4.2e6, correct=False)] + ok[1:])
        problems = ab.verdicts(runs, GATED)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("eval-best-of-six: HEAD run 0"), problems[0])


if __name__ == "__main__":
    unittest.main()
