"""Unit test of the A/B gate's verdict.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab  # noqa: E402


def run(rate, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {"refs_per_s": {"value": rate}}}


class Verdict(unittest.TestCase):
    BASE = [run(4.0e6), run(4.4e6), run(4.2e6)]

    def test_within_the_bound_passes(self):
        self.assertEqual(ab.verdict(self.BASE, [run(3.3e6), run(3.2e6), run(3.4e6)], 0.25), [])
        self.assertEqual(ab.verdict(self.BASE, [run(5e6)] * 3, 0.25), [])

    def test_a_median_beyond_the_bound_fails(self):
        problems = ab.verdict(self.BASE, [run(3.1e6), run(3.0e6), run(5e6)], 0.25)
        self.assertEqual(len(problems), 1)
        self.assertIn("trails", problems[0])

    def test_an_incorrect_or_failing_head_run_fails_at_any_speed(self):
        head = [run(9e6), run(9e6, correct=False), run(9e6, failed=2)]
        problems = ab.verdict(self.BASE, head, 0.25)
        self.assertEqual(len(problems), 2)
        self.assertIn("run 1 reported correct=False", problems[0])
        self.assertIn("failed=2", problems[1])


if __name__ == "__main__":
    unittest.main()
