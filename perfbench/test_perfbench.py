"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The sealed-run test builds `figures` and the tracer and runs every workload
once, so it takes a few minutes.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# What building, running and testing the benchmark may leave behind; all of
# it is ignored by git.
SKIP_DIRS = {".git", ".bench_build", ".bench_tmp", "target", "__pycache__"}

# APIs and perf-report fields that the repository's planned refactors delete,
# merge or rename. The benchmark must measure those refactors unchanged, so
# its sources may name none of them.
FORBIDDEN = [
    "FusedDriver",
    "FusedGroupKey",
    "group_indices",
    "run_fused_forked",
    "run_group_forked",
    "SnapshotArena",
    "SimSnapshot",
    "save_state",
    "load_state",
    "ScenarioMatrix",
    "DesignComparison",
    "groups",
    "passes_eliminated",
    "blocks_per_sec",
    "loop_nanos",
    "snapshot_nanos",
]


def tree_digest():
    digests = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, ROOT)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def benchmark_sources():
    this = os.path.abspath(__file__)
    for dirpath, dirnames, filenames in os.walk(HERE):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.endswith((".py", ".rs", ".toml")) and path != this:
                yield path


class SourceSurface(unittest.TestCase):
    def test_sources_name_no_refactored_api_or_field(self):
        for path in benchmark_sources():
            with open(path) as f:
                text = f.read()
            for name in FORBIDDEN:
                self.assertIsNone(
                    re.search(rf"\b{name}\b", text), f"{os.path.relpath(path, ROOT)} names {name}"
                )


class Digest(unittest.TestCase):
    def setUp(self):
        with open(run.DIGEST_PATH) as f:
            self.recorded = json.load(f)

    def test_digest_covers_every_job(self):
        self.assertEqual(set(self.recorded), set(run.WORKLOADS))
        for workload, parts in self.recorded.items():
            jobs = sum(run.PART_JOBS[workload] for k in parts if k != "_rest")
            self.assertEqual(jobs, run.WORKLOADS[workload]["jobs"], workload)

    def test_mismatches_fail_their_jobs(self):
        expected = self.recorded["eval-best-of-six"]
        seen = dict(expected, em3d="changed")
        self.assertEqual(run.failed_jobs("eval-best-of-six", expected, expected), 0)
        self.assertEqual(run.failed_jobs("eval-best-of-six", expected, seen), 10)
        self.assertEqual(run.failed_jobs("eval-best-of-six", expected, None), 80)
        seen = dict(expected, _rest="changed")
        self.assertEqual(run.failed_jobs("eval-best-of-six", expected, seen), 80)


class SealedRuns(unittest.TestCase):
    def test_full_runs_leave_the_repository_unchanged(self):
        before = tree_digest()
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", "7", "--seconds", "1", "--trace", trace],
                    cwd=ROOT,
                    capture_output=True,
                    text=True,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], f"{workload} --trace {trace}")
                self.assertEqual(result["failed"], 0)
        after = tree_digest()
        self.assertEqual(before.get("BENCH_perf.json"), after.get("BENCH_perf.json"))
        self.assertEqual(before.get("bench/baseline.json"), after.get("bench/baseline.json"))
        self.assertEqual(before, after)
        self.assertFalse(os.path.exists(run.TMP_ROOT))


if __name__ == "__main__":
    unittest.main()
