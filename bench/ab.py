#!/usr/bin/env python3
"""Same-host A/B perf gate: HEAD against BASE_REV, both through perfbench.

    python3 bench/ab.py BASE_REV

Checks BASE_REV out into a git worktree under target/, then runs
`perfbench/run.py --workload perf-suite --seconds 1 --trace 0` from each tree
in alternating pairs, each side building into its own CARGO_TARGET_DIR under
target/. Exits 1 when a HEAD run reports `correct: false` or failed jobs, or
when HEAD's median refs_per_s trails the base's by more than the refs_per_s
bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3
PERFBENCH_ARGS = ["--workload", "perf-suite", "--seconds", "1", "--trace", "0"]


def refs_per_s(run):
    return run["metrics"]["refs_per_s"]["value"]


def verdict(base, head, bound):
    """The reasons HEAD fails against the base (an empty list passes)."""
    problems = [
        f"HEAD run {i} reported correct={r['correct']}, failed={r['failed']}"
        for i, r in enumerate(head)
        if not r["correct"] or r["failed"] > 0
    ]
    b, h = (statistics.median(map(refs_per_s, runs)) for runs in (base, head))
    if h < b * (1 - bound):
        problems.append(f"HEAD median {h:.4g} refs/s trails the base's {b:.4g} by more than {bound:.0%}")
    return problems


def perfbench(tree, side):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(ROOT, "target", f"ab-{side}"))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py")] + PERFBENCH_ARGS
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"ab: perfbench on {side} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(base_rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "refs_per_s")
    tree = os.path.join(ROOT, "target", "ab-tree")
    subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, capture_output=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=True)
    subprocess.run(["git", "worktree", "add", "--detach", tree, base_rev], cwd=ROOT, check=True)
    try:
        base, head = [], []
        for i in range(PAIRS):
            order = [("base", tree, base), ("head", ROOT, head)]
            for side, where, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(perfbench(where, side))
            print(f"pair {i}: base {refs_per_s(base[-1]):.4g} refs/s, head {refs_per_s(head[-1]):.4g} refs/s "
                  f"(head correct={head[-1]['correct']}, failed={head[-1]['failed']})", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=True)
    problems = verdict(base, head, bound)
    print("\n".join(f"ab gate: FAIL: {p}" for p in problems) or f"ab gate: PASS (bound {bound:.0%})")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
