#!/usr/bin/env python3
"""Same-host A/B perf gate: HEAD against BASE_REV, both through perfbench.

    python3 bench/ab.py BASE_REV

Checks BASE_REV out into a git worktree under target/, then, for each gated
workload (perf-suite, the kernel-bound one; eval-best-of-six, where the
private-like designs P and ASR take most references; and sweep-journaled,
the orchestration-bound one), runs `perfbench/run.py --workload W --seconds 1
--trace 0` from each tree in alternating pairs, each side building into its
own CARGO_TARGET_DIR under target/. Exits 1 when a HEAD run reports
`correct: false` or failed jobs, or when, on any workload, HEAD's median of a
gated metric (refs_per_s, peak_rss_mb) is worse than the base's by more than
that metric's bound in BENCHMARK.json, in the direction BENCHMARK.json says
is better.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3
WORKLOADS = ("perf-suite", "eval-best-of-six", "sweep-journaled")
PERFBENCH_ARGS = ["--seconds", "1", "--trace", "0"]
GATED = ("refs_per_s", "peak_rss_mb")


def value(run, name):
    return run["metrics"][name]["value"]


def gates(benchmark):
    """The gated end-to-end metrics of a parsed BENCHMARK.json, in GATED order."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    return [metrics[name] for name in GATED]


def verdict(base, head, gated):
    """The reasons HEAD fails against the base (an empty list passes)."""
    problems = [
        f"HEAD run {i} reported correct={r['correct']}, failed={r['failed']}"
        for i, r in enumerate(head)
        if not r["correct"] or r["failed"] > 0
    ]
    for m in gated:
        name, bound, unit = m["name"], m["bound"], m["unit"]
        b, h = (statistics.median(value(r, name) for r in runs) for runs in (base, head))
        if m["better"] == "higher" and h < b * (1 - bound):
            problems.append(f"HEAD median {h:.4g} {unit} trails the base's {b:.4g} by more than {bound:.0%}")
        if m["better"] == "lower" and h > b * (1 + bound):
            problems.append(f"HEAD median {h:.4g} {unit} exceeds the base's {b:.4g} by more than {bound:.0%}")
    return problems


def verdicts(runs, gated):
    """The reasons HEAD fails on any workload of `runs`, a dict of
    workload -> (base runs, head runs); each reason names its workload."""
    return [f"{w}: {p}" for w, (base, head) in runs.items() for p in verdict(base, head, gated)]


def perfbench(tree, side, workload):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(ROOT, "target", f"ab-{side}"))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload] + PERFBENCH_ARGS
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"ab: perfbench on {side} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(base_rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        gated = gates(json.load(f))
    tree = os.path.join(ROOT, "target", "ab-tree")
    subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, capture_output=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=True)
    subprocess.run(["git", "worktree", "add", "--detach", tree, base_rev], cwd=ROOT, check=True)
    runs = {}
    try:
        for workload in WORKLOADS:
            base, head = runs[workload] = ([], [])
            for i in range(PAIRS):
                order = [("base", tree, base), ("head", ROOT, head)]
                for side, where, side_runs in order if i % 2 == 0 else order[::-1]:
                    side_runs.append(perfbench(where, side, workload))
                sides = ", ".join(f"{m['name']} base {value(base[-1], m['name']):.4g} head {value(head[-1], m['name']):.4g}"
                                  for m in gated)
                print(f"{workload} pair {i}: {sides} (head correct={head[-1]['correct']}, failed={head[-1]['failed']})",
                      flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=True)
    problems = verdicts(runs, gated)
    bounds = ", ".join(f"{m['name']} {m['bound']:.0%}" for m in gated)
    print("\n".join(f"ab gate: FAIL: {p}" for p in problems) or f"ab gate: PASS (bounds: {bounds})")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
