#!/usr/bin/env python3
"""End-to-end reproduction benchmark for the `figures` binary.

    python3 perfbench/run.py --workload perf-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-digest

Builds `figures` (and, for a traced run, `perfbench/tracer`) from source,
then runs one workload in a closed loop with one client: one `figures`
process at a time, each in a fresh temporary directory that is removed
afterwards. Every invocation's results are checked against the recorded
digest in `perfbench/digest.json`; a job whose result differs fails.

With `--trace 0` the last stdout line reports the end-to-end metrics. With
`--trace 1` it reports the per-layer metrics: the tracer replays the same
jobs in-process with spans around every layer call, and its per-job CPIs
must equal the CLI's. See `perfbench/README.md` for every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST_PATH = os.path.join(HERE, "digest.json")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

# The `figures` presets hard-code this seed; only the traced run varies it.
FIGURES_SEED = 42
SETUP_REPS = 3
MIN_REPS = 3
INVOCATION_TIMEOUT_S = 150
LETTERS = "PASRI"

WORKLOADS = {
    # 3 workloads x 16/32/64 cores x P/A/S/R/I at 600k + 300k refs.
    "perf-suite": {
        "args": lambda tmp, preset: ["perf", f"--out={tmp}/perf.json"] + preset,
        "preset": [],
        "jobs": 45,
        "refs": 45 * 900_000,
    },
    # 8 workloads x (P + 6 ASR versions + S + R + I) at 600k + 300k refs.
    "eval-best-of-six": {
        "args": lambda tmp, preset: ["fig7", "fig12"] + preset,
        "preset": [],
        "jobs": 80,
        "refs": 80 * 900_000,
    },
    # 8 workloads x 16/32/64 cores x 3 slice sizes x (S + R at 3 cluster
    # sizes) at 30k + 20k refs, journaled, rows saved to a warehouse.
    "sweep-journaled": {
        "args": lambda tmp, preset: [
            "sweep",
            f"--journal={tmp}/journal.bin",
            f"--store={tmp}/warehouse.bin",
        ]
        + preset,
        "preset": ["--quick"],
        "jobs": 288,
        "refs": 288 * 50_000,
    },
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def workers():
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------- building


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cargo build {' '.join(args)} failed")


def build_figures():
    cargo_build(["-p", "rnuca-bench", "--bin", "figures"])
    return os.path.join(target_dir(), "release", "figures")


def build_tracer():
    cargo_build(["--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")])
    return os.path.join(target_dir(), "release", "perfbench-tracer")


# ------------------------------------------------------------- invocations


def run_child(cmd, cwd):
    """Runs `cmd` to completion; returns (exit code, wall s, cpu s, peak RSS KiB)."""
    start = time.perf_counter()
    with open(os.path.join(cwd, "stdout"), "wb") as out, open(
        os.path.join(cwd, "stderr"), "wb"
    ) as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def invoke(figures, workload, preset, inspect):
    """One cold, sealed `figures` invocation in a fresh temporary directory.

    `inspect(tmp, stdout)` reads the outputs before the directory goes; its
    value is the result's `seen`, or None when the run failed.
    """
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        spec = WORKLOADS[workload]
        cmd = [figures] + spec["args"](tmp, preset) + [f"--workers={workers()}"]
        code, wall, cpu, rss = run_child(cmd, tmp)
        if code != 0:
            with open(os.path.join(tmp, "stderr"), errors="replace") as f:
                log(f"perfbench: {' '.join(cmd)} exited {code}: {f.read()[-2000:]}")
        with open(os.path.join(tmp, "stdout"), errors="replace") as f:
            stdout = f.read()
        seen = inspect(tmp, stdout) if code == 0 else None
        return {"code": code, "wall": wall, "cpu": cpu, "rss_kib": rss, "seen": seen}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ------------------------------------------------------------------ digest


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def read_results(workload, tmp, stdout):
    """The CLI's per-job results: the perf report's scenarios, the Figure
    7/12 rows and other lines, or the sweep document."""
    if workload == "perf-suite":
        with open(os.path.join(tmp, "perf.json")) as f:
            return json.load(f)["scenarios"]
    if workload == "eval-best-of-six":
        return eval_rows(stdout)
    if not os.path.getsize(os.path.join(tmp, "warehouse.bin")):
        raise ValueError("the sweep saved an empty warehouse")
    return json.loads(stdout)


def inspect_results(workload):
    def inspect(tmp, stdout):
        try:
            return read_results(workload, tmp, stdout)
        except (OSError, ValueError, KeyError) as e:
            log(f"perfbench: cannot read {workload} output: {e}")
            return None

    return inspect


def eval_rows(stdout):
    """Splits the Figure 7 / Figure 12 text into table rows per workload.

    Returns ({workload: [row tokens...]}, [every other line]). A Figure 7
    row ends in a design letter and seven numbers, a Figure 12 row in a
    bucket and five percentages; the tokens before them name the workload.
    """
    rows, rest = {}, []
    table, in_rows = None, False
    for line in stdout.splitlines():
        if line.startswith("==== Figure 7"):
            table, in_rows = 8, False
        elif line.startswith("==== Figure 12"):
            table, in_rows = 6, False
        elif table and line.startswith("---"):
            in_rows = True
            rest.append(line)
            continue
        elif not line.strip():
            in_rows = False
        if table and in_rows:
            tokens = line.split()
            rows.setdefault(" ".join(tokens[:-table]), []).append(tokens)
        else:
            rest.append(line)
    return rows, rest


def digest_parts(workload, results):
    """The digest of each job's (or, for eval, each workload's) results.

    `_rest` digests everything else; a change there fails every job.
    """
    if workload == "perf-suite":
        fields = ("workload", "letter", "cores", "total_cpi", "off_chip_rate")
        return {
            f"{s['workload']}/{s['letter']}/{s['cores']}": digest([s[f] for f in fields])
            for s in results
        }
    if workload == "eval-best-of-six":
        rows, rest = results
        parts = {name: digest(lines) for name, lines in rows.items()}
    else:
        parts = {str(i): digest(r) for i, r in enumerate(results["results"])}
        rest = results["config"]
    parts["_rest"] = digest(rest)
    return parts


# Jobs behind one digest part: a workload's ten designs share its table rows.
PART_JOBS = {"perf-suite": 1, "eval-best-of-six": 10, "sweep-journaled": 1}


def failed_jobs(workload, expected, seen):
    """Jobs whose digest parts `seen` differ from the recorded ones."""
    total = WORKLOADS[workload]["jobs"]
    if seen is None or seen.get("_rest") != expected.get("_rest"):
        return total
    bad = sum(1 for k, v in expected.items() if seen.get(k) != v)
    bad += sum(1 for k in seen if k not in expected)
    return min(total, bad * PART_JOBS[workload])


def record_digest(figures):
    recorded = {}
    for workload, spec in WORKLOADS.items():
        r = invoke(figures, workload, spec["preset"], inspect_results(workload))
        if r["seen"] is None:
            raise SystemExit(f"perfbench: {workload} failed; digest not recorded")
        recorded[workload] = digest_parts(workload, r["seen"])
        log(f"{workload}: {len(recorded[workload])} digest parts")
    with open(DIGEST_PATH, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")


# -------------------------------------------------------- end-to-end runs


def run_e2e(figures, workload, seconds, expected, with_setup):
    """Setup (smoke) runs, then timed invocations for `seconds`: another
    starts while the median invocation would still end in time."""
    spec = WORKLOADS[workload]
    setup = []
    bad_setup = 0
    for _ in range(SETUP_REPS if with_setup else 0):
        r = invoke(figures, workload, ["--smoke"], lambda tmp, out: {})
        setup.append(r["wall"])
        bad_setup += r["code"] != 0
    reps, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start + statistics.median(r["wall"] for r in reps) <= seconds
    ):
        r = invoke(figures, workload, spec["preset"], inspect_results(workload))
        attempted += spec["jobs"]
        seen = None if r["seen"] is None else digest_parts(workload, r["seen"])
        failed += failed_jobs(workload, expected, seen)
        reps.append(r)
        log(
            f"{workload}: {r['wall']:.2f}s wall, {r['cpu']:.2f}s cpu, "
            f"{r['rss_kib'] / 1024:.0f} MiB, exit {r['code']}"
        )
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "setup_failed": bad_setup,
        "wall_s": statistics.median(r["wall"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "rss_mib": statistics.median(r["rss_kib"] for r in reps) / 1024,
        "attempted": attempted,
        "failed": failed,
        "last_results": reps[-1]["seen"],
    }


def e2e_metrics(workload, e2e):
    return {
        "refs_per_s": {"value": WORKLOADS[workload]["refs"] / e2e["wall_s"], "unit": "refs/s"},
        "setup_s": {"value": e2e["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": e2e["rss_mib"], "unit": "MiB"},
        "cpu_s": {"value": e2e["cpu_s"], "unit": "s"},
    }


# ------------------------------------------------------------- traced run


def run_tracer(tracer, workload, seed):
    """One traced in-process replay; returns its trace document."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="trace-", dir=TMP_ROOT)
    try:
        cmd = [tracer, "--workload", workload, "--seed", str(seed), "--out", tmp]
        code = run_child(cmd, tmp)[0]
        if code != 0:
            raise SystemExit(f"perfbench: {' '.join(cmd)} exited {code}")
        with open(os.path.join(tmp, "trace.json")) as f:
            return json.load(f)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def fig7_row(name, letter, total, base, cpi):
    cells = [cpi[k] / base for k in ("busy", "l1_to_l1", "l2", "off_chip", "other")]
    cells += [cpi["reclassification"] / base, total / base]
    return name.split() + [letter] + [f"{v:.3f}" for v in cells]


def expected_eval_rows(jobs):
    """Figure 7 and 12 rows rendered from in-process per-job results."""
    rows = {}
    for i in range(0, len(jobs), 10):
        group = jobs[i : i + 10]
        name = group[0]["workload"]
        p, asr, s, r, ideal = group[0], group[1:7], group[7], group[8], group[9]
        a = min(asr, key=lambda j: j["total_cpi"])
        base = p["total_cpi"]
        lines = [fig7_row(name, j["letter"], j["total_cpi"], base, j["cpi"]) for j in (p, a, s, r)]
        bucket = "private-averse" if p["total_cpi"] >= s["total_cpi"] else "shared-averse"
        speedups = [f"{(base / j['total_cpi'] - 1.0) * 100.0:+.1f}%" for j in (p, a, s, r, ideal)]
        lines.append(name.split() + [bucket] + speedups)
        rows[name] = lines
    return rows


SWEEP_FIELDS = ("workload", "design", "letter", "cores", "slice_kb", "cluster",
                "total_cpi", "cpi", "off_chip_rate", "l1_to_l1_rate")


def cli_mismatches(workload, jobs, results):
    """In-process jobs whose result differs from the CLI's `results`."""
    if results is None:
        return len(jobs)
    if workload == "eval-best-of-six":
        want, cli = expected_eval_rows(jobs), results[0]
        bad = [n for n in set(want) | set(cli) if want.get(n) != cli.get(n)]
        return min(len(jobs), 10 * len(bad))
    fields = ("workload", "letter", "cores", "total_cpi", "off_chip_rate")
    if workload == "sweep-journaled":
        fields, results = SWEEP_FIELDS, results["results"]
    if len(results) != len(jobs):
        return len(jobs)
    return sum(1 for a, b in zip(jobs, results) if any(a[f] != b[f] for f in fields))


def self_times(spans):
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        own = s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
        out[layer] = out.get(layer, 0) + own
    return {k: v / 1e9 for k, v in out.items()}


def span_rate(spans, name, per="ops", tag=None, scale=1.0):
    """Wall ns of every `name` span (tag-filtered) per `per` count, scaled."""
    chosen = [s for s in spans if s["name"] == name and (tag is None or s["tag"] == tag)]
    ns = sum(s["end_ns"] - s["start_ns"] for s in chosen)
    count = sum(s["counts"].get(per, 0) for s in chosen) if per else len(chosen)
    return ns / count / scale


def count_ratio(spans, name, num, den, scale=1.0):
    chosen = [s for s in spans if s["name"] == name]
    return scale * sum(s["counts"][num] for s in chosen) / sum(s["counts"][den] for s in chosen)


def weighted(jobs, field, letter):
    chosen = [j for j in jobs if j["letter"] == letter]
    refs = sum(j["measured_refs"] for j in chosen)
    return sum(j[field] * j["measured_refs"] for j in chosen) / refs


def layer_metrics(trace, heldout, e2e):
    spans, jobs = trace["spans"], trace["jobs"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("workloads.generate_ns_per_ref", span_rate(spans, "workloads.generate", "refs"), "ns")
    put("workloads.replay_ns_per_ref", span_rate(spans, "workloads.replay", "refs"), "ns")
    arena = sum(s["counts"]["bytes"] for s in spans if s["name"] == "workloads.populate")
    put("workloads.arena_mb", arena / 2**20, "MiB")
    put("sim.construct_ms", span_rate(spans, "sim.construct", None, scale=1e6), "ms")
    for letter in LETTERS:
        put(f"sim.warm_ns_per_ref.{letter}", span_rate(spans, "sim.warm", "refs", letter), "ns")
        put(f"sim.measure_ns_per_ref.{letter}", span_rate(spans, "sim.measure", "refs", letter), "ns")

    # The CLI's CPU minus the CPU of the same jobs' simulation work in-process.
    extra = {s["id"] for s in spans if s["name"] == "sim.extra_job"}
    work = ("workloads.populate", "sim.construct", "sim.warm", "sim.measure")
    work_cpu = sum(s["cpu_ns"] for s in spans if s["name"] in work and s["parent"] not in extra)
    put("sim.orchestration_cpu_s", e2e["cpu_s"] - work_cpu / 1e9, "s")

    for letter in "PASR":
        chosen = [j for j in jobs if j["letter"] == letter]
        hits = sum(j["l2_hits"] for j in chosen)
        put(f"sim.l2_hit_rate.{letter}", hits / sum(j["l2_probes"] for j in chosen), "fraction")
        put(f"sim.l1_to_l1_rate.{letter}", weighted(jobs, "l1_to_l1_rate", letter), "fraction")
    for letter in LETTERS:
        put(f"sim.off_chip_rate.{letter}", weighted(jobs, "off_chip_rate", letter), "fraction")
    rnuca = [j for j in jobs if j["letter"] == "R"]
    tlb = sum(j["tlb_misses"] for j in rnuca) / sum(j["tlb_lookups"] for j in rnuca)
    put("sim.tlb_miss_rate.R", tlb, "fraction")
    reclass = sum(j["reclassifications"] for j in rnuca) / sum(j["measured_refs"] for j in rnuca)
    put("sim.reclassifications_per_mref.R", reclass * 1e6, "count")

    put("cache.probe_ns", span_rate(spans, "cache.probe"), "ns")
    put("cache.hit_rate", count_ratio(spans, "cache.probe", "hits", "probes"), "fraction")
    put("cache.victim_ns", span_rate(spans, "cache.victim"), "ns")
    put("coherence.dir_op_ns", span_rate(spans, "coherence.dir"), "ns")
    put("coherence.invalidations_per_write",
        count_ratio(spans, "coherence.dir", "invalidations", "writes"), "count")
    put("os.classify_ns", span_rate(spans, "os.classify"), "ns")
    put("os.tlb_miss_rate", count_ratio(spans, "os.classify", "tlb_misses", "tlb_lookups"),
        "fraction")
    put("os.reclassifications_per_mref",
        count_ratio(spans, "os.classify", "reclassifications", "ops", 1e6), "count")
    put("core.place_ns", span_rate(spans, "core.place"), "ns")
    put("types.u64map_ns", span_rate(spans, "types.u64map"), "ns")
    put("journal.append_us", span_rate(spans, "journal.append", scale=1e3), "us")
    put("warehouse.append_us_per_row", span_rate(spans, "warehouse.append", scale=1e3), "us")
    put("warehouse.save_ms", span_rate(spans, "warehouse.save", scale=1e6), "ms")
    put("warehouse.open_ms", span_rate(spans, "warehouse.open", scale=1e6), "ms")
    put("warehouse.query_us", span_rate(spans, "warehouse.query", scale=1e3), "us")
    for layer, seconds in sorted(self_times(spans).items()):
        put(f"self_s.{layer}", seconds, "s")
    # The traced replay of the CLI's own work against the untraced CLI.
    replay = ("workloads.populate", "sim.job")
    traced_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] in replay)
    put("trace.overhead_ratio", traced_ns / 1e9 / e2e["wall_s"], "ratio")

    hs = heldout["spans"]
    put("heldout.workloads.generate_ns_per_ref", span_rate(hs, "workloads.generate", "refs"), "ns")
    put("heldout.sim.warm_ns_per_ref", span_rate(hs, "sim.warm", "refs"), "ns")
    put("heldout.sim.measure_ns_per_ref", span_rate(hs, "sim.measure", "refs"), "ns")
    put("heldout.cache.probe_ns", span_rate(hs, "cache.probe"), "ns")
    put("heldout.coherence.dir_op_ns", span_rate(hs, "coherence.dir"), "ns")
    put("heldout.os.classify_ns", span_rate(hs, "os.classify"), "ns")
    put("heldout.types.u64map_ns", span_rate(hs, "types.u64map"), "ns")
    return m


# -------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=FIGURES_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="run every workload once and rewrite perfbench/digest.json")
    args = ap.parse_args()
    if not args.record_digest and not args.workload:
        ap.error("--workload is required")

    figures = build_figures()
    tracer = build_tracer() if args.trace else None
    try:
        if args.record_digest:
            record_digest(figures)
        else:
            run(args, figures, tracer)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)


def run(args, figures, tracer):
    with open(DIGEST_PATH) as f:
        expected = json.load(f)[args.workload]
    e2e = run_e2e(figures, args.workload, args.seconds, expected, with_setup=not args.trace)
    attempted, failed = e2e["attempted"], e2e["failed"]
    correct = failed == 0 and e2e["setup_failed"] == 0
    if not args.trace:
        metrics = e2e_metrics(args.workload, e2e)
    else:
        # The CLI pins seed 42, so only that traced replay is checked against
        # it; `--seed` picks the held-out replay (never 42).
        trace = run_tracer(tracer, args.workload, FIGURES_SEED)
        heldout_seed = args.seed if args.seed != FIGURES_SEED else FIGURES_SEED + 1
        heldout = run_tracer(tracer, args.workload, heldout_seed)
        jobs = [j for j in trace["jobs"] if not j["extra"]]
        mismatched = cli_mismatches(args.workload, jobs, e2e["last_results"])
        log(f"{args.workload}: {mismatched} of {len(jobs)} in-process jobs differ from the CLI")
        attempted += len(jobs)
        failed += mismatched
        correct = correct and mismatched == 0
        metrics = layer_metrics(trace, heldout, e2e)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
