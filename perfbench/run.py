#!/usr/bin/env python3
"""Benchmark entry point: builds the runner, generates one workload's inputs
from a seed, runs repetitions for a time budget and prints the metrics.

    python3 perfbench/run.py --workload city_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, combined over the untraced repetitions;
with --trace 1 they are the per-layer ones, from traced repetitions
interleaved with untraced ones. Every repetition is a fresh single-threaded runner
process on the same generated inputs. perfbench/README.md defines the
workloads and metrics.

Exit status: 0 when every check passed, 1 when a correctness check failed
(the JSON line is still printed, with "correct": false), 2 on a build,
usage or runner error (no JSON line).
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("city_dense", "city_global", "mesh_requests")

# Metric names and units; BENCHMARK.json lists the same names and units
# (selftest.py checks that they agree).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("sim_speed", "sim_s/s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_round", "count"),
    ("setup_allocs", "count"),
]

PER_LAYER = [
    ("topo.city_grid_ms", "ms"),
    ("net.routing_build_ms", "ms"),
    ("net.routing_build_allocs", "count"),
    ("net.routing_build_mb", "MB"),
    ("zone.create_ms", "ms"),
    ("zone.create_allocs", "count"),
    ("zone.start_ms", "ms"),
    ("zone.finish_ms", "ms"),
    ("zone.advance_ms", "ms"),
    ("zone.tick_ms", "ms"),
    ("zone.reconcile_ms", "ms"),
    ("zone.border_rebuilds", "count"),
    ("zone.skipped_share", "ratio"),
    ("sched.place_ms", "ms"),
    ("sched.pack_ms", "ms"),
    ("sched.decisions", "count"),
    ("sched.place_us_p50", "us"),
    ("core.decision_ms", "ms"),
    ("core.deploy_ms", "ms"),
    ("core.admitted", "count"),
    ("core.rejected", "count"),
    ("core.deferred", "count"),
    ("core.queue_peak", "count"),
    ("net.alloc_pass_ms", "ms"),
    ("net.solve_ms", "ms"),
    ("net.reallocations", "count"),
    ("net.flows_touched_per_pass", "count"),
    ("net.full_pass_share", "ratio"),
    ("controller.select_ms", "ms"),
    ("controller.migrations", "count"),
    ("monitor.probes_full", "count"),
    ("monitor.probes_headroom", "count"),
    ("monitor.probe_bytes", "bytes"),
    ("monitor.headroom_violations", "count"),
    ("sim.other_ms", "ms"),
    ("sim.pending_events", "count"),
    ("workload.requests_completed", "count"),
    ("workload.host_us_per_request", "us"),
    ("workload.req_latency_ms_p50", "sim_ms"),
    ("workload.req_latency_ms_p99", "sim_ms"),
    ("obs.journal_merge_ms", "ms"),
    ("obs.journal_bytes", "bytes"),
    ("obs.journal_flush_ms", "ms"),
    ("trace.round_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

# Exclusive per-round layer times; with sim.other_ms they sum to the round.
EXCLUSIVE = [
    "zone.tick_ms",
    "sched.place_ms",
    "sched.pack_ms",
    "core.decision_ms",
    "controller.select_ms",
    "net.alloc_pass_ms",
    "net.solve_ms",
    "sim.other_ms",
]

RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def build_runner(out):
    """Configures and builds the runner; returns its path or None."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: no program sources under {ROOT / 'src'}")
        return None
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    # Configuring every time is cheap once cached, and makes CMake refuse a
    # build tree that was generated from another source directory.
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_runner"],
    ]
    with open(out / "build.log", "a") as build_log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log(f"perfbench: build step failed ({' '.join(cmd)}); see {out / 'build.log'}")
                return None
    runner = out / "perfbench_runner"
    return runner if runner.exists() else None


def city_ini(seed, blocks_x, blocks_y, zones, arrival_per_min, duration_s):
    # The operator's city_grid scenario (examples/scenarios/city_grid.ini)
    # at bench scale; the zone knobs it sets besides count are the program
    # defaults (bfs zoning, 10 s rounds, one 2 Mbps transit flow per border
    # link, gating on, max_skip 8). The invariant checker is off: it would
    # cost more than every measured layer together (README, "Workloads").
    return f"""[topology]
kind = city_grid
blocks_x = {blocks_x}
blocks_y = {blocks_y}
nodes_per_block = 4
gateway_every = 8
intra_mbps = 100
street_mbps = 50
backbone_mbps = 200
cpu = 4000
memory_mb = 4096

[zones]
count = {zones}

[monitor]
enabled = false

[invariants]
enabled = false

[serve]
mode = adaptive
seed = {seed}
arrival_per_min = {arrival_per_min}
mean_lifetime_s = 120
resource_scale = 0.1
policy = fifo

[run]
duration_s = {duration_s}
"""


def mesh_ini(trace_seed, request_seed, duration_s):
    # The rig's rate (50 RPS), migration threshold and drain are fixed in
    # runner.cpp; the seeds pick the link traces and the arrivals.
    return f"""[mesh]
duration_s = {duration_s}
trace_seed = {trace_seed}
request_seed = {request_seed}
"""


def make_input(workload, seed, smoke):
    """Returns (runner kind, ini text); the inputs depend only on the seed."""
    rng = random.Random(f"{workload}:{seed}")
    s1 = rng.randrange(1, 2**31)
    s2 = rng.randrange(1, 2**31)
    if workload == "city_dense":
        if smoke:
            return "city", city_ini(s1, 8, 8, 4, 32, 120)
        return "city", city_ini(s1, 32, 32, 16, 512, 1200)
    if workload == "city_global":
        if smoke:
            return "city", city_ini(s1, 8, 8, 1, 8, 120)
        return "city", city_ini(s1, 32, 16, 1, 32, 1200)
    if smoke:
        return "mesh", mesh_ini(s1, s2, 300)
    return "mesh", mesh_ini(s1, s2, 3600)


def run_runner(runner, kind, input_path, trace_path, break_identity):
    cmd = [str(runner), "--kind", kind, "--input", str(input_path)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    if break_identity:
        cmd.append("--break-identity")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None, False
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        log(f"perfbench: runner failed (exit {proc.returncode})\n{proc.stderr}")
        return None, False
    return json.loads(lines[-1]), proc.returncode == 0


def check_reps(reps):
    """Returns the failed checks. Every repetition must hold its
    conservation identity and invariants, and repetitions of the same input
    must give the same journal, the same exact allocation counts and the
    same simulated outcome."""
    problems = []
    for key in ("journal_digest", "round_allocs", "setup_allocs", "attempted", "failed",
                "rounds", "sim_seconds", "req_latency_ms_p50", "req_latency_ms_p99"):
        values = {json.dumps(r.get(key)) for r in reps}
        if len(values) > 1:
            problems.append(f"{key} differs across repetitions: {sorted(values)}")
    for r in reps:
        if not r["identity_ok"]:
            problems.append("conservation identity broken")
        if r["violations"] != 0:
            problems.append(f"{r['violations']} invariant violations")
    return problems


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def end_to_end(reps):
    """Combines the untraced repetitions of one run (all on the same input,
    so round i does the same work in each) into the end-to-end metrics.
    Interference from other tenants of the machine only ever slows a
    phase, so each round's time is its fastest over the repetitions, and
    wall_s adds up the fastest set-up, rounds and teardown. setup_s and
    peak_rss_mb are medians over the repetitions; the counts are exact and
    equal in every repetition (check_reps)."""
    best = [min(r["round_ms"][i] for r in reps) for i in range(len(reps[0]["round_ms"]))]
    rounds_s = sum(best) / 1000.0
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": min(r["setup_s"] for r in reps) + rounds_s
        + min(r["teardown_s"] for r in reps),
        "round_ms_p50": percentile(best, 0.50),
        "round_ms_p90": percentile(best, 0.90),
        "sim_speed": reps[0]["sim_seconds"] / rounds_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "allocs_per_round": reps[0]["allocs_per_round"],
        "setup_allocs": reps[0]["setup_allocs"],
    }


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:32s} {value:16.6g} {unit}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down inputs, for the self-test")
    ap.add_argument("--break-identity", action="store_true",
                    help="corrupt a conserved count (the self-test's failing case)")
    ap.add_argument("--raw-out", help="also write every repetition's raw results here")
    args = ap.parse_args(argv)

    out = build_dir()
    runner = build_runner(out)
    if runner is None:
        return 2

    kind, text = make_input(args.workload, args.seed, args.smoke)
    inputs = out / "inputs"
    inputs.mkdir(exist_ok=True)
    input_path = inputs / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}.ini"
    input_path.write_text(text)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)

    # Repetitions until the budget is spent (at least one of each kind the
    # mode needs). Trace mode alternates untraced and traced runs so both
    # see the same machine state; overhead is the difference of medians.
    plain, traced, trace_files = [], [], []
    all_ok = True
    start = time.monotonic()
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        trace_path = None
        if want_traced:
            trace_path = traces / f"{args.workload}-{args.seed}-{len(traced)}.json"
        result, ok = run_runner(runner, kind, input_path, trace_path, args.break_identity)
        if result is None:
            return 2
        all_ok = all_ok and ok
        if want_traced:
            traced.append(result)
            trace_files.append(trace_path)
        else:
            plain.append(result)
        enough = plain and (args.trace == 0 or traced)
        if enough and time.monotonic() - start >= args.seconds:
            break

    problems = check_reps(plain + traced)
    first = plain[0]
    correct = all_ok and not problems
    for p in problems:
        log(f"perfbench: CHECK FAILED: {p}")

    if args.raw_out:
        Path(args.raw_out).write_text(json.dumps({"plain": plain, "traced": traced}))

    print(f"perfbench {args.workload} seed={args.seed} reps={len(plain)} "
          f"traced_reps={len(traced)} rounds={first['rounds']:.0f} "
          f"attempted={first['attempted']:.0f} failed={first['failed']:.0f}")
    if kind == "mesh":
        print(f"  req_latency_ms_p50 {first['req_latency_ms_p50']:.3f} sim_ms  "
              f"req_latency_ms_p99 {first['req_latency_ms_p99']:.3f} sim_ms")

    metrics = {}
    if args.trace == 0:
        values = end_to_end(plain)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print_table(f"end-to-end (over {len(plain)} repetitions)",
                    [(n, metrics[n]["value"], u) for n, u in END_TO_END])
    else:
        layer_reps = [r["layers"] for r in traced]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_pct":
                base = statistics.median([r["wall_s"] for r in plain])
                value = 100.0 * (statistics.median([r["wall_s"] for r in traced]) - base) / base
            else:
                value = statistics.median([layers[name] for layers in layer_reps])
            metrics[name] = {"value": value, "unit": unit}
        print_table("per-layer (median over traced repetitions)",
                    [(n, metrics[n]["value"], u) for n, u in PER_LAYER])
        # The exclusive split of one traced repetition (the median-round
        # one): its layers plus sim.other_ms add up to its round.
        pick = sorted(layer_reps, key=lambda l: l["trace.round_ms"])[len(layer_reps) // 2]
        rows = [(n, pick[n], "ms/round") for n in EXCLUSIVE]
        rows.append(("sum", sum(pick[n] for n in EXCLUSIVE), "ms/round"))
        rows.append(("round span", pick["trace.round_ms"], "ms/round"))
        print_table("exclusive time per round (one traced repetition)", rows)
        print("chrome traces: " + " ".join(str(p) for p in trace_files))

    print(json.dumps({
        "correct": correct,
        "attempted": int(first["attempted"]),
        "failed": int(first["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
