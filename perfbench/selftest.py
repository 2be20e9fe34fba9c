#!/usr/bin/env python3
"""Self-test of the benchmark, on smoke-length inputs of every workload:

  * every metric BENCHMARK.json names is printed, with its unit, and every
    end-to-end value is a positive number;
  * allocs_per_round and setup_allocs repeat exactly across two runs;
  * traced and untraced repetitions produce the same journal digest, and
    the exclusive layer times plus sim.other_ms add up to the round;
  * a run whose conservation identity is broken (--break-identity) reports
    "correct": false and exits non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402


def fail(msg):
    sys.exit(f"selftest FAILED: {msg}")


def invoke(workload, trace, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--smoke", *extra]
    env = dict(os.environ)
    if cwd != ROOT:
        env.pop("CARGO_TARGET_DIR", None)  # build inside that directory
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_metrics(result, expected, positive, where):
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{where}: metric names {sorted(set(got) ^ set(expected))} differ")
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            fail(f"{where}: {name} has unit {got[name]['unit']}, expected {unit}")
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or (positive and value <= 0):
            fail(f"{where}: {name} = {value!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != dict(bench.END_TO_END) or layers != dict(bench.PER_LAYER):
        fail("BENCHMARK.json and run.py disagree on metric names or units")
    bench.build_dir().mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.build_dir()) as tmp:
        tmp = Path(tmp)
        for w in spec["workloads"]:
            name = w["name"]
            raws = []
            for i in range(2):
                raw = tmp / f"{name}-{i}.json"
                proc, result = invoke(name, 0, "--raw-out", str(raw))
                if proc.returncode != 0 or result is None or not result["correct"]:
                    fail(f"{name}: untraced run failed:\n{proc.stdout}\n{proc.stderr}")
                check_metrics(result, e2e, True, f"{name} --trace 0")
                raws.append(json.loads(raw.read_text()))
            for key in ("round_allocs", "setup_allocs", "journal_digest"):
                a, b = raws[0]["plain"][0][key], raws[1]["plain"][0][key]
                if a != b:
                    fail(f"{name}: {key} differs across runs ({a} vs {b})")

            raw = tmp / f"{name}-traced.json"
            proc, result = invoke(name, 1, "--raw-out", str(raw))
            if proc.returncode != 0 or result is None or not result["correct"]:
                fail(f"{name}: traced run failed:\n{proc.stdout}\n{proc.stderr}")
            check_metrics(result, layers, False, f"{name} --trace 1")
            reps = json.loads(raw.read_text())
            traced = reps["traced"][0]
            if traced["journal_digest"] != reps["plain"][0]["journal_digest"]:
                fail(f"{name}: traced journal digest differs from untraced")
            split = traced["layers"]
            total = sum(split[n] for n in bench.EXCLUSIVE)
            if abs(total - split["trace.round_ms"]) > 1e-9 * max(1.0, split["trace.round_ms"]):
                fail(f"{name}: exclusive layers sum to {total}, round is "
                     f"{split['trace.round_ms']}")

            proc, result = invoke(name, 0, "--break-identity")
            if proc.returncode == 0 or result is None or result["correct"]:
                fail(f"{name}: broken conservation identity was not caught")
            print(f"selftest {name}: ok")

        # Only BENCHMARK.json and the benchmark's own files: no program.
        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc, result = invoke(spec["workloads"][0]["name"], 0, cwd=bare,
                              script=bare / "perfbench" / "run.py")
        if proc.returncode == 0 or result is not None:
            fail("benchmark succeeded without the program's sources")
        print("selftest bare directory: ok")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
