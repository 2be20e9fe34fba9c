#!/usr/bin/env python3
"""Steadiness record: runs run.py on every workload over several seeds,
interleaving workloads within each seed, and reports per end-to-end metric
its quartiles and spread (Q3 - Q1) / median, against the metric's bound in
BENCHMARK.json. With --sets 2 it makes two such sets and also reports how
far the second set's median moved from the first's.

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --markdown out.md
    python3 perfbench/steadiness.py --seeds 10 --same-seed 1

Run from the root of a checkout; each run.py call uses BENCHMARK.json's
run_seconds. Seeds are 1000 + i within set 0, 2000 + i within set 1, and so
on, so no set reuses another's inputs; the sets alternate seed by seed.
--same-seed N instead runs seed N every time, which leaves only the
machine's run-to-run noise (the spread a same-seed comparison sees).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--same-seed", type=int, help="run this seed every time")
    ap.add_argument("--markdown", help="write the table here as well")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # values[set][workload][metric] -> list over seeds
    values = [{w: {m: [] for m in bounds} for w in args.workloads}
              for _ in range(args.sets)]
    # Sets alternate seed by seed, so slow phases of the machine fall on
    # both sets alike.
    for i in range(args.seeds):
        for s in range(args.sets):
            for w in args.workloads:
                seed = args.same_seed if args.same_seed is not None else 1000 * (s + 1) + i
                metrics = run_once(w, seed, spec["run_seconds"])
                for m in bounds:
                    values[s][w][m].append(metrics[m]["value"])
                print(f"set {s} seed {seed} {w}: " + ", ".join(
                    f"{m}={metrics[m]['value']:.4g}" for m in bounds), flush=True)

    lines = [
        "| workload | metric | unit | Q1 | median | Q3 | spread | bound | "
        + ("second-set median move | " if args.sets > 1 else "") + "ok |",
        "|---|---|---|---|---|---|---|---|" + ("---|" if args.sets > 1 else "") + "---|",
    ]
    all_ok = True
    for w in args.workloads:
        for m, bound in bounds.items():
            q1, q2, q3 = quartiles(values[0][w][m])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            ok = m == "setup_s" or spread <= bound / 3
            move = ""
            if args.sets > 1:
                q2b = statistics.median(values[1][w][m])
                drift = (q2b - q2) / q2 if q2 else float("inf")
                worse = -drift if better[m] == "higher" else drift
                ok = ok and worse <= bound
                move = f"{drift:+.2%} | "
            all_ok = all_ok and ok
            lines.append(f"| {w} | {m} | {units[m]} | {q1:.6g} | {q2:.6g} | {q3:.6g} | "
                         f"{spread:.2%} | {bound:.0%} | {move}{'yes' if ok else 'NO'} |")
    table = "\n".join(lines)
    print(table)
    if args.markdown:
        Path(args.markdown).write_text(table + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
