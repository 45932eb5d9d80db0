#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and compare spreads to bounds.

Usage::

    python3 perfbench/steady.py [--workloads trials,sweep] [--runs 10]
                                [--seconds 10] [--first-seed 1] [--sets 1]

Each run uses the next seed.  For every end-to-end metric the report prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (interquartile distance over the median) and that spread as a share
of the metric's bound in ``BENCHMARK.json``; a spread above a third of its
bound is flagged.  With ``--sets 2`` the runs are repeated and the second
set's median is compared with the first's, in the metric's worse direction.
Raw results are kept under ``.perfbench_tmp/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def report(workload: str, sets: list[list[dict]], metrics: list[dict]) -> bool:
    steady = True
    print(f"\n## {workload} ({len(sets[0])} runs per set)")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6} {'/bound':>7} {'2nd set':>8}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        values = [run[name] for run in sets[0]]
        q1, med, q3, rel = spread(values)
        share = rel / bound
        shift = ""
        if len(sets) > 1:
            second = statistics.median(run[name] for run in sets[1])
            worse = (second - med) / med
            if metric["better"] == "higher":
                worse = -worse
            shift = f"{worse:+.3f}"
            steady &= worse <= bound
        flag = "" if share <= 1 / 3 else ("  wide" if share <= 1 else "  OVER")
        steady &= share <= 1
        print(f"{name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {rel:>7.3f} "
              f"{bound:>6.2f} {share:>7.2f} {shift:>8}{flag}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    TMP.mkdir(exist_ok=True)
    steady = True
    for workload in names:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                runs.append(run_once(workload, seed, seconds))
                print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
            sets.append(runs)
        (TMP / f"steady-{workload}.json").write_text(json.dumps(sets))
        steady &= report(workload, sets, spec["end_to_end"])
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
