#!/usr/bin/env python3
"""Steadiness tool: run one workload N times and summarise every metric.

Usage, from the repository root::

    python3 repobench/steady.py --workload krylov-replay --runs 10 --seconds 12

Runs are sequential, one seed each (``--seed``, ``--seed + 1``, ...), or
all with ``--seed`` under ``--same-seed``, which also demands that every
run prints the same determinism fingerprint.  For each metric the tool
prints the median, the quartiles of ``statistics.quantiles(values,
n=4)``, min/max and the spread: the distance between the quartiles as a
share of the median, the figure each end-to-end bound is judged against.
Exits non-zero when a run fails or, under ``--same-seed``, fingerprints
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its metrics, fingerprint and status."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    completed = subprocess.run(
        command, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600
    )
    elapsed = time.perf_counter() - start
    metrics, fingerprint, failures = {}, None, []
    for line in completed.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"]:
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields[:1] == ["fingerprint"]:
            fingerprint = fields[1]
        elif fields[:1] == ["FAILED"]:
            failures.append(line)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != {
        "correct", "attempted", "failed", "metrics"
    }:
        failures.append("last line of output is not the result object")
    if completed.returncode != 0 and not failures:
        failures.append(completed.stderr.strip()[-500:])
    return {
        "seed": seed,
        "elapsed": elapsed,
        "returncode": completed.returncode,
        "metrics": metrics,
        "fingerprint": fingerprint,
        "failures": failures,
    }


def summarise(runs) -> None:
    names = sorted({name for run in runs for name in run["metrics"]})
    print(
        f"{'metric':40s} {'unit':10s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
        f"{'min':>11s} {'max':>11s} {'spread':>7s}"
    )
    for name in names:
        values = [run["metrics"][name][0] for run in runs if name in run["metrics"]]
        unit = next(run["metrics"][name][1] for run in runs if name in run["metrics"])
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        print(
            f"{name:40s} {unit:10s} {median:11.5g} {q1:11.5g} {q3:11.5g} "
            f"{min(values):11.5g} {max(values):11.5g} {spread:7.3f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)

    runs = []
    for index in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + index
        run = run_once(args.workload, seed, args.seconds, trace=0)
        runs.append(run)
        status = "ok" if run["returncode"] == 0 else f"exit {run['returncode']}"
        print(
            f"run {index + 1}/{args.runs} seed={seed} {status} "
            f"{run['elapsed']:.1f}s fingerprint={run['fingerprint']}",
            flush=True,
        )
        for failure in run["failures"]:
            print("  ", failure)
    summarise(runs)
    print(f"longest run: {max(run['elapsed'] for run in runs):.1f}s")
    bad = [run for run in runs if run["returncode"] != 0 or run["failures"]]
    fingerprints = {run["fingerprint"] for run in runs}
    if args.same_seed and len(fingerprints) > 1:
        print(f"NONDETERMINISTIC: {len(fingerprints)} fingerprints for one seed")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
