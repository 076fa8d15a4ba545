#!/usr/bin/env python3
"""The benchmark's own test of its traced run.

Usage, from the repository root::

    python3 repobench/check_layers.py

Runs ``run.py --trace 1`` once per workload (seed 1, 6 seconds).  Each
traced run already fails when a wrapper's call count differs from the
profiler counter it shadows (``PlanScheduler.execute`` calls against
``trace_hits``, pool sends against ``wire_requests``, and on the thread
substrate super-kernel calls against ``superkernel_calls`` and opaque
calls against ``opaque_rank_calls + opaque_chunk_calls``).  This script then checks
the layer table: each layer's self-time share must be larger on every
workload that stresses it than on every workload that bypasses it, and
the process pool must see no round-trips off the process substrate.
Exits non-zero on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from steady import run_once  # noqa: E402

SEED = 1
SECONDS = 6

#: (self-share metric, stressed by, bypassed by) — the README's layer table.
LAYER_TABLE = (
    ("frontend.self_share", ("krylov-replay",), ("stencil-large",)),
    ("fusion.self_share", ("cold-capture",), ("krylov-replay",)),
    ("kernel.self_share", ("cold-capture",), ("krylov-replay",)),
    ("trace.self_share", ("krylov-replay", "cold-capture"), ("stencil-large",)),
    ("scheduler.self_share", ("krylov-replay",), ("stencil-large",)),
    ("superkernel.self_share", ("stencil-large", "krylov-replay"), ("cold-capture",)),
    ("opaque.self_share", ("krylov-replay",), ("cold-capture",)),
    ("point.self_share", ("dispatch-process",), ("krylov-replay",)),
    ("procpool.self_share", ("dispatch-process",), ("krylov-replay",)),
    ("generated.self_share", ("stencil-large",), ("krylov-replay",)),
)

#: Workloads on the thread substrate, where the process pool must be idle.
THREAD_WORKLOADS = ("krylov-replay", "stencil-large", "cold-capture")


def main() -> int:
    workloads = sorted(
        {name for _, stressed, bypassed in LAYER_TABLE for name in stressed + bypassed}
    )
    shares = {}
    failures = []
    for workload in workloads:
        run = run_once(workload, SEED, SECONDS, trace=1)
        print(f"{workload}: exit {run['returncode']} in {run['elapsed']:.1f}s")
        failures += [f"{workload}: {failure}" for failure in run["failures"]]
        shares[workload] = {
            name: value for name, (value, _unit) in run["metrics"].items()
        }

    for metric, stressed, bypassed in LAYER_TABLE:
        for high in stressed:
            for low in bypassed:
                a = shares[high].get(metric, 0.0)
                b = shares[low].get(metric, 0.0)
                verdict = "ok" if a > b else "FAIL"
                print(f"{verdict:4s} {metric:24s} {high} {a:.4f} > {low} {b:.4f}")
                if a <= b:
                    failures.append(f"{metric}: {high} {a:.4f} <= {low} {b:.4f}")
    for workload in THREAD_WORKLOADS:
        trips = shares[workload].get("procpool.roundtrips_per_epoch", 0.0)
        if trips:
            failures.append(f"{workload}: {trips} process round-trips per epoch")

    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
