"""The benchmark's workloads: which apps run, at which sizes, under which flags.

Every workload sets ``REPRO_WORKERS=2`` (the reference host has two
CPUs) and leaves telemetry off; every other ``REPRO_*`` flag keeps its
default unless the workload names it.  The seed draws input data and
the order apps run in within a round, never a problem size.

``nominal_ms`` is the wall time of one timed unit of a config on the
reference host (a steady iteration, or for cold-capture one cold run to
the first replayed epoch).  It only sizes the fixed iteration and round
counts from ``--seconds``, so that a run's counters repeat exactly for a
given seed and length while its wall time stays near ``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Steady iterations each cold run times after its first replayed epoch.
COLD_TAIL_ITERATIONS = 6

#: Flags every workload sets; all other ``REPRO_*`` variables are removed.
BASE_FLAGS = {"REPRO_WORKERS": "2", "REPRO_TELEMETRY": "0"}


@dataclass(frozen=True)
class AppConfig:
    """One application at one rank count and problem size."""

    app: str
    gpus: int
    kwargs: Dict[str, float] = field(default_factory=dict)
    nominal_ms: float = 10.0

    @property
    def label(self) -> str:
        return f"{self.app}@{self.gpus}"


@dataclass(frozen=True)
class Workload:
    """A named set of app configs plus the flags they run under."""

    name: str
    configs: Tuple[AppConfig, ...]
    flags: Dict[str, str] = field(default_factory=dict)
    #: Cold workloads stop warming each app run at its first replayed
    #: epoch and time a short tail; the others warm up to steady replay
    #: and time a fixed count of steady iterations.
    cold: bool = False
    #: Rounds per run.  Each round builds every config afresh (in seeded
    #: order), so configs interleave in time and host-speed phases of a
    #: few seconds fall on all of them alike.
    rounds: int = 6
    #: Host-speed probe matching the workload's bottleneck
    #: (``hostspeed.PROBES``), or None to report timings as measured.
    probe: Optional[str] = "interpreter"
    #: How strongly the apps' times follow the probe's (``hostspeed.py``),
    #: fitted over host-speed phases on the reference host.
    elasticity: float = 1.0

    def slice_iterations(self, config: AppConfig, seconds: float) -> int:
        """Timed iterations of ``config`` per round for a ``seconds`` run.

        Cold runs time a short steady tail after their first replayed
        epoch, so every workload reports steady iteration times.
        """
        if self.cold:
            return COLD_TAIL_ITERATIONS
        share_ms = seconds * 1000.0 / (len(self.configs) * self.rounds)
        return max(8, int(round(share_ms / config.nominal_ms)))

    def cold_rounds(self, seconds: float) -> int:
        """Rounds of cold runs that fill a ``seconds`` run."""
        round_ms = sum(config.nominal_ms for config in self.configs)
        return max(4, int(round(seconds * 1000.0 / round_ms)))


_KRYLOV_SIZE = {"grid_points_per_gpu": 16}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="krylov-replay",
            # 64 ranks of 16x16 tiles: steady replay is per-task runtime
            # overhead (submit, trace lookup, scheduler, super-kernel and
            # SpMV calls), not kernel compute.
            configs=(
                AppConfig("cg", 64, _KRYLOV_SIZE, nominal_ms=2.6),
                AppConfig("bicgstab", 64, _KRYLOV_SIZE, nominal_ms=3.4),
                AppConfig("gmg", 64, _KRYLOV_SIZE, nominal_ms=8.3),
            ),
            rounds=24,
            elasticity=0.6,
        ),
        Workload(
            name="stencil-large",
            # 4 ranks of large tiles: time sits in the generated NumPy
            # kernel bodies, replay overhead is a few percent.
            configs=(
                AppConfig("torchswe", 4, {"points_per_gpu": 384}, nominal_ms=37.0),
                AppConfig(
                    "torchswe-manual", 4, {"points_per_gpu": 384}, nominal_ms=26.0
                ),
                # The default dt=1e-4 overflows to NaN on a grid this
                # fine; 1e-5 sits inside its diffusive stability limit
                # (nu * dt / dx^2 ~ 0.04).
                AppConfig(
                    "cfd", 4, {"points_per_gpu": 192, "dt": 1e-5}, nominal_ms=19.0
                ),
            ),
            rounds=6,
            probe="numpy",
            elasticity=0.7,
        ),
        Workload(
            name="cold-capture",
            # Every app from a fresh context and an empty closure cache to
            # its first replayed epoch: fusion analysis, kernel passes,
            # codegen and plan capture dominate.  ``nominal_ms`` is one
            # cold run's wall time, set-up and tail included.
            configs=(
                AppConfig("black-scholes", 4, {"elements_per_gpu": 4096}, 63.0),
                AppConfig("jacobi", 4, {"rows_per_gpu": 64}, 25.0),
                AppConfig("cg", 4, {"grid_points_per_gpu": 24}, 33.0),
                AppConfig("cg-manual", 4, {"grid_points_per_gpu": 24}, 32.0),
                AppConfig("bicgstab", 4, {"grid_points_per_gpu": 24}, 43.0),
                AppConfig("gmg", 4, {"grid_points_per_gpu": 24}, 85.0),
                AppConfig(
                    "cfd", 4, {"points_per_gpu": 32, "pressure_iterations": 4}, 141.0
                ),
                AppConfig("two-matvec", 4, {"rows_per_gpu": 32}, 25.0),
                AppConfig("torchswe", 4, {"points_per_gpu": 32}, 149.0),
                AppConfig("torchswe-manual", 4, {"points_per_gpu": 32}, 33.0),
            ),
            cold=True,
            elasticity=0.75,
        ),
        Workload(
            name="dispatch-process",
            # 8 ranks on the process substrate with 2 point workers: wire
            # round-trips, the shared-memory arena, resident plans and
            # worker waits.
            configs=(
                AppConfig("cg", 8, {"grid_points_per_gpu": 64}, nominal_ms=5.0),
                AppConfig("torchswe", 8, {"points_per_gpu": 128}, nominal_ms=9.5),
            ),
            flags={"REPRO_DISPATCH_BACKEND": "process", "REPRO_POINT_WORKERS": "2"},
            rounds=24,
            # Its work spans both CPUs, whose speeds move independently;
            # a probe on the benchmark's thread does not follow it.
            probe=None,
        ),
    )
}
