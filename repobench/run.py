#!/usr/bin/env python3
"""Repository benchmark: run one workload for one seed in one process.

Usage, from the repository root::

    python3 repobench/run.py --workload krylov-replay --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics, measured by wrapping each layer's entry points from outside the
program (see ``spans.py``) in every other round.  The lines before it
list every metric of both kinds that the run measured, with its unit
and sample count, plus a determinism fingerprint.

Each app run is checked outside the timed phase: against the app's
NumPy reference where one exists, otherwise against an
interpreter-backend run of the same config, and every timed slice's
checksum must be finite and repeat exactly across rounds together with
the run's counters.  Any failure makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import inspect
import json
import math
import os
import random
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Seconds the resource tracker gets to exit before it is killed.
TRACKER_EXIT_SECONDS = 10.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The program's shared-memory arenas start the tracker, which by
    design outlives the process that started it.  This runs at exit,
    after the other exit hooks (worker joins, arena unlinks), so the
    benchmark leaves no process behind.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is None or tracker._pid is None:
        return
    # Closing the tracker's pipe makes it clean up and exit.
    os.close(tracker._fd)
    pid, tracker._fd, tracker._pid = tracker._pid, None, None
    deadline = time.monotonic() + TRACKER_EXIT_SECONDS
    try:
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


# Registered before the program or multiprocessing is imported, so it
# runs after every exit hook they register.
atexit.register(stop_resource_tracker)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import PROBES, Probe  # noqa: E402
from workloads import BASE_FLAGS, WORKLOADS, AppConfig, Workload  # noqa: E402

#: Host-speed probes taken before and after every app run.
CLEAN_PROBES = 16
#: Iterations an app may take to reach steady replay before it fails.
MAX_WARM_ITERATIONS = 16
#: Steady iterations the correctness gate runs past steady state.
CHECK_EXTRA_ITERATIONS = 2
#: Relative tolerance against NumPy references, as the app tests use.
REFERENCE_RTOL = {"black-scholes": 1e-5}
DEFAULT_REFERENCE_RTOL = 1e-8

clock = time.perf_counter


class BenchFailure(RuntimeError):
    """An app run that raised, was wrong, or broke determinism."""


# ----------------------------------------------------------------------
# Environment.
# ----------------------------------------------------------------------
def configure_environment(workload: Workload) -> None:
    """Pin the workload's flags; every other ``REPRO_*`` flag is default."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(BASE_FLAGS)
    os.environ.update(workload.flags)


def import_program():
    """Import the program from the checkout's ``src`` directory."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {source}")
    sys.path.insert(0, str(source))
    import repro.apps  # noqa: F401  (registers every app and opaque operator)


# ----------------------------------------------------------------------
# One app run.
# ----------------------------------------------------------------------
class AppRun:
    """A fresh runtime context with one app built on it."""

    def __init__(self, config: AppConfig, data_seed: int) -> None:
        import numpy as np

        import repro.frontend.cunumeric as cn
        from repro.apps.base import build_application
        from repro.experiments.harness import default_scale_for, scaled_machine
        from repro.frontend.legate.context import RuntimeContext, set_context

        self.config = config
        start = clock()
        machine = scaled_machine(
            config.gpus, default_scale_for(config.app).bandwidth_scale
        )
        self.context = RuntimeContext(num_gpus=config.gpus, machine=machine)
        set_context(self.context)
        kwargs = dict(config.kwargs)
        rng = np.random.default_rng(data_seed)
        factory_params = inspect.signature(
            _application_class(config.app)
        ).parameters
        if "seed" in factory_params:
            kwargs["seed"] = int(rng.integers(1 << 31))
        self.app = build_application(config.app, context=self.context, **kwargs)
        if hasattr(self.app, "rhs") and hasattr(self.app, "reset"):
            # The Krylov apps solve A x = 1; draw the right-hand side.
            self.app.rhs = cn.array(
                rng.uniform(0.5, 1.5, self.app.rows), name="krylov_b"
            )
            self.app.reset()
        self.build_seconds = clock() - start

    @property
    def profiler(self):
        return self.context.profiler

    def iterate(self) -> tuple:
        """One timed app iteration; returns (seconds, new hits, new misses)."""
        profiler = self.profiler
        hits, misses = profiler.trace_hits, profiler.trace_misses
        start = clock()
        self.app.run(1)
        seconds = clock() - start
        return seconds, profiler.trace_hits - hits, profiler.trace_misses - misses

    def warm(self, stop_at_first_replay: bool) -> tuple:
        """Run until steady replay, or until the first replayed epoch.

        Returns ``(setup, capture)``: wall seconds from context creation
        to that point, and to the end of the iteration holding the first
        replayed epoch.
        """
        elapsed = self.build_seconds
        capture = None
        for _ in range(MAX_WARM_ITERATIONS):
            seconds, new_hits, new_misses = self.iterate()
            elapsed += seconds
            if new_hits and capture is None:
                capture = elapsed
            if new_hits and (stop_at_first_replay or not new_misses):
                return elapsed, capture
        raise BenchFailure(
            f"{self.config.label}: no steady replay within "
            f"{MAX_WARM_ITERATIONS} iterations"
        )

    def checksum(self) -> float:
        value = self.app.checksum()
        if not math.isfinite(value):
            raise BenchFailure(f"{self.config.label}: non-finite checksum {value}")
        return value

    def close(self) -> None:
        from repro.frontend.legate.context import set_context

        set_context(None)
        self.app = None
        self.context = None
        gc.collect()


def _application_class(name: str):
    import repro.apps
    from repro.apps.base import Application

    for export in repro.apps.__all__:
        cls = getattr(repro.apps, export)
        if isinstance(cls, type) and issubclass(cls, Application) and cls.name == name:
            return cls
    raise KeyError(name)


def counters(run: AppRun) -> Dict[str, float]:
    """Profiler, fusion and codegen counters of one app run so far."""
    from repro.kernel.codegen import codegen_stats

    snapshot = run.profiler.snapshot()
    snapshot["sim_seconds"] = sum(run.profiler.iteration_seconds())
    snapshot["submitted_tasks"] = run.context.diffuse.stats.submitted_tasks
    cache = run.context.diffuse.cache
    snapshot["memo_hits"] = cache.hits
    snapshot["memo_misses"] = cache.misses
    stats = codegen_stats()
    snapshot["codegen_compilations"] = stats.source_compilations
    snapshot["codegen_reuses"] = stats.source_cache_hits
    snapshot.pop("plan_level_widths", None)
    return snapshot


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def retire_process_caches() -> None:
    """Empty the process-wide closure cache and retire the worker pools.

    Every app run starts from this state, so a cache that leaked across
    contexts cannot turn a capture warm, and worker-process memory is
    bounded by one app run.
    """
    from repro.kernel.codegen import clear_function_cache
    from repro.runtime.pool import shutdown_shared_pool
    from repro.runtime.procpool import shutdown_process_pool

    clear_function_cache()
    shutdown_process_pool()
    shutdown_shared_pool()


def clean_probes(probe: Optional[Probe]) -> List[float]:
    """Host-speed probe times taken while no program state is alive.

    The caches are emptied, the pools retired and garbage collected
    first, so nothing the program does can slow the probes and be
    divided out of its timings as host slowness (see ``hostspeed.py``).
    """
    retire_process_caches()
    gc.collect()
    return [probe() for _ in range(CLEAN_PROBES)] if probe else []


# ----------------------------------------------------------------------
# Correctness gate.
# ----------------------------------------------------------------------
def interpreter_checksum(config: AppConfig, data_seed: int, iterations: int) -> float:
    """Checksum of ``config`` after ``iterations`` on the interpreter backend.

    The interpreter backend is the executable spec: codegen, replay and
    every dispatch layer must match it bit for bit.
    """
    from repro import config as repro_config

    os.environ["REPRO_KERNEL_BACKEND"] = "interpreter"
    repro_config.reload_flags()
    try:
        spec = AppRun(config, data_seed)
        try:
            spec.app.run(iterations)
            return spec.checksum()
        finally:
            spec.close()
    finally:
        del os.environ["REPRO_KERNEL_BACKEND"]
        repro_config.reload_flags()


def check_config(config: AppConfig, data_seed: int) -> str:
    """Run one config past steady state and compare with its reference."""
    run = AppRun(config, data_seed)
    try:
        run.warm(stop_at_first_replay=False)
        run.app.run(CHECK_EXTRA_ITERATIONS)
        iterations = len(run.profiler.iterations)
        value = run.checksum()
        if not run.profiler.trace_hits:
            raise BenchFailure(f"{config.label}: no replayed epoch in the check run")
        reference = getattr(run.app, "reference_checksum", None)
        if reference is not None:
            takes_iterations = bool(inspect.signature(reference).parameters)
            expected = reference(iterations) if takes_iterations else reference()
            rtol = REFERENCE_RTOL.get(config.app, DEFAULT_REFERENCE_RTOL)
            source = "NumPy reference"
    finally:
        run.close()
    if reference is None:
        expected = interpreter_checksum(config, data_seed, iterations)
        rtol, source = 0.0, "interpreter backend"
    if not math.isfinite(expected):
        raise BenchFailure(f"{config.label}: non-finite {source} value {expected}")
    if abs(value - expected) > rtol * abs(expected):
        raise BenchFailure(
            f"{config.label}: checksum {value!r} != {source} {expected!r} "
            f"after {iterations} iterations"
        )
    return f"{config.label}: {value!r} matches {source} ({iterations} iterations)"


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------
#: Timed-slice counters that must repeat exactly across rounds (the
#: fingerprint adds the capture's compilations and trace misses, the
#: simulated seconds and the checksum).
DETERMINISTIC = (
    "iterations",
    "total_constituent_tasks",
    "total_index_tasks",
    "trace_hits",
    "trace_misses",
    "replay_closure_calls",
    "opaque_rank_calls",
    "opaque_chunk_calls",
    "wire_bytes",
)


class Measurement:
    """Everything one run measured, per config and per round."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        labels = [config.label for config in workload.configs]
        #: Per kind ("iter", "capture", "traced_iter", "traced_capture")
        #: and config: host-speed-normalised seconds.  Untraced rounds
        #: fill the plain kinds, traced rounds the ``traced_`` ones.
        self.samples = {
            kind: {label: [] for label in labels}
            for kind in ("iter", "capture", "traced_iter", "traced_capture")
        }
        #: The same seconds as measured, for the report.
        self.raw = {
            kind: {label: [] for label in labels} for kind in self.samples
        }
        #: Per round: summed set-up seconds over the round's configs
        #: (normalised, and as measured).
        self.setups: List[float] = []
        self.raw_setups: List[float] = []
        #: Per config: deterministic counter tuple of every round.
        self.fingerprints = {label: [] for label in labels}
        #: Per config: steady simulated seconds and iterations.
        self.sim = {label: [0.0, 0] for label in labels}
        #: Traced rounds: counter deltas per phase, wall seconds per phase.
        self.phase_counters: Dict[str, Dict[str, float]] = {}
        self.phase_seconds: Dict[str, float] = {}
        #: Resident megabytes sampled at the end of every app run.
        self.resident_mb: List[float] = []
        #: Per config: largest live region-field storage seen, in MiB.
        self.working_set_mib: Dict[str, float] = {}
        self.captures_traced = 0
        self.attempted = 0
        self.failures: List[str] = []

    def add(
        self, kind: str, label: str, raw: List[float], normalised: List[float]
    ) -> None:
        self.raw[kind][label].extend(raw)
        self.samples[kind][label].extend(normalised)

    def add_phase(self, phase: str, values: Dict[str, float], seconds: float) -> None:
        bucket = self.phase_counters.setdefault(phase, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds


def measure_round(
    workload: Workload,
    configs: List[AppConfig],
    seconds: float,
    seed: int,
    measurement: Measurement,
    probe: Optional[Probe],
    tracer,
) -> None:
    """Build, warm and time every config once, in the given order."""
    setup_total = raw_setup_total = 0.0
    for config in configs:
        measurement.attempted += 1
        label = config.label
        data_seed = _data_seed(workload, config, seed)
        baseline = clean_probes(probe)
        if tracer is not None:
            tracer.phase = "capture"
        run = None
        try:
            run = AppRun(config, data_seed)
            setup, capture = run.warm(stop_at_first_replay=workload.cold)
            captured = counters(run)
            # The closure cache and its counters were cleared just
            # before the context was built.
            compilations = captured["codegen_compilations"]
            if workload.cold and (compilations <= 0 or captured["trace_misses"] <= 0):
                raise BenchFailure(
                    f"{label}: cold run was warm (codegen compilations "
                    f"{compilations}, trace misses {captured['trace_misses']})"
                )
            if tracer is not None:
                tracer.phase = "steady"
            before = counters(run)
            times = []
            start = clock()
            for _ in range(workload.slice_iterations(config, seconds)):
                times.append(run.iterate()[0])
            steady_seconds = clock() - start
            steady = delta(counters(run), before)
            steady["iterations"] = len(times)
            if tracer is not None:
                tracer.phase = "check"
            value = run.checksum()
            final = counters(run)
            measurement.resident_mb.append(resident_mb())
            live_mib = run.context.legion.regions.allocated_bytes / 2**20
            measurement.working_set_mib[label] = max(
                live_mib, measurement.working_set_mib.get(label, 0.0)
            )
        except BenchFailure as failure:
            measurement.failures.append(str(failure))
            continue
        except Exception as error:  # noqa: BLE001 - a failed app run is counted
            measurement.failures.append(f"{label}: {type(error).__name__}: {error}")
            continue
        finally:
            if run is not None:
                run.close()

        # Probes on both sides of the app run follow host-speed phases
        # of a second or more across it.
        after = clean_probes(probe)
        factor = (
            probe.speed_factor(baseline + after, workload.elasticity) if probe else 1.0
        )
        fingerprint = {key: steady[key] for key in DETERMINISTIC}
        fingerprint["codegen_compilations"] = compilations
        fingerprint["capture_trace_misses"] = captured["trace_misses"]
        fingerprint["checksum"] = repr(value)
        fingerprint["sim_seconds"] = repr(steady["sim_seconds"])
        measurement.fingerprints[label].append(fingerprint)
        measurement.sim[label][0] += steady["sim_seconds"]
        measurement.sim[label][1] += steady["iterations"]
        setup_total += setup * factor
        raw_setup_total += setup
        prefix = "" if tracer is None else "traced_"
        measurement.add(
            prefix + "iter", label, times, [sample * factor for sample in times]
        )
        measurement.add(prefix + "capture", label, [capture], [capture * factor])
        if tracer is None:
            continue
        measurement.captures_traced += 1
        captured["captures"] = 1
        measurement.add_phase("capture", captured, setup)
        measurement.add_phase("steady", steady, steady_seconds)
        measurement.add_phase("all", final, setup + steady_seconds)
    measurement.setups.append(setup_total)
    measurement.raw_setups.append(raw_setup_total)


def _data_seed(workload: Workload, config: AppConfig, seed: int) -> int:
    return seed * 1009 + workload.configs.index(config)


def run_rounds(
    workload: Workload, seed: int, seconds: float, trace: bool,
    measurement: Measurement,
):
    """Run every round of a workload; traced runs trace every other round.

    Returns the tracer of the traced rounds (None for untraced runs).
    """
    from spans import Tracer, install_layer_spans

    order_rng = random.Random(seed)
    probe = PROBES[workload.probe]() if workload.probe else None
    rounds = workload.cold_rounds(seconds) if workload.cold else workload.rounds
    if trace:
        rounds += rounds % 2
    tracer = Tracer() if trace else None
    for index in range(rounds):
        configs = list(workload.configs)
        order_rng.shuffle(configs)
        traced = trace and index % 2 == 1
        if traced:
            install_layer_spans(tracer)
        try:
            measure_round(
                workload, configs, seconds, seed, measurement, probe,
                tracer if traced else None,
            )
        finally:
            if traced:
                tracer.restore()
    return tracer


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[-1]


def config_geomean(per_config: Dict[str, List[float]], statistic) -> float:
    """Geomean over configs of ``statistic`` of each config's samples."""
    return geomean(statistic(v) for v in per_config.values() if v)


def latency_metrics(per_config: Dict[str, List[float]], prefix: str) -> dict:
    """Geomean over configs of per-config rate, median and p90."""
    count = sum(len(values) for values in per_config.values())
    return {
        f"{prefix}_per_s": (
            config_geomean(per_config, lambda v: len(v) / sum(v)), "1/s", count,
        ),
        f"{prefix}_ms_p50": (
            config_geomean(per_config, statistics.median) * 1e3, "ms", count,
        ),
        f"{prefix}_ms_p90": (config_geomean(per_config, p90) * 1e3, "ms", count),
    }


def resident_mb() -> float:
    """Proportional set size of this process plus its live pool workers.

    PSS splits each shared page among the processes mapping it, so the
    shared-memory arena and pages a forked worker still shares with its
    parent are counted once rather than once per process.
    """
    import multiprocessing

    total_kb = 0
    for pid in ["self"] + [child.pid for child in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as rollup:
                for line in rollup:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def end_to_end_metrics(measurement: Measurement) -> dict:
    metrics = {}
    metrics.update(latency_metrics(measurement.samples["iter"], "iter"))
    metrics.update(latency_metrics(measurement.samples["capture"], "capture"))
    metrics["setup_s"] = (
        statistics.median(measurement.setups), "s", len(measurement.setups),
    )
    # The same figures as measured, before host-speed normalisation.
    for kind in ("iter", "capture"):
        for name, entry in latency_metrics(measurement.raw[kind], kind).items():
            metrics["raw." + name] = entry
    metrics["raw.setup_s"] = (
        statistics.median(measurement.raw_setups), "s", len(measurement.raw_setups),
    )
    sims = [sim / its for sim, its in measurement.sim.values() if its]
    metrics["sim_iter_per_s"] = (
        geomean(1.0 / value for value in sims) if sims else 0.0, "iter/sim_s",
        sum(its for _, its in measurement.sim.values()),
    )
    metrics["peak_rss_mb"] = (
        max(measurement.resident_mb, default=0.0), "MB", len(measurement.resident_mb),
    )
    metrics["failed_ratio"] = (
        len(measurement.failures) / max(1, measurement.attempted), "ratio",
        measurement.attempted,
    )
    return metrics


#: Layers whose self-time share the traced run reports, with the spans
#: each share sums.  Pool sends are spans of their own only so that they
#: can be counted against ``wire_requests``; their time is the pool's.
SHARE_LAYERS = {
    layer: (layer,)
    for layer in (
        "frontend", "fusion", "kernel", "trace", "scheduler", "superkernel",
        "opaque", "point", "generated", "wait",
    )
}
SHARE_LAYERS["procpool"] = ("procpool", "procpool.send")


def per_layer_metrics(measurement: Measurement, tracer, computed_mb: float) -> dict:
    """Per-layer metrics of the traced rounds, each as (value, unit, samples)."""
    spans = tracer.totals()

    def span(layer: str, phase: Optional[str] = None, field: int = 2) -> float:
        """Calls (0), total seconds (1) or self seconds (2) of a layer."""
        phases = (phase,) if phase else ("capture", "steady", "check")
        return sum(spans.get((p, layer), (0, 0.0, 0.0))[field] for p in phases)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def counted(phase: str, *keys: str) -> float:
        bucket = measurement.phase_counters.get(phase, {})
        return sum(bucket.get(key, 0) for key in keys)

    iterations = counted("steady", "iterations")
    epochs = counted("steady", "trace_hits")
    captures = measurement.captures_traced
    codegen = counted("capture", "codegen_compilations")
    memo = counted("capture", "memo_hits", "memo_misses")
    ms = 1e3
    metrics = {
        "frontend.tasks_per_iter": (
            ratio(counted("steady", "submitted_tasks"), iterations), "count"),
        "frontend.submit_self_ms_per_iter": (
            ratio(span("frontend", "steady") * ms, iterations), "ms"),
        "fusion.self_ms_per_capture": (
            ratio(span("fusion", "capture") * ms, captures), "ms"),
        "fusion.launch_ratio": (ratio(
            counted("steady", "total_index_tasks"),
            counted("steady", "total_constituent_tasks"),
        ), "ratio"),
        "fusion.memo_hit_ratio": (
            ratio(counted("capture", "memo_hits"), memo), "ratio"),
        "kernel.compile_self_ms_per_capture": (
            ratio(span("kernel", "capture") * ms, captures), "ms"),
        "kernel.codegen_compilations": (ratio(codegen, captures), "count"),
        "kernel.codegen_reuse_ratio": (ratio(
            counted("capture", "codegen_reuses"),
            counted("capture", "codegen_reuses", "codegen_compilations"),
        ), "ratio"),
        "trace.hit_ratio": (ratio(
            counted("all", "trace_hits"), counted("all", "trace_hits", "trace_misses")
        ), "ratio"),
        "trace.epochs_per_iter": (ratio(
            counted("steady", "trace_hits", "trace_misses"), iterations
        ), "count"),
        "trace.boundary_self_ms_per_epoch": (
            ratio(span("trace", "steady") * ms, epochs), "ms"),
        "scheduler.self_ms_per_epoch": (
            ratio(span("scheduler", "steady") * ms, epochs), "ms"),
        "scheduler.levels_per_epoch": (
            ratio(counted("steady", "plan_levels"), epochs), "count"),
        "scheduler.mean_width": (ratio(
            counted("steady", "plan_steps"), counted("steady", "plan_levels")
        ), "count"),
        "superkernel.calls_per_epoch": (
            ratio(counted("steady", "superkernel_calls"), epochs), "count"),
        "superkernel.self_ms_per_call": (ratio(
            span("superkernel", "steady") * ms, span("superkernel", "steady", 0)
        ), "ms"),
        "superkernel.lower_ms_per_plan": (ratio(
            span("superkernel.lower", field=1) * ms, counted("all", "trace_misses")
        ), "ms"),
        "replay.closure_calls_per_epoch": (
            ratio(counted("steady", "replay_closure_calls"), epochs), "count"),
        "opaque.calls_per_epoch": (ratio(
            counted("steady", "opaque_rank_calls", "opaque_chunk_calls"), epochs
        ), "count"),
        "opaque.self_ms_per_call": (ratio(
            span("opaque", "steady") * ms, span("opaque", "steady", 0)
        ), "ms"),
        "point.chunks_per_launch": (ratio(
            counted("steady", "point_chunks"), counted("steady", "point_launches")
        ), "count"),
        "point.process_chunk_ratio": (ratio(
            counted("steady", "point_process_chunks"), counted("steady", "point_chunks")
        ), "ratio"),
        "pool.wait_ms_per_epoch": (
            ratio(span("wait", "steady", 1) * ms, epochs), "ms"),
        "procpool.roundtrips_per_epoch": (
            ratio(span("procpool", "steady", 0), epochs), "count"),
        "procpool.wait_ms_per_epoch": (
            ratio(span("procpool", "steady", 1) * ms, epochs), "ms"),
        "procpool.wire_bytes_per_epoch": (
            ratio(counted("steady", "wire_bytes"), epochs), "B"),
        "shm.allocs_per_iter": (ratio(span("shm", "steady", 0), iterations), "count"),
        "kernel.computed_mb_per_iter": (computed_mb, "MB"),
        "sim.ms_per_iter": (geomean(
            sim / its * ms for sim, its in measurement.sim.values() if its
        ), "ms"),
    }
    # Shares are taken over the phase the workload's headline metrics
    # time: the captures of cold-capture, the steady slices otherwise.
    timed_phase = "capture" if measurement.workload.cold else "steady"
    timed_wall = measurement.phase_seconds.get(timed_phase, 0.0)
    for layer, layer_spans in SHARE_LAYERS.items():
        self_time = sum(span(name, timed_phase) for name in layer_spans)
        metrics[f"{layer}.self_share"] = (ratio(self_time, timed_wall), "ratio")
    headline = "capture" if measurement.workload.cold else "iter"
    untraced = config_geomean(measurement.samples[headline], p90)
    traced = config_geomean(measurement.samples["traced_" + headline], p90)
    metrics["trace_overhead_ratio"] = (ratio(traced, untraced), "ratio")
    return {name: (value, unit, 1) for name, (value, unit) in metrics.items()}


def span_counter_mismatches(
    measurement: Measurement, tracer, backend: str
) -> List[str]:
    """Wrapper call counts that disagree with the counters they shadow."""
    spans = tracer.totals()
    total = measurement.phase_counters.get("all", {})

    def calls(layer: str) -> int:
        return sum(entry[0] for (_, name), entry in spans.items() if name == layer)

    pairs = [
        ("PlanScheduler.execute calls", "scheduler", ("trace_hits",)),
        ("pool sends", "procpool.send", ("wire_requests",)),
    ]
    if backend == "thread":
        # On the process substrate super-kernel and opaque chunks also
        # run inside the workers, where the parent's wrappers cannot see
        # them.
        pairs.append(("super-kernel calls", "superkernel", ("superkernel_calls",)))
        pairs.append(
            ("opaque calls", "opaque", ("opaque_rank_calls", "opaque_chunk_calls"))
        )
    mismatches = []
    for what, layer, keys in pairs:
        seen = calls(layer)
        expected = sum(total.get(key, 0) for key in keys)
        if seen != expected:
            mismatches.append(f"{what} = {seen} but {' + '.join(keys)} = {expected}")
    return mismatches


def computed_megabytes(workload: Workload, seed: int) -> float:
    """Modelled kernel bytes of one post-warm-up iteration, geomean over configs.

    Replay charges the seconds recorded at capture and never re-evaluates
    the cost model, so one eager iteration with the launch caches off
    (every rank evaluates its cost) sums ``KernelCost.total_bytes``.
    """
    from repro import config as repro_config
    from repro.kernel.cost import KernelCost

    original = KernelCost.estimate_seconds
    moved = [0]

    def counting(self, element_counts, machine, itemsize=8):
        moved[0] += self.total_bytes(element_counts, itemsize)
        return original(self, element_counts, machine, itemsize)

    values = []
    os.environ.update({"REPRO_TRACE": "0", "REPRO_HOTPATH_CACHE": "0"})
    repro_config.reload_flags()
    try:
        for config in workload.configs:
            run = AppRun(config, _data_seed(workload, config, seed))
            try:
                run.app.run(4)
                moved[0] = 0
                KernelCost.estimate_seconds = counting
                try:
                    run.app.run(1)
                finally:
                    KernelCost.estimate_seconds = original
                values.append(moved[0] / 1e6)
            finally:
                run.close()
    finally:
        del os.environ["REPRO_TRACE"], os.environ["REPRO_HOTPATH_CACHE"]
        repro_config.reload_flags()
    return geomean(values)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def determinism_failures(measurement: Measurement) -> List[str]:
    failures = []
    for label, prints in measurement.fingerprints.items():
        for index, fingerprint in enumerate(prints[1:], start=2):
            if fingerprint != prints[0]:
                changed = sorted(
                    key for key in fingerprint if fingerprint[key] != prints[0][key]
                )
                failures.append(
                    f"{label}: round {index} differs from round 1 in {changed}"
                )
    return failures


def fingerprint_digest(measurement: Measurement) -> str:
    canonical = json.dumps(
        {label: prints[:1] for label, prints in measurement.fingerprints.items()},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _declared_metrics(kind: str) -> List[tuple]:
    """(name, unit) of every metric ``BENCHMARK.json`` declares under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return [(entry["name"], entry["unit"]) for entry in json.load(handle)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    configure_environment(workload)
    import_program()
    from repro import config as repro_config

    measurement = Measurement(workload)
    try:
        for config in workload.configs:
            measurement.attempted += 1
            try:
                seed = _data_seed(workload, config, args.seed)
                print("check", check_config(config, seed))
            except Exception as error:  # noqa: BLE001 - a failed check is counted
                measurement.failures.append(f"check {config.label}: {error}")
        tracer = run_rounds(
            workload, args.seed, args.seconds, bool(args.trace), measurement
        )
        failures = list(measurement.failures)
        failures += determinism_failures(measurement)
        metrics = end_to_end_metrics(measurement)
        if args.trace:
            failures += span_counter_mismatches(
                measurement, tracer, repro_config.dispatch_backend()
            )
            metrics.update(
                per_layer_metrics(
                    measurement, tracer, computed_megabytes(workload, args.seed)
                )
            )
    finally:
        retire_process_caches()

    for failure in failures:
        print("FAILED", failure)
    print("fingerprint", fingerprint_digest(measurement))
    for label, mib in measurement.working_set_mib.items():
        iterations = measurement.samples["iter"][label]
        captures = measurement.samples["capture"][label]
        if iterations and captures:
            print(
                f"config {label} iter_ms_p50 {statistics.median(iterations) * 1e3:.4g} "
                f"iter_ms_p90 {p90(iterations) * 1e3:.4g} (n={len(iterations)}) "
                f"capture_ms_p50 {statistics.median(captures) * 1e3:.4g} "
                f"(n={len(captures)}) working set {mib:.1f} MiB"
            )
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} samples={samples}")

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not failures,
        "attempted": measurement.attempted,
        "failed": min(measurement.attempted, len(failures)),
        # A run whose every app run failed has no figures; it still
        # reports every declared metric (as 0) next to ``correct: false``.
        "metrics": {
            name: {"value": metrics.get(name, (0.0,))[0], "unit": unit}
            for name, unit in declared
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
