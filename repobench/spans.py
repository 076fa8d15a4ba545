"""Layer spans recorded from outside the program, by monkeypatching.

Each wrapped entry point is replaced, where its callers look it up, by a
function that records one span around the original call: its count,
its total duration, and its *self* time, which is the duration minus
the part covered by spans of other wrapped entry points it called on
the same thread.  Spans are bucketed by the tracer's current phase
(``capture`` while an app is set up, ``steady`` while it is timed), so
per-capture and per-epoch figures come from the calls made where the
work happens.

Spans nest per thread.  Work a span hands to a pool thread is recorded
on that thread, so the caller's self time includes the time it waited
for the pool; self times of different threads may add up to more than
the wall time.  Nothing here takes a lock: every thread writes its own
table and :meth:`Tracer.totals` merges them, so forked pool workers can
never inherit a held lock.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (phase, layer) -> [calls, total seconds, self seconds]
Table = Dict[Tuple[str, str], List[float]]


class Tracer:
    """Installs wrappers around layer entry points and sums their spans."""

    def __init__(self) -> None:
        self.phase = "capture"
        self._local = threading.local()
        self._tables: List[Table] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            self._tables.append(local.table)
        return local

    def wrap(self, layer: str, original: Callable) -> Callable:
        """A span-recording wrapper around ``original``."""
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                key = (self.phase, layer)
                entry = state.table.get(key)
                if entry is None:
                    entry = state.table[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children

        return wrapper

    def patch(self, owner: object, name: str, layer: str) -> None:
        """Replace ``owner.name`` by a span-recording wrapper."""
        self.replace(owner, name, self.wrap(layer, getattr(owner, name)))

    def replace(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name`` to ``value`` until :meth:`restore`."""
        # Class attributes are read from ``__dict__`` so static and class
        # methods are restored exactly as they were.
        saved = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, saved))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        for owner, name, saved in reversed(self._patches):
            setattr(owner, name, saved)
        self._patches.clear()

    # ------------------------------------------------------------------
    def totals(self) -> Table:
        """Merged ``(phase, layer) -> [calls, total s, self s]`` table."""
        merged: Table = {}
        for table in list(self._tables):
            for key, (calls, total, self_time) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
        return merged


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports.

    Public entry points where the program has them, private ones where
    it has none.  Layer names follow the repository's modules.
    Module-level functions are patched in the module that calls them,
    because callers bound the name at import time.
    """
    from concurrent.futures import Future

    from repro.frontend.legate.context import RuntimeContext
    from repro.fusion.engine import DiffuseRuntime
    from repro.kernel import codegen
    from repro.kernel.compiler import JITCompiler
    from repro.runtime import executor, opaque, procpool, scheduler, shm
    from repro.runtime.executor import TaskExecutor
    from repro.runtime.runtime import LegionRuntime
    from repro.runtime.trace import TraceController

    # Waiting on the shared thread pool is its own span, so the layers
    # that hand work to the pool keep only the time they work.
    tracer.patch(Future, "result", "wait")
    tracer.patch(RuntimeContext, "submit", "frontend")
    # Under tracing, fusion analysis runs when a captured epoch is fed
    # through the window; ``flush_window`` only forwards to the trace
    # boundary, so the window entry points carry the fusion layer.
    tracer.patch(DiffuseRuntime, "window_submit", "fusion")
    tracer.patch(DiffuseRuntime, "drain_window", "fusion")
    # Captured epochs execute their launches eagerly; this span keeps
    # that execution out of the fusion layer's self time.
    tracer.patch(LegionRuntime, "submit", "eager")
    tracer.patch(JITCompiler, "compile", "kernel")
    tracer.patch(TraceController, "boundary", "trace")
    tracer.patch(scheduler.PlanScheduler, "execute", "scheduler")
    tracer.patch(scheduler, "maybe_lower_plan", "superkernel.lower")
    tracer.patch(scheduler, "run_superkernel_ranks", "superkernel")
    # Generated kernel bodies: every compiled closure, per-task or fused
    # super-kernel, comes out of the codegen closure cache, so the
    # closures are wrapped as they are handed out.
    compile_source = codegen._compile_source

    def traced_compile_source(source, kernel_name):
        function, fresh = compile_source(source, kernel_name)
        return tracer.wrap("generated", function), fresh

    tracer.replace(codegen, "_compile_source", traced_compile_source)
    # Point dispatch: thread chunks go through ``dispatch_chunks``;
    # process chunks through the executor's chunk routes, which have no
    # public name.
    tracer.patch(executor, "dispatch_chunks", "point")
    tracer.patch(scheduler, "dispatch_chunks", "point")
    for method in (
        "_process_chunks_compiled", "_process_chunks_resident",
        "_process_chunks_opaque", "_process_chunks_resident_opaque",
    ):
        tracer.patch(TaskExecutor, method, "point")
    for method in ("run_chunks", "run_opaque_chunks", "run_resident_chunks"):
        tracer.patch(procpool.ProcessWorkerPool, method, "procpool")
    tracer.patch(procpool.ProcessWorkerPool, "_send", "procpool.send")
    tracer.patch(procpool.ProcessWorkerPool, "_send_raw", "procpool.send")
    tracer.patch(shm.SharedArena, "allocate", "shm")
    registry = opaque.default_opaque_registry()
    for name in registry.registered_names():
        impl = registry.get(name)
        tracer.patch(impl, "execute", "opaque")
        if impl.chunk is not None:
            tracer.patch(impl.chunk, "execute", "opaque")
