"""Host-speed probes: divide the shared host's speed phases out of timings.

The reference host is shared with other tenants, and its speed moves in
phases of one to several seconds: a fixed pure-Python loop runs between
about 1.0x and 1.6x its fastest time, and whole runs can fall in a slow
stretch.  Thread CPU time inflates with wall time, so it cannot tell the
phases apart, but a fixed probe timed close to the work can.

The probes run only while no program state is alive: before and after
every app run, with the closure cache emptied, the pools retired and
garbage collected (``run.clean_probes``).  A probe interleaved with the
app's iterations would also time what the app does to it: right after
a CG iteration at 64 ranks the dict probe took twice as long as a moment
later, because the iteration had pushed its table out of cache.  Dividing
by such probes counts part of the program's cost as host slowness, and a
change that shrank the program's footprint would look slower.

Each workload uses the probe whose bottleneck matches its own:

- ``interpreter`` looks up and boxes entries of a 200k-entry dict, the
  pointer-chasing, allocation-heavy kind of work the runtime does per
  task;
- ``numpy`` sums a strided 4 MiB array, memory-bound like the stencil
  kernels.

A timing is normalised by the median of the probes on both sides of its
app run: ``normalised = measured * (reference / median(probes)) ** e``,
the time the work would take at the speed where the probe runs in its
reference time.  The elasticity ``e`` is how strongly the workload's
apps follow the probe: a phase that made the dict probe 1.7-1.9x slower
made CG at 64 ranks only 1.36x slower, and fitting ``log(time)`` on
``log(probe)`` gave 0.6 on every Krylov app and 0.34-0.95 over the apps
at large.  With ``e = 1`` a run's figure would move with the share of
its app runs that fell in slow phases.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, Sequence

import numpy as np


class Probe:
    """A fixed piece of work, timed, with its time on the reference host."""

    def __init__(self, work: Callable[[], object], reference_seconds: float) -> None:
        self._work = work
        self.reference_seconds = reference_seconds

    def __call__(self) -> float:
        """Seconds the work takes right now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def speed_factor(self, probes: Sequence[float], elasticity: float) -> float:
        """Multiplier mapping times measured near ``probes`` to reference speed."""
        return (self.reference_seconds / statistics.median(probes)) ** elasticity


def _interpreter_probe() -> Probe:
    rng = random.Random(0)
    table = {key: (key, str(key)) for key in range(200_000)}
    keys = [rng.randrange(200_000) for _ in range(400)]

    class Box:
        __slots__ = ("first", "second")

        def __init__(self, value) -> None:
            self.first = value
            self.second = value + 1

    def work():
        out = []
        for key in keys:
            entry = table[key]
            box = Box(entry[0])
            out.append((box.first, box.second, entry[1]))
        return out

    return Probe(work, reference_seconds=250e-6)


def _numpy_probe() -> Probe:
    array = np.random.default_rng(0).random(1 << 19)
    return Probe(lambda: float(array[::7].sum()), reference_seconds=170e-6)


#: Probe factories by name; built on first use, outside any timed span.
PROBES: Dict[str, Callable[[], Probe]] = {
    "interpreter": _interpreter_probe,
    "numpy": _numpy_probe,
}
