"""Times scaled to a reference host speed.

On a host that shares its cores with other tenants, such as the 2-CPU
VM the benchmark was written on, the speed of one core changes by up to
1.7x within seconds: there the same pure-Python loop took 22 ms in one
second and 34 ms in the next, in CPU time as much as in wall time (see
METRICS.md).  An absolute latency then measures the neighbours more
than the engine.

So every measured stretch of engine work is bracketed by two *probes*:
each runs a fixed kernel, which shares no code with the engine, a few
times and keeps its fastest time.  The stretch is divided by the mean of
the two probes and multiplied by :data:`NOMINAL_S`: the result is the
time the work would have taken at the speed at which the kernel takes
:data:`NOMINAL_S`.  A change that makes the engine faster moves it as it
moves wall time; a host that slows down moves the probes with it.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time at the reference speed: about its fastest time on
#: the 2-CPU VM the benchmark was written on.  Scaled times therefore
#: read close to that VM's uncontended wall times.
NOMINAL_S = 0.32e-3

#: Kernel runs per probe; the fastest one counts.
PROBE_RUNS = 3

_RNG = np.random.default_rng(0)
_MATRIX = np.eye(12) * 3.0 + _RNG.random((12, 12))
_VECTOR = np.ones(12)


def kernel() -> float:
    """Small numpy calls from a Python loop, as the engine makes them.
    Of the kernels tried (this one; pivots on a dense 120 x 240 tableau
    and on a 104 x 32 one; a pure-Python dictionary loop; a strided walk
    over a 4 MiB array; and mixes of these), this one's slowdowns
    tracked those of the engine's queries on all three workloads best;
    see METRICS.md."""
    s = 0.0
    for _ in range(40):
        x = np.linalg.solve(_MATRIX, _VECTOR)
        s += float(x @ x)
    return s


def probe() -> float:
    """The kernel's current time, in seconds."""
    fastest = float("inf")
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        kernel()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


class Clock:
    """Scales consecutive stretches of measured time.

    Probe once at creation; then, after each stretch, :meth:`scale`
    probes again and scales the stretch by the mean of the probe before
    it and the probe after it.  The probes are never inside a stretch."""

    def __init__(self):
        self.last = probe()

    def scale(self, seconds: float) -> float:
        now = probe()
        scaled = seconds * NOMINAL_S * 2.0 / (self.last + now)
        self.last = now
        return scaled
