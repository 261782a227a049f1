"""Host-speed calibration: a frozen kernel timed between the program's steps.

The benchmark runs on a shared host whose speed drifts by 10-30% over
seconds and minutes, in CPU time as much as in wall time. Every timing the
benchmark reports is therefore scaled to a reference host speed:

    adjusted = sum over the stretches of the interval between bursts of
               stretch * CAL_REF_S / (burst time around the stretch)

A *burst* is one call of `kernel`, which mixes the three regimes dgmg runs
in: array arithmetic with temporaries on fields the size of a bubble FV
grid, a stream over a vector that fits the L2 cache, and the same
arithmetic on many tiny arrays, where numpy's fixed per-call cost
dominates (as on the coarse grids). The host's slowdowns come from
neighbours contending for caches and memory. On recorded 240 s runs of
every workload, scaling by this mix cut the quartile spread of 30 s
window medians of the step time from 0.07-0.25 of the median to
0.03-0.06; no single regime did as well on all workloads. The kernel is
part of the benchmark, not of dgmg, so a change to dgmg cannot move it;
it must never change, or adjusted timings stop comparing across commits.
`CAL_REF_S` is the median burst time on the host the benchmark was tuned
on (Intel Xeon, Python 3.11.7, numpy 2.4.6), so adjusted values read as
seconds on that host at its typical speed.

Bursts run at step boundaries and between the Jacobian-vector products of
implicit steps (child.py). Their time is subtracted from every timed
interval that holds them, so they do not change what is measured.
`Calibrator.due` keeps them to `SHARE` of the elapsed time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of one burst on the reference host.
CAL_REF_S = 2.5e-3
# Share of the run spent in bursts.
SHARE = 0.05
# A burst's speed is the median over it and this many neighbours on each
# side.
SMOOTH = 5
# Untimed bursts before the first timed one: the first calls run cold.
WARMUP = 20

_rng = np.random.default_rng(20250530)
# Four fields on the 160x80 finest FV grid of the bubble workloads, a
# 0.5 MB vector streamed through the caches, and 48 arrays the size of a
# coarse-grid field.
_FIELDS = [_rng.random((160, 80)) for _ in range(4)]
_STREAM = _rng.random(60_000)
_OUT = np.empty_like(_STREAM)
_TINY = [_rng.random((16, 4)) for _ in range(48)]


def kernel() -> None:
    for _ in range(3):
        a, b, c, d = _FIELDS
        e = np.sqrt(a * a + b * b) + c
        f = np.where(e > 1.0, e, d)
        (f[1:] - f[:-1]).sum(axis=0)
    for _ in range(30):
        np.multiply(_STREAM, 1.0001, out=_OUT)
        np.add(_OUT, _STREAM, out=_OUT)
    for a in _TINY:
        b = np.sqrt(a * a + 1.0)
        c = np.where(b > 1.2, b, a)
        c.sum(axis=1)
        np.maximum(a, c)


class Calibrator:
    """Runs bursts on request and keeps (start, duration) of each."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total_s = 0.0
        for _ in range(WARMUP):
            kernel()
        self.origin = time.perf_counter()

    def burst(self) -> float:
        clock = time.perf_counter
        t0 = clock()
        kernel()
        dt = clock() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        self.total_s += dt
        return dt

    def due(self) -> None:
        """Run bursts while they make up less than SHARE of the time since
        the calibrator was made."""
        while self.total_s < SHARE * (time.perf_counter() - self.origin):
            self.burst()


class HostSpeed:
    """The host speed over a run, from the bursts recorded in it.

    Each burst's speed is the median duration of it and its SMOOTH
    neighbours on each side. `adjust` integrates an interval's time
    outside the bursts, stretch by stretch between consecutive bursts,
    each stretch at the mean speed of the two bursts around it.
    """

    def __init__(self, starts: list[float], durations: list[float]):
        if not durations:
            raise ValueError("no calibration bursts recorded")
        n = len(durations)
        self.starts = starts
        self.ends = [s + d for s, d in zip(starts, durations)]
        self.speeds = [statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
                       for i in range(n)]

    def adjust(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] outside the bursts, at the reference speed."""
        starts, ends, speeds = self.starts, self.ends, self.speeds
        i = bisect.bisect_left(starts, t0)
        stop = bisect.bisect_left(starts, t1)
        last = len(speeds) - 1
        cur, cur_speed = t0, speeds[max(i - 1, 0)]
        total = 0.0
        for j in range(i, stop):
            total += (starts[j] - cur) * 2.0 / (cur_speed + speeds[j])
            cur, cur_speed = ends[j], speeds[j]
        total += (t1 - cur) * 2.0 / (cur_speed + speeds[min(stop, last)])
        return total * CAL_REF_S
