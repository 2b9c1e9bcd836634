"""Wall time corrected for the host's momentary CPU speed.

On a shared virtual machine the same Python work can take up to twice as
long from one second to the next, because other tenants load the physical
core; CPU time tracks wall time, so the process is not descheduled, it runs
slower.  Intervals of a few seconds then spread by tens of per cent, which
swamps any code change worth measuring.

``SpeedProbe`` runs a background thread in the measured process that, about
every switch interval, times a short fixed run of exact-fraction arithmetic,
the kind of work the checks do (a pure bytecode loop tracked the checks'
slowdown about half as well).  The process must be pinned to one CPU, so
that the probe runs on the core whose speed it stands for.  The probe's
speed (1 / its duration) is the core's speed at that moment.  The work done
in an interval [a, b] is the integral of that speed, and
``Normalizer.normalized(a, b)`` reports it as the time the interval would
have taken on a core where the probe takes ``REFERENCE_PROBE_S`` (an
unloaded core of the machine the baselines were taken on).  A slow phase
thus stretches both the interval and the probe, and cancels.  The speed is
averaged over at least ``MIN_WINDOW_S`` around the interval, so that a
short check still sees a few dozen probes; slow phases last about a second.
The probe holds the interpreter lock for about 80 microseconds every 7
milliseconds, a steady 1-2 % of the run.
"""

from __future__ import annotations

import bisect
import threading
import time
from fractions import Fraction
from itertools import repeat
from typing import List, Sequence

_PROBE_LOOPS = 32
_PAUSE_S = 0.002
REFERENCE_PROBE_S = 80e-6
MIN_WINDOW_S = 0.2
_A, _B, _C = Fraction(3, 7), Fraction(-5, 11), Fraction(2, 3)


def _probe() -> None:
    for _ in repeat(None, _PROBE_LOOPS):
        _A * _B + _C


class SpeedProbe:
    """Collects [start, duration] probe samples while the context is open."""

    def __init__(self) -> None:
        self.samples: List[List[float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock, samples, stop = time.perf_counter, self.samples, self._stop
        while not stop.is_set():
            time.sleep(_PAUSE_S)
            t0 = clock()
            _probe()
            samples.append([t0, clock() - t0])


class Normalizer:
    """Speed-normalized intervals for one process's probe samples."""

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        if not samples:
            raise RuntimeError("the speed probe took no samples")
        self._starts = [t for t, _ in samples]
        self._speeds = [REFERENCE_PROBE_S / d for _, d in samples]

    def speed(self, start: float, end: float) -> float:
        """Mean relative core speed over [start, end] (1.0 = reference)."""
        pad = max(MIN_WINDOW_S - (end - start), 0.0) / 2
        start, end = start - pad, end + pad
        lo = max(bisect.bisect_left(self._starts, start) - 1, 0)
        hi = min(bisect.bisect_right(self._starts, end) + 1, len(self._starts))
        window = self._speeds[lo:hi]
        return sum(window) / len(window)

    def normalized(self, start: float, end: float) -> float:
        return (end - start) * self.speed(start, end)
