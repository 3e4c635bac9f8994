"""A reference clock for a shared host whose speed drifts.

On a shared two-core host (Xeon vCPUs at 2.1 GHz) the same checklist pass
was measured at 630 to 1070 ms within one minute, drifting smoothly over
seconds.  ``SpeedProbe`` samples the host's speed while a workload runs: a
timer signal every ``PERIOD_S`` runs a fixed piece of stdlib-only reference
work (it never touches kwall) in the workload's own thread and times it, with
the garbage collector held off so that kwall's heap does not enter it.  Each
measured interval is then scaled by ``NOMINAL_S / mean(reference time)`` over
the samples taken within ``WINDOW_S`` of it: it reads as a time on a host that
runs the reference in ``NOMINAL_S``.  A change to kwall moves the scaled
times in the same proportion as the raw ones, to within the few percent by
which single raw pairs scatter (the calibration is in DESIGN.md).

The probe's own time is excluded from the workload's measured intervals
(``start``/``lap``), and it is paused around child processes, which run on
another core and must not be delayed by it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.03
WINDOW_S = 0.5
SAMPLES_AFTER_CHILD = 3
# mean duration of reference_work() on the host described above when quiet
NOMINAL_S = 0.0026

_now = time.perf_counter


def reference_work() -> Fraction:
    """Fixed exact-arithmetic work shaped like kwall's: Fractions, tuples, a dict."""
    acc = Fraction(0)
    pts = []
    for k in range(1, 250):
        q = Fraction(k, k + 7)
        acc += q * q - Fraction(1, k)
        pts.append((q, acc.denominator % 97))
    sums: dict[int, Fraction] = {}
    for q, r in pts:
        sums[r] = sums.get(r, Fraction(0)) + q
    return acc


class SpeedProbe:
    """Samples reference work on a timer while active (``with probe:``) and
    turns measured intervals (laps) into reference time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, reference duration)
        self.laps: list[tuple[float, float, float]] = []  # (start, end, own time excluded)
        self._busy = 0.0  # total time spent inside the probe
        self._mask = {signal.SIGALRM}

    def _tick(self, signum, frame) -> None:
        # no collection may start inside the sample: it would walk kwall's heap
        collecting = gc.isenabled()
        gc.disable()
        t0 = _now()
        reference_work()
        dt = _now() - t0
        if collecting:
            gc.enable()
        self.samples.append((t0, dt))
        self._busy += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _read(self) -> tuple[float, float]:
        held = signal.pthread_sigmask(signal.SIG_BLOCK, self._mask)
        mark = (_now(), self._busy)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        return mark

    def start(self) -> tuple[float, float]:
        return self._read()

    def lap(self, mark: tuple[float, float]) -> float:
        """Record the interval since ``mark``; returns its seconds minus the probe's own time."""
        t, busy = self._read()
        raw = (t - mark[0]) - (busy - mark[1])
        self.laps.append((mark[0], t, raw))
        return raw

    @contextlib.contextmanager
    def paused(self):
        """Hold the timer signal around a child process; sample right after it,
        since no sample can be taken while it runs."""
        signal.pthread_sigmask(signal.SIG_BLOCK, self._mask)
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, self._mask)
            for _ in range(SAMPLES_AFTER_CHILD):
                self._tick(None, None)

    def factors(self) -> list[float]:
        """Per lap, the factor that turns its seconds into reference seconds,
        from the samples taken within ``WINDOW_S`` of it."""
        when = [t for t, _ in self.samples]
        out = []
        for t0, t1, _ in self.laps:
            near = self.samples[bisect.bisect_left(when, t0 - WINDOW_S):bisect.bisect_right(when, t1 + WINDOW_S)]
            out.append(NOMINAL_S / statistics.fmean(dt for _, dt in near or self.samples))
        return out
