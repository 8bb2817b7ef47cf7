"""Speed probes: fixed work timed while a job runs, to rescale the job's time.

The shared host the benchmark was written on flips between speeds about
1.6x apart within seconds and drifts over minutes, so the same job's time
varies by tens of percent from run to run.  A SIGALRM timer runs a probe
every PROBE_INTERVAL_S between two bytecodes of the job; the probes see the
speed the job ran at, and their own time is taken out of the job's time.
See NOTES.md ("Speed probes") for the measurements behind the two kinds.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.02  # a probe is taken this often while a job runs
PROBE_NOMINAL_S = 8e-5   # about the median probe of either kind on the machine of NOTES.md
MIN_PROBES = 10          # fewer probes than this in a job: use those of the whole run
_XS = [math.sin(0.37 * i) for i in range(100)]
_A = np.linspace(0.0, 1.0, 64)


def _interpreted(acc: float) -> float:
    for x in _XS:
        acc = 0.5 * acc + x * x
    return acc


def _small_numpy(acc: float) -> float:
    for _ in range(2):
        acc = float(np.maximum(_A, acc % 1.0).sum())
    return acc


def interpreted_probe() -> float:
    """Interpreted float arithmetic only, like the pure-Python hull kernel.

    For the solves: the time of a numpy call depends on what the solve left
    in the caches, so small numpy calls would measure the job, not the host.
    """
    acc = 0.0
    for _ in range(12):
        acc = _interpreted(acc)
    return acc


def mixed_probe() -> float:
    """Interpreted arithmetic and small numpy calls, about half the time each.

    For the Monte Carlo certificates, whose replications are small numpy
    calls between interpreted steps: some host slowdowns hit numpy calls
    harder than the interpreter, and an interpreted-only probe misses them.
    """
    acc = 0.0
    for _ in range(4):
        acc = _small_numpy(_interpreted(acc))
    return acc


class SpeedProbes:
    """Times ``probe`` every PROBE_INTERVAL_S of wall time while a job runs."""

    def __init__(self, probe):
        self.probe = probe
        self.times: list[float] = []
        self.last: list[float] = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        self.probe()
        self.times.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    @contextlib.contextmanager
    def during_job(self):
        """Probe while the block runs; ``last`` then holds its probe times."""
        start = len(self.times)
        self.start()
        try:
            yield
        finally:
            self.stop()
            self.last = self.times[start:]

    def pad(self):
        """Probe back to back until MIN_PROBES probes were taken in all."""
        while len(self.times) < MIN_PROBES:
            self._probe(None, None)

    def normalized(self, walls: list[float], per_job: list[list[float]]) -> list[float]:
        """Each job's time rescaled by the probes taken while it ran.

        A job whose native calls held the interpreter so long that it took
        fewer than MIN_PROBES probes is rescaled by the probes of the whole
        run, padded after the jobs when even those are too few.
        """
        self.pad()
        return [rescale(wall, ps if len(ps) >= MIN_PROBES else self.times)
                for wall, ps in zip(walls, per_job)]


def rescale(seconds: float, probe_times: list[float]) -> float:
    """``seconds`` on a host where a probe takes PROBE_NOMINAL_S."""
    return seconds * statistics.fmean(PROBE_NOMINAL_S / p for p in probe_times)
