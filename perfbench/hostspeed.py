"""Host-speed sampling: scale a measured time to a fixed reference speed.

The benchmark runs on shared virtual CPUs whose speed changes by up to 2x
from one second to the next and stays slow for minutes at a time, with CPU
time equal to wall time.  Raw wall times of the same code therefore spread
more between runs than any useful regression bound.  While a timed interval
runs, a SIGALRM timer interrupts the process every PERIOD_S seconds and runs
a fixed kernel of small-array numpy calls that shares nothing with qslkit,
twice: the first call warms the caches the program has just filled, and only
the second is timed, so that the sample reads the host's speed and not the
program's working set.  Samples come at even steps of wall time, so their
mean is the host's time-weighted speed over the interval, and

    scaled = (elapsed - time spent in the handler) * REF_KERNEL_S / mean kernel time

is the interval's time at the speed where the kernel takes REF_KERNEL_S.  In
ten runs per workload on the development VM, the run medians spread 4-7%
(IQR / median) scaled, where the same runs spread 9-25% as measured.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
# Nominal warm kernel time, about its median on the development VM (31 us at
# the quietest, 300 us at worst).  It fixes the scale of scaled times only.
REF_KERNEL_S = 6.0e-5


_PHASES = np.linspace(0.0, 1.0, 8) * 1j


def _kernel() -> float:
    # The program's hot loops make many numpy calls on arrays of a few
    # points; a kernel like them slows down with the host as they do.
    acc = 0.0
    for i in range(10):
        acc += float(np.abs(np.exp(_PHASES * (i + 1))).sum())
    return acc


class Sampler:
    """Times the warm kernel on every timer tick.

    It keeps running totals only (ticks, kernel time, handler time), so the
    handler holds no memory between ticks and cannot shift the program's
    peak resident memory.
    """

    def __init__(self) -> None:
        self.ticks = 0
        self.kernel_s = 0.0
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.ticks += 1
        self.kernel_s += t2 - t1
        self.spent_s += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def totals(self) -> dict:
        return {"ticks": self.ticks, "kernel_s": self.kernel_s, "spent_s": self.spent_s}


def between(start: dict, end: dict) -> dict:
    """The ticks that fell between two `Sampler.totals`."""
    return {k: end[k] - start[k] for k in start}


def merge(parts: list[dict]) -> dict:
    return {k: sum(p[k] for p in parts) for k in ("ticks", "kernel_s", "spent_s")}


def unsampled(elapsed: float, ticks: dict) -> float:
    """`elapsed` without the handler's own time."""
    return elapsed - ticks["spent_s"]


def scaled(elapsed: float, ticks: dict) -> float:
    """`elapsed` without the handler's own time, at the reference speed."""
    if not ticks["ticks"]:
        raise RuntimeError(f"no host-speed sample in a {elapsed:.4f} s interval")
    mean_kernel_s = ticks["kernel_s"] / ticks["ticks"]
    return unsampled(elapsed, ticks) * REF_KERNEL_S / mean_kernel_s
