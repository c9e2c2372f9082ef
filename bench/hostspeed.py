"""The host's current speed, from a fixed pure-Python kernel.

The benchmark runs on shared virtual machines whose speed moves by up to
about 1.8x within a second and drifts for minutes. Neither wall nor CPU
time of an operation is steady from run to run: the OS counts the lost
speed as the process's own CPU time. So while a run's operations execute,
the kernel is timed every ``SAMPLE_EVERY_S``: from a profiling-timer signal
that interrupts the operation (the kernel's time is taken out of the
operation's latency), and between operations for work done in child
processes. Each operation's time is then multiplied by ``REFERENCE_S``
over the mean of the samples taken while it ran (and around it, for a
short operation): the scaled time is what
the operation would have taken at the speed the kernel measures
``REFERENCE_S`` at. The raw times are kept in the run record.

The kernel never touches lettergraphs, so a change to the library moves the
scaled times exactly as it moves the raw ones. Its instruction mix (small
and n-bit integers, dicts, tuples, calls, a sort) is the library's. Keep
the kernel and ``REFERENCE_S`` fixed: changing either rescales every metric.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The kernel's typical time (the median of 35 runs' mean) on the host the
# first baseline was recorded on: a 2-vCPU Intel Xeon VM, Python 3.11.7.
REFERENCE_S = 0.0043
# Time between two kernel samples while operations run.
SAMPLE_EVERY_S = 0.1
# Fewest samples an operation's scale is taken from: an operation too short
# to hold two takes the ones just before and after it.
MIN_SAMPLES = 2


def _kernel() -> int:
    seen: dict = {}
    mask = 0
    acc = 0
    for i in range(3500):
        key = (i % 97, i ^ 5)
        seen[key] = seen.get(key, 0) + 1
        mask |= 1 << (i % 3000)
        acc += (mask >> (i % 2000)) & 0xFF
    rows = sorted(seen, key=lambda t: (t[1], t[0]))
    return acc + len({a for a, _ in rows}) + len(rows)


def sample() -> float:
    """Seconds one kernel run takes now. The garbage collector is held off
    meanwhile: a collection the kernel's allocations set off would time the
    interrupted operation's heap, not the host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside ``samples`` into times at
    the reference speed."""
    return REFERENCE_S / statistics.fmean(samples)


def op_scales(samples: list[float], bounds: list[tuple[int, int]]) -> list[float]:
    """The scale of each operation, from the kernel samples taken while it
    ran (``samples[n0:n1]`` for its ``(n0, n1)`` in ``bounds``), widened
    evenly on both sides to at least ``MIN_SAMPLES``."""
    out = []
    for n0, n1 in bounds:
        while n1 - n0 < MIN_SAMPLES and (n0 > 0 or n1 < len(samples)):
            n0, n1 = max(n0 - 1, 0), min(n1 + 1, len(samples))
        out.append(scale(samples[n0:n1]))
    return out


class Sampler:
    """Kernel samples taken while the ``with`` block runs: from a SIGPROF
    handler every ``SAMPLE_EVERY_S`` of the process's CPU time, and from
    ``tick`` between operations when as much wall time has passed, which
    covers work done in child processes. ``clock`` is
    ``time.perf_counter`` less the time spent sampling, so an interval
    measured on it is the interrupted work's own."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = time.perf_counter()
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # the signal arrived during a tick's sample
            return
        self._sampling = True
        try:
            t0 = time.perf_counter()
            self.samples.append(sample())
            self._last = time.perf_counter()
            self._spent += self._last - t0
        finally:
            self._sampling = False

    def tick(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self._sample()

    def __enter__(self):
        sample()  # the first run warms the interpreter's caches
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
