"""Host-speed probes that run beside the program, to scale its timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 40 % within seconds and between minutes, with CPU time equal to wall time
throughout: the process is not descheduled, the host just runs it slower.
So each timed call runs three small fixed probes on a ``SIGALRM`` timer:
an integer loop, small numpy operations, and dict and list building. Each
probe runs twice and only the second, warm run is timed, so what the
program left in the caches moves the probe less. Their time is taken out
of the call's time, and their trimmed means give the host's speed during the
call relative to ``REFERENCE_S``. A timing scaled by that factor reads in
seconds at the reference speed, and stays put when the host's speed drifts.
The probes do not import the program, so a change to it does not move them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.04  # one probe per tick, so about 2 % of a call's time

_SMALL = np.arange(64, dtype=np.int64)
_PERM = (np.arange(64, dtype=np.int64) * 7) % 64


def _int_loop() -> int:
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


def _small_numpy() -> int:
    s = 0
    for _ in range(40):
        a = _SMALL[_PERM]
        s += int(((a + _SMALL) % 13).sum())
    return s


def _dict_build() -> int:
    d = {}
    for i in range(1500):
        d[(i, i & 7)] = [i]
    return len(d)


PROBES = (_int_loop, _small_numpy, _dict_build)
# About each probe's median time on a 2-core x86-64 host with Python 3.11
# and numpy 2.4; they only fix the unit of the scaled times.
REFERENCE_S = (0.40e-3, 0.20e-3, 0.62e-3)


def _trimmed_mean(xs, cut: float = 0.1) -> float:
    """Mean of ``xs`` without its highest and lowest tenth.

    A call's time adds up the host's slowness over the call, so the probes'
    mean tracks it better than their median; trimming keeps a probe that
    the kernel interrupted from pulling the mean.
    """
    xs = sorted(xs)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k : len(xs) - k])


def factor(samples) -> float:
    """Reference speed over the host's speed, from each probe's samples."""
    return math.prod(
        ref / _trimmed_mean(s) for ref, s in zip(REFERENCE_S, samples)
    ) ** (1 / len(PROBES))


def pooled_factor(timings) -> float:
    """One factor from the probe samples of several calls."""
    return factor([[x for t in timings for x in t.samples[i]] for i in range(len(PROBES))])


@dataclass(frozen=True)
class Timing:
    raw: float  # wall time of the call, probe time taken out
    samples: tuple[tuple[float, ...], ...]  # probe times, one tuple per probe

    @property
    def factor(self) -> float:
        return factor(self.samples)

    @property
    def scaled(self) -> float:
        return self.raw * self.factor


def timed(fn, interval: float | None = INTERVAL_S):
    """Run ``fn()``; return its result and its ``Timing``.

    One round of probes runs just before and one just after the call, so
    every probe has samples however short the call; with ``interval`` set,
    a further probe runs every ``interval`` seconds during it.
    """
    samples: list[list[float]] = [[] for _ in PROBES]
    ticks = 0
    spent = 0.0

    def probe(i: int) -> float:
        t0 = time.perf_counter()
        PROBES[i]()  # warm-up, untimed
        t1 = time.perf_counter()
        PROBES[i]()
        t2 = time.perf_counter()
        samples[i].append(t2 - t1)
        return t2 - t0

    def on_tick(signum, frame):
        nonlocal ticks, spent
        i = ticks % len(PROBES)
        ticks += 1
        spent += probe(i)

    for i in range(len(PROBES)):
        probe(i)
    previous = signal.getsignal(signal.SIGALRM)
    if interval:
        signal.signal(signal.SIGALRM, on_tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        if interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    for i in range(len(PROBES)):
        probe(i)
    return result, Timing(raw, tuple(tuple(s) for s in samples))
