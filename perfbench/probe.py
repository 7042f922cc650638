"""Host-speed sampling for rescaling measured times to a nominal host speed.

On a 2-vCPU x86_64 virtual machine that shares its host with other tenants,
the same job list ran 50% slower in one run than in another a few minutes
earlier, so raw wall times differ between runs more than any bound worth
setting.  A :class:`SampledTimer` times a block of work and, while it runs,
samples the host's speed: :func:`speed_probe` runs before the block, after
it, and from a SIGALRM handler every INTERVAL_S inside it.  The block's
time, less the probes inside it, divided by the mean probe time and
multiplied by NOMINAL_S, is its time at a host speed where the probe takes
NOMINAL_S.  On that machine, over six seeds each of three workloads, this
cut the spread of run times (quartile distance over median) from 0.11-0.25
to 0.06-0.08.  A signal is handled only between bytecodes, so a long numpy
call delays the samples inside it but not its timing.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0005
INTERVAL_S = 0.05
_LOOP = 5_000
_SMALL = np.random.default_rng(1).standard_normal((8, 3))
_MAP = np.random.default_rng(2).standard_normal((4, 3))


def _probe_work() -> None:
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    for _ in range(10):
        np.max(np.linalg.norm(_SMALL @ _MAP.T, axis=1))


def speed_probe() -> float:
    """Seconds the fixed probe work takes with its code and data cached.

    The work runs twice and only the second run is timed, so the reading
    follows the host's speed and not what the interrupted job left in the
    caches (about NOMINAL_S).
    """
    _probe_work()
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class SampledTimer:
    """Times blocks of work with host-speed samples taken during each block.

    One timer per process: it owns the SIGALRM handler, which samples only
    while a block is being timed.
    """

    def __init__(self):
        self.samples: list = []
        self.active = False
        self._start = 0.0
        self._inside = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            self.samples.append(speed_probe())
            self._inside += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [speed_probe()]
        self._inside = 0.0
        self._start = time.perf_counter()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple:
        """(wall seconds, seconds at nominal host speed) of the block."""
        self.active = False
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.samples.append(speed_probe())
        work = end - self._start - self._inside
        return work, work * NOMINAL_S / statistics.fmean(self.samples)
