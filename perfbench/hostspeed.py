"""Wall time corrected for the host's own changes of speed.

On a shared virtual machine the same single-threaded work can take 1.8 times
as long from one second to the next, in phases that last seconds to minutes,
with no steal time reported and CPU time rising with wall time. A figure
timed across such phases says more about the neighbours than about the code.

``HostClock`` times a region of work and also reports it scaled to a nominal
host speed. While it runs, a ``SIGALRM`` handler times a short fixed
reference loop every ``INTERVAL_S``. Each stretch of work between two samples
is scaled by ``NOMINAL_S`` ÷ the mean of the two samples around it; the
handler's own time is left out of both figures. The reference loop does the
kind of work the package does (dict updates, tuple lists, a sort), so it
slows down with it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
# About the reference loop's time at full speed on a 2-vCPU Linux VM (2.0 GHz,
# CPython 3.11) when it runs between stretches of mining. Its time there
# depends on what the work left in the caches, so scaled seconds are a unit
# for comparing runs of the same workload, not a prediction of wall time.
NOMINAL_S = 0.4e-3


def reference_loop() -> float:
    table: dict[int, float] = {}
    rows = []
    acc = 0.0
    for i in range(1000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        rows.append((k, acc))
        acc += table[k] * 1e-9
    rows.sort()
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class HostClock:
    """``with HostClock() as clock:`` then ``clock.raw_s`` and ``clock.scaled_s``.

    With ``sample=False`` nothing is installed and ``scaled_s`` equals
    ``raw_s``. The handler re-arms a one-shot timer, so it never nests.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.raw_s = self.scaled_s = 0.0
        self.samples = 0
        self._ref = self._mark = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        if self.sample:
            self._ref = time_reference()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._mark = time.perf_counter()
        return self

    def _sample(self) -> None:
        work = time.perf_counter() - self._mark
        ref = time_reference()
        self.raw_s += work
        self.scaled_s += work * NOMINAL_S * 2.0 / (self._ref + ref)
        self.samples += 1
        self._ref = ref
        self._mark = time.perf_counter()

    def _tick(self, *_) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __exit__(self, *exc) -> None:
        if not self.sample:
            self.raw_s = self.scaled_s = time.perf_counter() - self._mark
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
