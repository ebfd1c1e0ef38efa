"""Machine-speed probe that scales wall times to one reference speed.

On the shared 2-core host this benchmark was built on, the same fixed
work runs at speeds that differ by up to ~2x.  The host flips between a
fast state and one ~1.7x slower in runs of 10-20 ms, and the share of
time spent slow drifts over minutes: 5 s windows of one
``store-4k-zipf`` run ranged from 2,700 to 6,400 ops/s, and the put
latency was bimodal (modes near 0.55 and 0.95 ms) with a mixture
share that moved from run to run.  Raw wall times therefore spread by
more than any usable bound.

:func:`probe` times fixed pure-Python work that owes nothing to the
program; ``REFERENCE_S / probe time`` is the probe's scale factor.  A
timed interval is cut into stretches, each opened by a probe, and each
stretch's wall time, probes excluded, is multiplied by the factor of
the probe that opened it:

* a store operation (under 10 ms, shorter than a speed state) is one
  stretch, opened by a probe run just before it, so that the latency
  distribution keeps only the program's own spread;
* a longer interval (a simulator cell, a set-up, an import) is probed
  every 3 ms by a ``SIGALRM`` timer (:func:`sampling`).  On 25
  repetitions of one identical Monte Carlo cell this cut the
  coefficient of variation of its time from 0.16 to 0.05 (0.21 to
  0.08 for a rare-event cell).

Over five 30 s runs of ``store-4k-zipf`` with different seeds, scaling
cut the quartile spread of ``ops_per_s`` from 0.17 to 0.01 of the
median, and that of the put median from 0.16 to 0.05.  Scaled times
read as the times on the development host in its fast state.  The raw
wall times are printed beside them.
"""

from __future__ import annotations

import importlib
import random
import signal
import time
from contextlib import contextmanager

#: Duration of :func:`probe` on the development host in its fast state.
REFERENCE_S = 11e-6
#: Wall time between probes inside :func:`sampling`.
SAMPLING_INTERVAL_S = 0.003


#: The probe's data: 300 fixed positions in a shuffled list of 100,000
#: ints (~3.6 MB).  Of the probes tried (an integer loop, dict lookups,
#: this one), indexing tracked the store's per-op speed best: it cut
#: the CV of 5 s-window get medians from 0.17 raw to 0.026.
_VALUES = list(range(1000, 101_000))
random.Random(0).shuffle(_VALUES)
_POSITIONS = random.Random(1).sample(range(len(_VALUES)), 300)


def _loop() -> int:
    acc = 0
    for i in _POSITIONS:
        acc += _VALUES[i]
    return acc


def probe() -> float:
    """Time the fixed calibration loop; return its wall time in seconds.

    One untimed pass first warms the caches the program's own work
    evicted, so that a probe taken right after that work is not slower
    for it.
    """
    _loop()
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Speed:
    """Probes taken during one timed interval, and its scaled length."""

    def __init__(self) -> None:
        #: Wall time the probes took, warm-up passes included.
        self.spent = 0.0
        #: Scaled stretches between the first and the last probe.
        self._scaled = 0.0
        self._first: tuple[float, float] | None = None
        self._last: tuple[float, float] | None = None
        self._probing = False

    def sample(self) -> float:
        """Probe once, opening a stretch; return the probe's factor."""
        if self._probing:
            # A timer signal arrived during a probe.
            return self._last[1] if self._last else 1.0
        self._probing = True
        start = time.perf_counter()
        factor = REFERENCE_S / probe()
        end = time.perf_counter()
        self._probing = False
        self.spent += end - start
        if self._last is None:
            self._first = (start, factor)
        else:
            self._scaled += (start - self._last[0]) * self._last[1]
        self._last = (end, factor)
        return factor

    def scaled_elapsed(self, start: float, end: float) -> float:
        """Scaled wall time from ``start`` to ``end``, probes excluded.

        ``start`` must precede the first probe and ``end`` follow the
        last; the stretch before the first probe takes its factor.
        """
        head = (self._first[0] - start) * self._first[1]
        tail = (end - self._last[0]) * self._last[1]
        return head + self._scaled + tail


@contextmanager
def sampling(speed: Speed):
    """Probe into ``speed`` now and every few ms until the body ends."""
    speed.sample()
    previous = signal.signal(signal.SIGALRM, lambda *_: speed.sample())
    signal.setitimer(signal.ITIMER_REAL, SAMPLING_INTERVAL_S,
                     SAMPLING_INTERVAL_S)
    try:
        yield speed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_call(fn, *args):
    """``(result, scaled seconds, raw seconds)`` of ``fn(*args)``."""
    speed = Speed()
    start = time.perf_counter()
    with sampling(speed):
        result = fn(*args)
    end = time.perf_counter()
    return (result, speed.scaled_elapsed(start, end),
            end - start - speed.spent)


def import_seconds(module: str) -> float:
    """Scaled time to import ``module``, for a fresh interpreter."""
    return timed_call(importlib.import_module, module)[1]
