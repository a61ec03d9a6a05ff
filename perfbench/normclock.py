"""Speed-normalized interval timing.

On a shared virtual machine the same pure-Python loop can take twice as
long from one second to the next, so raw wall-clock latencies do not
repeat within a tenth between runs. Every timed interval here is
therefore divided by the speed of the machine around it: a fixed
reference loop is timed with ``time.thread_time()`` before the first
operation, after any operation once ``INTERVAL_S`` has passed since the
last sample, and after the last operation. An interval's normalized
duration is

    wall seconds x REFERENCE_S / mean(reference samples bracketing it)

which reads in seconds of a machine whose reference loop takes exactly
``REFERENCE_S``.

The reference loop is timed in thread CPU time, not wall time, so time
the client thread spends waiting for the interpreter lock held by
another thread is not divided out: contention caused by the program's
own threads still shows as latency. The loop allocates no objects, so a
cyclic garbage collection over a large heap cannot land inside it. It
walks a dict of 65536 keys, a working set larger than a core's private
caches, so it slows down with the program when other tenants of the
machine contend for caches and memory; a loop over a 64-key dict left
three times the run-to-run spread on ``ingest``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

#: The reference unit: the nominal duration of one reference-loop run.
REFERENCE_S = 0.001
#: Reference-loop runs per sample; the sample is their median.
REPS = 3
#: Minimum wall time between two samples taken by ``tick``.
INTERVAL_S = 0.1

_TABLE = dict.fromkeys(range(1 << 16), 0)
#: Every 13th key: one run is 5042 updates, 0.6-0.8 ms on a
#: 2-vCPU VM.
_KEYS = tuple(range(0, 1 << 16, 13))


def reference_loop(passes: int = 1) -> int:
    """Fixed pure-Python work that allocates nothing.

    Every value stays below 256, so CPython serves it from its cache of
    small ints; the keys already exist, and the dict only rebinds them.
    """
    table = _TABLE
    acc = 0
    for _ in range(passes):
        for key in _KEYS:
            acc ^= table[key]
            table[key] = acc >> 1
    return acc


def reference_sample() -> float:
    """Thread CPU seconds of one reference-loop run, median of REPS."""
    times = []
    for _ in range(REPS):
        began = time.thread_time()
        reference_loop()
        times.append(time.thread_time() - began)
    return statistics.median(times)


class NormClock:
    """Reference samples along one thread's timeline.

    Call :meth:`sample` before the first timed interval and after the
    last one, and :meth:`tick` after every operation; then
    :meth:`normalize` converts any interval timed with
    ``time.perf_counter()`` in between.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._values: List[float] = []

    def sample(self) -> None:
        began = time.perf_counter()
        value = reference_sample()
        self._starts.append(began)
        self._ends.append(time.perf_counter())
        self._values.append(value)

    def tick(self) -> None:
        """Take a sample when INTERVAL_S has passed since the last one."""
        if not self._ends or \
                time.perf_counter() - self._ends[-1] >= INTERVAL_S:
            self.sample()

    @property
    def samples(self) -> Sequence[float]:
        return self._values

    def factor(self, began: float, ended: float) -> float:
        """REFERENCE_S over the mean of the samples that bracket
        ``[began, ended]`` and fall inside it."""
        first = bisect.bisect_right(self._ends, began) - 1
        last = bisect.bisect_left(self._starts, ended)
        if first < 0 or last >= len(self._starts):
            raise ValueError(
                "interval is not bracketed by reference samples"
            )
        window = self._values[first:last + 1]
        return REFERENCE_S * len(window) / sum(window)

    def normalize(self, began: float, ended: float) -> float:
        """Normalized seconds of the interval ``[began, ended]``."""
        return (ended - began) * self.factor(began, ended)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it,
    as ``(q, value)``; ``q`` is 0.5 when there are too few samples."""
    q = max(0.5, 1.0 - beyond / len(values)) if values else 0.5
    return q, percentile(values, q)
