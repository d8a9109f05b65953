"""Host-speed probes: fixed tasks timed next to every op, to divide host drift out.

On a shared VM the same op can take 1.7 times as long a few minutes later,
with nothing else running in the VM: the whole VM runs slower, and process
CPU time slows with wall time. A probe is a fixed task that does not touch
trendgap, timed right before and right after each op. The op's time divided
by the mean of those two probe times hardly moves with the host, while any
change to trendgap changes only the op's time. Multiplied by the probe's
time on a reference host (``*_REF_MS``), the ratio reads as milliseconds on
that host.

Two probes, one for each kind of work an op does:

- :func:`kernel_ms` for in-process work: building a dict of tuples, hashing
  small frozen dataclasses, and many small numpy calls, about a third each.
- :func:`interpreter_ms` for work done in child processes: the median of
  three bare ``python -c pass``.
"""

from __future__ import annotations

import gc
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

#: Time of :func:`kernel_ms` on the reference host.
KERNEL_REF_MS = 45.0
#: Time of :func:`interpreter_ms` on the reference host.
INTERPRETER_REF_MS = 50.0


@dataclass(frozen=True)
class _Month:
    year: int
    month: int

    def add(self, k: int) -> _Month:
        t = self.year * 12 + self.month - 1 + k
        return _Month(t // 12, t % 12 + 1)


_ARRAY = np.arange(1200.0)


def _kernel() -> float:
    # Small tables, so the probe does not raise the process's peak RSS.
    total = 0.0
    for _ in range(10):
        table = {}
        for i in range(4000):
            table[(i % 97, i)] = i * 0.5
        total += sum(v for k, v in table.items() if k[0] & 1)
    start, counts = _Month(1900, 1), {}
    for k in range(9000):
        m = start.add(k % 600)
        counts[m] = counts.get(m, 0) + 1
    total += len(counts)
    for _ in range(5):
        for i in range(400):
            total += float(np.cumsum(_ARRAY[i:] * _ARRAY[i:])[-1])
    return total


def kernel_ms() -> float:
    """Wall time of the in-process kernel, in ms. The collector is off while
    it runs, so the size of the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return 1000.0 * (perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


#: Bare interpreters per :func:`interpreter_ms`: one start varies by ±30%.
INTERPRETER_STARTS = 3


def interpreter_ms(src: Path) -> float:
    """Median wall time of bare interpreters (``python -c pass``), in ms,
    started one after another the way the benchmark starts every child."""
    from workloads import SubprocessFailed, run_child

    times = []
    for _ in range(INTERPRETER_STARTS):
        t0 = perf_counter()
        if run_child([sys.executable, "-c", "pass"], src) != 0:
            raise SubprocessFailed("python -c pass failed")
        times.append(1000.0 * (perf_counter() - t0))
    return statistics.median(times)
