"""Host speed samples, so that run.py can scale times to a reference speed.

On a shared host the cores' speed drifts by up to 2x over seconds to
minutes, so unscaled times of runs minutes apart differ by 20-30%, and a
step of a few seconds can span a fast and a slow phase.  While a worker
runs, a SIGALRM handler times a short fixed loop of dict and integer
operations, the kind of work the program's own loops do, every
PERIOD_S; the code under test never changes that loop.  measure() gives
an interval's seconds without the samples taken inside it and the mean
sample time over it; run.py scales the seconds by REF_CAL_S over that
mean.  The samples cost about 1% of the run.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.05
LOOPS = 2000
REF_CAL_S = 0.00035  # nominal time of one sample at the reference speed

_starts: list[float] = []
_times: list[float] = []


def sample(*_signal) -> None:
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(LOOPS):
        k = i % 1000
        d[k] = d.get(k, 0) + i
    _starts.append(start)
    _times.append(time.perf_counter() - start)


def start() -> None:
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    sample()


def measure(begin: float, end: float) -> tuple[float, float]:
    """(seconds of [begin, end] not spent sampling, mean time of the
    samples inside it and of the nearest one on each side)."""
    i, j = bisect_left(_starts, begin), bisect_right(_starts, end)
    near = _times[max(0, i - 1):j + 1]
    return end - begin - sum(_times[i:j]), sum(near) / len(near)
