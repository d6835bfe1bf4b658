"""The machine's speed, sampled while a repetition runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40 % over minutes and jumps from one tenth of a second to the next,
while process CPU time keeps pace with wall time: the program is not
descheduled, it runs slower.  Raw seconds measured minutes apart therefore
differ by more than the regression bounds.

``probe`` times a fixed piece of pure-Python work (integer and big-integer
arithmetic, list and dict access, calls, rational sums, row elimination)
that uses no tdual code.  A
``Sampler`` runs it every ``INTERVAL_S`` seconds from a timer signal, so the
probes are spread evenly over the timed phase, long operations included,
and keeps the time they take out of the program's times.  ``run.py`` then
scales each operation's time by ``REF_S / mean(probe times)`` over the
probes taken during the operation, or the ``MIN_PROBES`` nearest to it:
seconds at the speed at which the probe takes ``REF_S``.  A change to tdual does not
change the probe, so it moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import math
import signal
import time

# Probe seconds at the reference speed: about the probe's median time on
# the benchmark's machine (Python 3.11, Intel Xeon at 2.0 GHz), where it
# takes 3-6 ms as the machine's speed moves.
REF_S = 0.004
INTERVAL_S = 0.1
# An operation's speed is taken from the probes taken during it, or, if
# fewer, from the MIN_PROBES probes nearest to it.
MIN_PROBES = 5

_TABLE = [0] * 64
_INDEX: dict[int, int] = {i: i * 7 for i in range(64)}


def _step(x: int, y: int) -> int:
    return (x * 31 + y) & 0xFFFFFFFF


def probe() -> float:
    """Seconds taken by a fixed piece of work: a tight loop of small and
    big integer arithmetic with list and dict access and calls, then
    rational sums kept in a dict under tuple keys and fraction-free row
    elimination on a list of lists, which allocate as tdual does.  The
    mix tracks the speed of tdual's workloads better than either half
    alone.  The garbage collector is off meanwhile, so that a probe never
    pays for collecting the program's objects."""
    collecting = gc.isenabled()
    gc.disable()
    table, index = _TABLE, _INDEX
    start = time.perf_counter()
    acc, big = 1, 3 ** 200
    for i in range(1500):
        acc = _step(acc, i)
        j = acc & 63
        table[j] = (table[j] + index[j]) % 1000003
        big = (big * (i | 1) + acc) % (3 ** 300)
    table[0] += big & 1
    terms: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, 1000):
        key = (i % 7, i % 5)
        n, d = terms.get(key, (0, 1))
        n, d = n * (i + 1) + i * d, d * (i + 1)
        g = math.gcd(n, d)
        terms[key] = (n // g, d // g)
    for _ in range(2):
        rows = [[(i * 7 + j * 13) % 17 - 8 for j in range(8)] for i in range(8)]
        for k in range(7):
            pivot = rows[k]
            for row in rows[k + 1:]:
                f, p = row[k], pivot[k]
                row[:] = [x * p - f * y for x, y in zip(row, pivot)]
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


class Sampler:
    """Times a probe every ``INTERVAL_S`` seconds while active.

    ``probes`` holds (``time.perf_counter()`` at the probe, probe seconds).
    ``paused_s`` is the time spent in probes so far; subtract its growth
    over an interval from the interval's clock time to get the program's.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self.paused_s = 0.0

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        self.probes.append((began, probe()))
        self.paused_s += time.perf_counter() - began

    def take(self) -> None:
        """One probe now, outside the timer."""
        self.probes.append((time.perf_counter(), probe()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(spans, probes) -> list[float]:
    """Each operation's seconds at the reference speed.  ``spans`` holds
    (start, end, seconds) per operation and ``probes`` a ``Sampler``'s
    probes, on the same clock."""
    out = []
    for start, end, seconds in spans:
        gaps = sorted((max(start - t, 0.0, t - end), p) for t, p in probes)
        inside = sum(1 for gap, _ in gaps if gap == 0.0)
        near = [p for _, p in gaps[:max(inside, MIN_PROBES)]]
        out.append(seconds * REF_S / (sum(near) / len(near)))
    return out
