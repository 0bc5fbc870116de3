"""Scaling measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within minutes (other tenants, clock boost); no run length averages
that out.  A fixed piece of pure-Python work, timed every INTERVAL_S of wall
time while a job runs, follows the drift.  A job's time scaled by
REFERENCE_S / (median loop time during the job) reads nearly the same on a
fast or a slow host, while a change to cloudcut, which the loop does not
touch, moves it in full.  The loop has two halves: dict and integer work that
stays in the core's caches, and float parsing with reads scattered over a
table of about 19 MB.  Over a 2x swing in host speed, each half alone left
the scaled time of an evaluate job varying by about 18%, the two together by
about 13%; the job's raw time varied by 53%.

Only the standard library is imported here: the set-up probe loads this
module before it times the import of cloudcut.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 1.5e-3  # loop() on the reference machine
INTERVAL_S = 0.05     # one loop() per 50 ms of wall time: about 3% of a job
MIN_SAMPLES = 5
_TABLE = tuple(range(1 << 19))  # a tuple of ints drops out of the GC's view
_TEXT = [repr(i * 0.37) for i in range(128)]


def loop():
    """Seconds one fixed piece of interpreter work takes right now."""
    collecting = gc.isenabled()
    gc.disable()  # a collection of the job's heap is not machine speed
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(3500):
        k = i & 127
        table[k] = table.get(k, 0) + i
        acc += table[k] >> 3
    table, total, j = {}, 0.0, 12345
    for i in range(1200):
        k = i & 127
        table[k] = table.get(k, 0) + i
        j = (j * 1103515245 + 12345) & 0x7FFFF
        total += _TABLE[j] + float(_TEXT[k])
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def sample(n):
    return [loop() for _ in range(n)]


def scale(seconds, samples):
    """seconds at the reference speed, given loop() times taken meanwhile."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return seconds * REFERENCE_S / median


class Sampler:
    """Times loop() every INTERVAL_S of wall time while the block runs (on
    SIGALRM, so in the main thread, between the job's bytecodes)."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda *_: self.samples.append(loop()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.samples) < MIN_SAMPLES:  # a job shorter than a few intervals
            self.samples += sample(MIN_SAMPLES - len(self.samples))
        return False

    def scale(self, seconds):
        return scale(seconds, self.samples)
