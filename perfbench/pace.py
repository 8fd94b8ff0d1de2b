"""Host speed reference for the end-to-end timings.

On a shared host the speed of a core drifts with what other tenants run:
on a 2-vCPU cloud VM the same decompose took 7.6 to 12.8 CPU seconds within
minutes, and a fixed loop 0.38 to 0.64 s within seconds.  CPU time does not
count the time other tenants hold the core, but it does count their slowing
of it.  So while the benchmark measures, a background thread of its own
process times a fixed pure-Python loop, LOOP_ITERATIONS long, every
INTERVAL_S seconds, with `time.thread_time()`.  Each sample is the loop's CPU time and when it
ended (CLOCK_MONOTONIC, which child processes share).

An operation's CPU time is then scaled by REFERENCE_S over the median loop
time of the samples taken while it ran: the result is the operation's CPU
time on a core that runs the loop in REFERENCE_S, about an idle core of
that VM.  The loop needs about 3% of one core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOP_ITERATIONS = 5000
INTERVAL_S = 0.02
REFERENCE_S = 0.5e-3
# an interval shorter than this many samples also uses its neighbours'
MIN_SAMPLES = 15


def _loop():
    x = 0.0
    for i in range(LOOP_ITERATIONS):
        x = x * 0.5 + (i % 7) * 1.5
    return x


class Pace:
    """Background sampler of the reference loop; use as a context manager.

    With `cpus`, the sampling thread runs only on those CPUs: a
    single-threaded program on one core is slowed by what shares that core,
    which the other core does not see.
    """

    def __init__(self, cpus=None):
        self.cpus = cpus
        self.samples = []  # (CLOCK_MONOTONIC at the end, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)  # this thread only
        while not self._stop.wait(INTERVAL_S):
            t0 = time.thread_time()
            _loop()
            self.samples.append((time.monotonic(), time.thread_time() - t0))

    def scale(self, start, end):
        """REFERENCE_S over the median loop time between start and end
        (CLOCK_MONOTONIC).  A short interval takes the MIN_SAMPLES samples
        nearest to its middle."""
        while len(self.samples) < MIN_SAMPLES:
            time.sleep(INTERVAL_S)
        samples = list(self.samples)
        inside = [s for t, s in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(inside)
