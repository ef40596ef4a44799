"""Host speed, measured by a fixed reference loop timed between runs.

The benchmark shares a few cores of a host with other tenants, and their
load makes the same code run up to half again slower for tens of seconds
at a time, on CPU time as much as on wall time. A reference loop does the
kinds of work txrisk does, none of it from txrisk, so no change to the
program moves it. Dividing a measured time by the loop's time taken around
it, and multiplying by the loop's reference time, gives the time the work
would take on the host at its reference speed.

Code that runs on one thread and code that hands small tasks to a thread
pool slow down by different amounts under the same load, because the pool
also waits for the other cores and for the interpreter lock. So there are
two loops, and each workload names the one with its own shape:

* ``serial``: text parsing, scalar float arithmetic, small and large numpy
  calls, on one thread (``cluster`` and ``estimate``);
* ``pooled``: many short scalar tasks mapped over a pool of one thread per
  CPU, the way ``assess`` simulates its (cluster, N) grid.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

def serial_loop():
    """One pass of the single-thread mix; returns its wall seconds."""
    start = time.perf_counter()
    rows = [f"S{i % 97:03d},2014-01-{1 + i % 28:02d},{i % 24},{i * 0.013:.3f}"
            for i in range(4000)]
    total = sum(float(r.split(",")[3]) for r in rows)
    temp = 20.0
    for step in range(6000):
        temp += (30.0 + 10.0 * math.sin(step / 100.0) - temp) * 0.02
        total += math.exp(-temp / 400.0)
    points = np.random.default_rng(0).standard_normal((3000, 30))
    centres = points[:10]
    for _ in range(3):
        d = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        total += float(d.argmin(axis=1).sum())
    for row in points[:600]:
        total += float(np.sqrt((row * row).sum()))
    if not math.isfinite(total):
        raise RuntimeError("reference loop produced a non-finite value")
    return time.perf_counter() - start


def _task(seed):
    """A short scalar step loop, the size of a small simulated day."""
    temp = 20.0 + seed % 7
    total = 0.0
    for step in range(96):
        temp += (30.0 + 10.0 * math.sin(step / 15.0) - temp) * 0.05
        total += math.exp(-temp / 400.0)
    return total


def pooled_loop():
    """600 short tasks over a pool of one thread per CPU; returns its wall
    seconds."""
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        total = sum(pool.map(_task, range(600)))
    if not math.isfinite(total):
        raise RuntimeError("reference loop produced a non-finite value")
    return time.perf_counter() - start


# Loop, its typical time on a 2-CPU "Intel(R) Xeon(R) Processor" guest with
# Python 3.11 and numpy 2.4, and the loops per sample (the sample is their
# median). Only comparisons on one host are meaningful; the reference times
# just keep rescaled times near the seconds they read there. A process on
# one thread runs on one CPU at a time and the CPUs' speeds differ, so the
# serial sample spans about half a second to average over them; the pooled
# loop already runs on all of them.
REFERENCES = {
    "serial": (serial_loop, 0.028, 16),
    "pooled": (pooled_loop, 0.035, 5),
}


class HostSpeed:
    """Reference-loop samples of one invocation."""

    def __init__(self, reference):
        self.loop, self.reference_s, self.loops = REFERENCES[reference]
        self.samples: list[float] = []

    def sample(self):
        """Take a sample; returns its index."""
        self.samples.append(statistics.median(self.loop() for _ in range(self.loops)))
        return len(self.samples) - 1

    def factor(self, mark):
        """Multiply the time of a step between samples ``mark`` and
        ``mark + 1`` by this to rescale it to reference speed.

        The host's speed is taken as the mean of the samples just before
        and after the step and one more on each side, which smooths the
        noise of single samples but follows changes that last tens of
        seconds.
        """
        window = self.samples[max(mark - 1, 0):mark + 3]
        return self.reference_s / statistics.mean(window)
