"""Machine-speed reference for normalising the benchmark's timings.

The reference is a fixed piece of the benchmark's own work: a pure-Python
integer loop and a chain of small complex matrix products, the two kinds
of work qmkit's jobs are made of.  It is timed just before every job.  The
machine the benchmark was built on drifts in speed by up to a factor of
two for minutes at a time, because other tenants share its cores, and the
drift moves every job's latency together.  Dividing each latency by the
reference's slowdown at that moment removes most of it.  The reference
never calls qmkit, so a change to the program does not move it, and a
relative change in the program's latency shows unchanged.

Normalised times are in seconds at reference speed: the speed at which one
reference takes ``REFERENCE_SECONDS``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the reference's median time on a 2-vCPU x86-64 VM; it fixes the
# unit of every normalised time, so never change it
REFERENCE_SECONDS = 0.0016
# reference timings, centred on a job, whose median gives its slowdown
WINDOW = 9

_Q = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8, 2)) @ np.array([1, 1j]))[0]


def reference_seconds() -> float:
    """Time one run of the reference work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    a = _Q
    for _ in range(150):
        a = _Q @ a            # unitary, so the entries stay bounded
    acc += int(abs(a[0, 0]) > 2)
    return time.perf_counter() - t0


def slowdowns(refs: list[float]) -> list[float]:
    """Slowdown at each of a run of samples: the median of the ``WINDOW``
    reference timings centred on it, over ``REFERENCE_SECONDS``."""
    h = WINDOW // 2
    return [statistics.median(refs[max(0, i - h):i + h + 1]) / REFERENCE_SECONDS
            for i in range(len(refs))]
