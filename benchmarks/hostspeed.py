"""Host speed, timed between groups of ops, to put times on one scale.

The benchmark runs on shared virtual machines whose speed swings with what
other tenants run.  On the 2-vCPU Xeon VM the benchmark was defined on, the
reference computation below took between 8.6 and 21.9 ms (best of three)
within five minutes, in spells of seconds to minutes, and the process's CPU
time tracked its wall time: the process was slowed, not descheduled, so
taking the fastest of many passes cannot remove it.  Raw seconds from two
runs a few minutes apart are therefore not comparable.  Every latency the
benchmark reports is scaled by ``NOMINAL_S`` over the mean of the reference
timings just before and just after its group of ops, so the figures are
seconds on a host that runs the reference in ``NOMINAL_S``.  The reference
calls nothing of qwalkspec, so a change to the program moves the scaled
times as it moves the raw ones.
"""

import threading
from time import perf_counter

import numpy as np

NOMINAL_S = 0.008  # a little under the reference's fastest time seen on that VM

_M = np.arange(96 * 96, dtype=np.int64).reshape(96, 96) % 1009


def _work() -> int:
    """A fixed mix of interpreter work (dicts, ints, strings, a sort) and int64 numpy matmuls."""
    counts: dict = {}
    total = 0
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        total += len(str(i))
    total += sorted((i * 7919) % 1009 for i in range(5000))[-1]
    a = _M
    for _ in range(8):
        a = (a @ _M) % 1000003
    return total + int(a[0, 0])


def reference(threads: int = 1, budget_s: float = 0.0) -> float:
    """Seconds the reference computation takes now per copy: the mean of its repeats.

    It repeats at least three times, and more, up to twenty, while the
    repeats have taken less than ``budget_s``: a long group of ops gets a
    more precise host speed.  With ``threads`` > 1 that many copies run at
    once, each in its own thread, like the workers of a multi-threaded
    workload, so the host's speed is measured on all the cores they share,
    not on one.  The copies contend for the interpreter lock as the workers
    do; on the VM above, two copies took 1.8-2.3x as long as one, so the
    time per copy stays near ``NOMINAL_S`` on a quiet host.
    """
    times = []
    start = perf_counter()
    while len(times) < 3 or (len(times) < 20 and perf_counter() - start < budget_s):
        workers = [threading.Thread(target=_work) for _ in range(threads - 1)]
        began = perf_counter()
        for w in workers:
            w.start()
        _work()
        for w in workers:
            w.join()
        times.append(perf_counter() - began)
    return sum(times) / len(times) / threads


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two reference timings into nominal seconds."""
    return NOMINAL_S / ((before + after) / 2)
