"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's host shares its cores with other tenants, and its speed
flips between fast and slow states several times a second, in a mix
that drifts over tens of seconds: one run can be a third slower than the
next. ``run.py`` runs this kernel before the first pass and after every
step of a pass, for a fifth of the step's time, and divides the run's
mean pass time by the kernel's mean time over the run. The kernel imports nothing from
``src/``, so a change to the library never moves it; it does the kind of
work the simulator does (a heap of timed events, small ``__slots__``
objects, dict lookups, list appends, seeded random draws) so that host
contention slows both by about the same share.
"""

from __future__ import annotations

import heapq
import random
import time

#: Mean kernel time, in seconds, on the host the benchmark was built on (a
#: 2-vCPU VM, Intel Xeon at 2.1 GHz); normalised times are expressed at
#: the host speed at which one kernel run takes this long.
REFERENCE_S = 0.050

#: Kernel time after each step of a pass, as a share of the step's time.
SHARE = 0.2

#: Least kernel time per sample, in seconds.
MIN_SAMPLE_S = 0.2

#: Events per kernel run, about 50 ms on the reference host.
EVENTS = 40_000


class _Job:
    __slots__ = ("left", "stamps")

    def __init__(self, left: int) -> None:
        self.left = left
        self.stamps: "list[float]" = []


def kernel(events: int = EVENTS) -> float:
    """One run of the kernel; returns its final virtual time."""
    rng = random.Random(7)
    jobs = {i: _Job(rng.randint(5, 60)) for i in range(200)}
    heap = [(rng.random(), i, i) for i in jobs]
    heapq.heapify(heap)
    now, seq = 0.0, len(heap)
    for _ in range(events):
        now, _, jid = heapq.heappop(heap)
        job = jobs[jid]
        job.left -= 1
        job.stamps.append(now)
        if job.left <= 0:
            del jobs[jid]
            jid = seq
            jobs[jid] = _Job(rng.randint(5, 60))
        seq += 1
        heapq.heappush(heap, (now + rng.expovariate(10.0), seq, jid))
    return now


def sample(budget_s: float) -> "list[float]":
    """Run the kernel back to back for at least ``budget_s`` seconds.

    Returns the time of each run, in seconds.
    """
    times: "list[float]" = []
    end = time.perf_counter() + budget_s
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class HostSpeed:
    """Times a pass step by step, running the kernel after every step.

    A workload's pass calls :meth:`pause` between its steps (the searches
    of a sweep, say); the runner calls :meth:`begin` before the pass and
    :meth:`pause` after it. ``busy_s`` is the pass's time without the
    kernel runs, and ``kernel_times`` holds every kernel run of the run.
    """

    def __init__(self) -> None:
        self.kernel_times = sample(MIN_SAMPLE_S)
        self.busy_s = 0.0
        self._mark = time.perf_counter()

    def begin(self) -> None:
        self.busy_s = 0.0
        self._mark = time.perf_counter()

    def pause(self) -> None:
        step_s = time.perf_counter() - self._mark
        self.busy_s += step_s
        self.kernel_times += sample(max(MIN_SAMPLE_S, SHARE * step_s))
        self._mark = time.perf_counter()
