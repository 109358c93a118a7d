"""The stepping event models, kept as the reference for :mod:`repro.sim`.

These are the original per-event implementations of the Fig 6 and
Fig 7 models: a heap of closures (:class:`EventSim`) and a coordinator
loop over a core pool (:class:`_Cores`).  They step every request, so
their cost grows with the simulated window.  The production models in
:mod:`repro.sim` fast-forward whole periods instead; the tests require
both to report the same completions.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.sim import PipelineResult, WorkerResult


class EventSim:
    """A minimal discrete-event engine."""

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.now = 0

    def schedule(self, at: int, action: Callable[[], None]) -> None:
        if at < self.now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, (at, next(self._seq), action))

    def run_until(self, deadline: int) -> None:
        while self._queue and self._queue[0][0] <= deadline:
            at, _seq, action = heapq.heappop(self._queue)
            self.now = at
            action()
        self.now = max(self.now, deadline)


class _Cores:
    """A pool of cores tracked by their busy-until times."""

    def __init__(self, count: int) -> None:
        self.busy_until = [0] * count

    def acquire(self, at: int, duration: int) -> int:
        """Run ``duration`` on the earliest-available core; returns the
        completion time."""
        index = min(range(len(self.busy_until)),
                    key=lambda i: self.busy_until[i])
        start = max(at, self.busy_until[index])
        end = start + duration
        self.busy_until[index] = end
        return end


def simulate_fork_pipeline(fork_ns: int, child_ns: int, worker_cores: int,
                           duration_ns: int = 10_000_000_000,
                           queue_depth: Optional[int] = None) -> PipelineResult:
    """The zygote pipeline (Fig 6).

    The coordinator thread forks children back-to-back (each fork
    occupies the coordinator for ``fork_ns``); each child then occupies
    a worker core for ``child_ns`` (function execution + exit).  The
    coordinator stops issuing when the backlog reaches ``queue_depth``
    (default: one in flight per worker core, like a request queue).

    Throughput is therefore ``min(1/fork, cores/child)`` shaped, with
    the exact crossover emerging from the event schedule.
    """
    if queue_depth is None:
        queue_depth = worker_cores * 2
    cores = _Cores(worker_cores)
    t_coordinator = 0
    completions = 0
    completion_times: List[int] = []
    while True:
        # backpressure: wait until the backlog drains below the cap
        pending = [t for t in completion_times if t > t_coordinator]
        if len(pending) >= queue_depth:
            t_coordinator = min(pending)
        t_coordinator += fork_ns
        if t_coordinator > duration_ns:
            break
        end = cores.acquire(t_coordinator, child_ns)
        completion_times.append(end)
        if end <= duration_ns:
            completions += 1
        # keep the list small
        if len(completion_times) > 4 * queue_depth:
            completion_times = [
                t for t in completion_times if t > t_coordinator
            ]
    return PipelineResult(completions=completions, duration_ns=duration_ns)


def simulate_closed_workers(cpu_ns: int, io_ns: int, workers: int,
                            cores: int,
                            duration_ns: int = 10_000_000_000,
                            kernel_lock_fraction: float = 0.0) -> WorkerResult:
    """Closed-loop blocking workers (Fig 7).

    Each worker repeats: run ``cpu_ns`` on a core (of which
    ``kernel_lock_fraction`` additionally requires the global kernel
    lock — Unikraft's big kernel lock, §4.5), then wait ``io_ns`` off
    the core (device latency), then complete one request.
    """
    sim = EventSim()
    core_busy = [0] * cores
    lock_free_at = 0
    completions = 0

    def worker_step(worker_id: int) -> None:
        nonlocal completions, lock_free_at
        locked_ns = int(cpu_ns * kernel_lock_fraction)
        unlocked_ns = cpu_ns - locked_ns
        index = min(range(cores), key=lambda i: core_busy[i])
        start = max(sim.now, core_busy[index])
        end_cpu = start + unlocked_ns
        if locked_ns:
            lock_start = max(end_cpu, lock_free_at)
            end_cpu = lock_start + locked_ns
            lock_free_at = end_cpu
        core_busy[index] = end_cpu  # the core is held through the lock
        done = end_cpu + io_ns
        if done <= duration_ns:
            completions += 1
            sim.schedule(done, lambda: worker_step(worker_id))

    for worker_id in range(workers):
        sim.schedule(0, lambda wid=worker_id: worker_step(wid))
    sim.run_until(duration_ns)
    return WorkerResult(completions=completions, duration_ns=duration_ns)
