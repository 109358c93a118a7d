"""Discrete-event concurrency models for the multicore experiments.

The kernel simulation is single-threaded and charges one global clock,
which is exact for latency experiments but cannot express Figs 6 and 7,
where work overlaps across cores.  The approach (mirroring how the
paper's own numbers arise): **measure** per-request cost components on
the real kernel simulation — fork latency on the coordinator, child
execution time, request CPU vs device-wait time — then feed them into
the small event-driven models here to get steady-state throughput on N
cores / N workers.

Two models:

* :func:`simulate_fork_pipeline` — the FaaS zygote (Fig 6): one
  coordinator core forks sequentially; children execute on worker cores.
* :func:`simulate_closed_workers` — Nginx (Fig 7): W blocking workers on
  C cores; each request holds a core for its CPU phase and releases it
  during device I/O (why extra workers help even on one core), with an
  optional big-kernel-lock fraction serializing kernel-side CPU time.

Both models are exact fast-forward engines.  Service times are
deterministic integers, so after a short transient each model repeats
one cycle of events, shifted in time.  The engines step event by event
while recording a *normalised state key*: the state with every absolute
time replaced by its offset from the current time, clipped at zero
where a past time acts exactly like the present.  At the first repeated
key they jump ``k`` whole periods at once — shift every absolute time
by ``k`` periods and add ``k`` periods' completions — and then step the
rest of the window, where the deadline truncates the run exactly as a
per-event run would.  ``tests/sim_oracle.py`` keeps the per-event
engines as the reference the tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

#: normalised state key -> (time, completions) when first seen
_Seen = Dict[Hashable, Tuple[int, int]]


def _require(condition: bool, message: str) -> None:
    """Reject an input the models cannot run, naming the argument."""
    if not condition:
        raise ValueError(message)


def _require_costs(first: str, first_ns: int, second: str, second_ns: int,
                   duration_ns: int) -> None:
    # a request that costs no time would never advance the clock
    _require(first_ns >= 0 and second_ns >= 0 and first_ns + second_ns > 0,
             f"{first} and {second} must be non-negative with a positive "
             f"sum, got {first}={first_ns}, {second}={second_ns}")
    _require(duration_ns >= 0,
             f"duration_ns must be non-negative, got {duration_ns}")


def _period_jump(first: Tuple[int, int], now: int, completions: int,
                 offset_ns: int, cost_ns: int,
                 duration_ns: int) -> Tuple[int, int]:
    """The jump at a repeat of a state first seen at ``first``, a
    ``(time, completions)`` pair.

    The events since that first sighting repeat every period (``now``
    minus its time), so whole periods can be skipped while every
    request they contain still completes inside the window.  The jump
    keeps a margin before the deadline of the largest pending or busy
    offset (``offset_ns``), plus one period, plus one request's cost,
    so one jump per run is all there is room for.  Returns
    ``(shift_ns, gained_completions)``; ``(0, 0)`` when too close to
    the deadline to skip a whole period.
    """
    then, then_completions = first
    period = now - then
    margin = offset_ns + period + cost_ns
    periods = max(0, (duration_ns - now - margin) // period)
    return periods * period, periods * (completions - then_completions)


@dataclass
class PipelineResult:
    completions: int
    duration_ns: int

    @property
    def throughput_per_s(self) -> float:
        if self.duration_ns == 0:
            return 0.0
        return self.completions * 1_000_000_000 / self.duration_ns


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
    the exact crossover emerging from the event schedule.  The state
    key is the cores' busy offsets and the backlog's completion
    offsets, relative to the coordinator's time.
    """
    _require_costs("fork_ns", fork_ns, "child_ns", child_ns, duration_ns)
    _require(worker_cores >= 1,
             f"worker_cores must be at least 1, got {worker_cores}")
    if queue_depth is None:
        queue_depth = worker_cores * 2
    _require(queue_depth >= 1,
             f"queue_depth must be at least 1, got {queue_depth}")
    core_busy = [0] * worker_cores
    backlog: List[int] = []  # heap of child completion times
    t_coordinator = 0
    completions = 0
    seen: Optional[_Seen] = {}
    while True:
        while backlog and backlog[0] <= t_coordinator:
            heapq.heappop(backlog)
        if seen is not None:
            busy = [max(b - t_coordinator, 0) for b in core_busy]
            waits = [t - t_coordinator for t in backlog]
            entry = (t_coordinator, completions)
            first = seen.setdefault(
                (tuple(sorted(busy)), tuple(sorted(waits))), entry)
            if first is not entry:
                seen = None
                shift, gained = _period_jump(
                    first, t_coordinator, completions, max(busy + waits),
                    fork_ns + child_ns, duration_ns)
                t_coordinator += shift
                core_busy = [b + shift for b in core_busy]
                backlog = [t + shift for t in backlog]  # still a heap
                completions += gained
        # backpressure: wait until the backlog drains below the cap
        if len(backlog) >= queue_depth:
            t_coordinator = heapq.heappop(backlog)
        t_coordinator += fork_ns
        if t_coordinator > duration_ns:
            break
        index = core_busy.index(min(core_busy))
        end = max(t_coordinator, core_busy[index]) + child_ns
        core_busy[index] = end
        heapq.heappush(backlog, end)
        if end <= duration_ns:
            completions += 1
    return PipelineResult(completions=completions, duration_ns=duration_ns)


@dataclass
class WorkerResult:
    completions: int
    duration_ns: int

    @property
    def throughput_per_s(self) -> float:
        if self.duration_ns == 0:
            return 0.0
        return self.completions * 1_000_000_000 / self.duration_ns


def simulate_closed_workers(cpu_ns: int, io_ns: int, workers: int,
                            cores: int,
                            duration_ns: int = 10_000_000_000,
                            kernel_lock_fraction: float = 0.0) -> WorkerResult:
    """Closed-loop blocking workers (Fig 7).

    Each worker repeats: run ``cpu_ns`` on a core (of which
    ``kernel_lock_fraction`` additionally requires the global kernel
    lock — Unikraft's big kernel lock, §4.5), then wait ``io_ns`` off
    the core (device latency), then complete one request.  A request
    that would complete after the window ends its worker.

    Workers are interchangeable, so the state key holds no worker ids:
    the sorted core busy offsets and the lock offset, both clipped at
    zero, and the sorted offsets of the workers' next steps.
    """
    _require_costs("cpu_ns", cpu_ns, "io_ns", io_ns, duration_ns)
    _require(workers >= 0, f"workers must be non-negative, got {workers}")
    _require(cores >= 1, f"cores must be at least 1, got {cores}")
    _require(0 <= kernel_lock_fraction <= 1,
             f"kernel_lock_fraction must be in [0, 1], "
             f"got {kernel_lock_fraction}")
    locked_ns = int(cpu_ns * kernel_lock_fraction)
    unlocked_ns = cpu_ns - locked_ns
    core_busy = [0] * cores
    lock_free_at = 0
    steps = [0] * workers  # heap of the workers' next step times
    completions = 0
    seen: Optional[_Seen] = {}
    while steps:
        now = steps[0]
        if seen is not None:
            busy = [max(b - now, 0) for b in core_busy]
            lock = max(lock_free_at - now, 0)
            waits = [t - now for t in steps]
            entry = (now, completions)
            first = seen.setdefault(
                (tuple(sorted(busy)), lock, tuple(sorted(waits))), entry)
            if first is not entry:
                seen = None
                shift, gained = _period_jump(
                    first, now, completions, max(busy + waits + [lock]),
                    cpu_ns + io_ns, duration_ns)
                now += shift
                core_busy = [b + shift for b in core_busy]
                lock_free_at += shift
                steps = [t + shift for t in steps]  # still a heap
                completions += gained
        heapq.heappop(steps)
        index = core_busy.index(min(core_busy))
        end_cpu = max(now, core_busy[index]) + unlocked_ns
        if locked_ns:
            end_cpu = max(end_cpu, lock_free_at) + locked_ns
            lock_free_at = end_cpu
        core_busy[index] = end_cpu  # the core is held through the lock
        done = end_cpu + io_ns
        if done <= duration_ns:
            completions += 1
            heapq.heappush(steps, done)
    return WorkerResult(completions=completions, duration_ns=duration_ns)
