"""Outside-in layer trace: timed wrappers around each layer's public
functions, installed from the benchmark's own files.

Every wrapper is a span.  A span's *self* time is its duration minus
the durations of the spans it directly contains, so the self times of
all spans plus ``unattributed_s`` (time inside the workload but outside
every span) add up to the traced wall time exactly.  Spans are
aggregated in memory per name (self ns, inclusive ns, calls, the
parent spans seen) rather than kept one by one: the hot layers make
millions of calls.

The traced run must execute the same engine code as an untraced run,
so the trace never turns on ``repro.obs``, a ``TraceLog``, a clock
observer or a machine tracer (each sends the vectorized paths to
per-page dispatch) and never wraps ``PhysicalMemory.decref`` (its
batch path compares ``type(self).decref`` against the pristine
function).  ``guard_failures`` collects every breach of those
conditions seen at machine boots and forks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

ROOT_SPAN = "<workload>"


class Target(NamedTuple):
    """One wrapped function: ``qualname`` is ``func`` or
    ``Class.method`` (patched on the class that defines it)."""

    span: str
    module: str
    qualname: str
    #: ((counter name, fn(args, result) -> int), ...) added per call
    units: tuple = ()
    #: generator function: each resumption is one span, and the items
    #: it yields are counted under this name
    yields: Optional[str] = None
    #: only count calls (no span): for calls too small to time
    count_only: bool = False


def _completions(args, result) -> int:
    return result.completions


def _frames_copied(args, result) -> int:
    return len(result)


TARGETS = (
    # sim: the event models behind fig6/fig7
    Target("sim.busy", "repro.sim", "simulate_fork_pipeline",
           units=(("sim.completions", _completions),)),
    Target("sim.busy", "repro.sim", "simulate_closed_workers",
           units=(("sim.completions", _completions),)),
    # cluster: boot + calibration, trace synthesis, batching, migration
    Target("cluster.shard_boot", "repro.cluster.shard", "Shard.__init__"),
    Target("cluster.trace", "repro.cluster.trace", "synthesize",
           yields="cluster.records"),
    Target("cluster.route", "repro.cluster.balancer", "Batcher.add",
           yields="cluster.batches"),
    Target("cluster.route", "repro.cluster.balancer", "Batcher.flush",
           yields="cluster.batches"),
    Target("cluster.migrate", "repro.cluster.migrate", "migrate_worker"),
    Target("cluster.loop", "repro.cluster.runner", "run_cluster"),
    # conform: the differential matrix, the explorer, its invariants
    Target("conform.matrix", "repro.conform.simrun", "run_sim"),
    Target("conform.explore", "repro.conform.explorer", "explore",
           units=(("conform.schedules",
                   lambda args, result: result["schedules"]),
                  ("conform.pruned",
                   lambda args, result: result["pruned"]))),
    Target("conform.invariants", "repro.conform.invariants",
           "check_invariants"),
    # sec: the capability-flow audit run inside check_invariants
    Target("sec.audit", "repro.sec.auditor", "audit_cap_flow"),
    # core: fork, fork-time faults, capability relocation
    Target("core.fork", "repro.core.ufork", "UForkOS.fork"),
    Target("core.fork", "repro.baselines.monolithic", "MonolithicOS.fork"),
    Target("core.fork", "repro.baselines.vmclone", "VMCloneOS.fork"),
    Target("core.fault", "repro.core.strategies", "handle_fork_fault"),
    Target("core.fault", "repro.core.strategies", "handle_fork_write_run"),
    Target("core.fault", "repro.baselines.monolithic", "handle_cow_fault"),
    Target("core.relocate", "repro.core.relocate", "relocate_frames"),
    Target("core.relocate", "repro.core.relocate",
           "relocate_copied_frames"),
    # kernel: process creation and syscall dispatch (subclass entry
    # checks call up into AbstractOS.syscall, which is the span)
    Target("kernel.spawn", "repro.core.ufork", "UForkOS.spawn"),
    Target("kernel.spawn", "repro.baselines.monolithic",
           "MonolithicOS.spawn"),
    Target("kernel.spawn", "repro.baselines.vmclone", "VMCloneOS.spawn"),
    Target("kernel.syscall", "repro.kernel.base", "AbstractOS.syscall"),
    # hw: machine boot, bulk frame copies, frame allocation
    Target("hw.boot", "repro.machine", "Machine.__init__"),
    Target("hw.copy_frames", "repro.hw.phys", "PhysicalMemory.copy_frames",
           units=(("hw.frames_copied", _frames_copied),)),
    Target("hw.alloc", "repro.hw.phys", "PhysicalMemory.alloc",
           count_only=True),
    # cheri: the capability codec
    Target("cheri.codec", "repro.cheri.codec", "CapabilityCodec.encode"),
    Target("cheri.codec", "repro.cheri.codec", "CapabilityCodec.decode"),
    # apps: guest loads and stores
    Target("apps.guest_mem", "repro.apps.guest", "GuestContext.load"),
    Target("apps.guest_mem", "repro.apps.guest", "GuestContext.store"),
    Target("apps.guest_mem", "repro.apps.guest", "GuestContext.store_run"),
)


class LayerTrace:
    """Aggregated spans for one traced pass."""

    def __init__(self) -> None:
        #: span -> [self_ns, inclusive_ns, calls]
        self.stats: Dict[str, List[int]] = {}
        #: span -> {parent span: calls}
        self.parents: Dict[str, Dict[str, int]] = {}
        self.counters: Dict[str, int] = {}
        self.guard_failures: List[str] = []
        self._root = [ROOT_SPAN, 0]
        self._stack: List[list] = [self._root]
        self._patched: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def _slot(self, span: str) -> List[int]:
        return self.stats.setdefault(span, [0, 0, 0])

    def wrap(self, span: str, fn: Callable,
             units: tuple = (),
             check: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one ``span`` per call."""
        stack = self._stack
        acc = self._slot(span)
        parents = self.parents.setdefault(span, {})
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += duration - frame[1]
                acc[1] += duration
                acc[2] += 1
                parent[1] += duration
                name = parent[0]
                parents[name] = parents.get(name, 0) + 1
            for counter, count_fn in units:
                counters[counter] = (counters.get(counter, 0)
                                     + count_fn(args, result))
            if check is not None:
                check(args, result)
            return result

        return traced

    def wrap_generator(self, span: str, fn: Callable,
                       counter: str) -> Callable:
        """Generator ``fn``: every resumption is timed into one ``span``,
        so the consumer's work between items stays the consumer's.

        Resumptions push no frame (the cluster makes millions of them):
        a span that opens inside one is subtracted from it all the same,
        but is recorded with the generator's caller as its parent.
        """
        stack = self._stack
        acc = self._slot(span)
        parents = self.parents.setdefault(span, {})
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = fn(*args, **kwargs).__next__
            parent = stack[-1]
            name = parent[0]
            parents[name] = parents.get(name, 0) + 1
            acc[2] += 1
            yielded = 0
            try:
                while True:
                    parent = stack[-1]
                    before = parent[1]
                    start = clock()
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        duration = clock() - start
                        nested = parent[1] - before
                        acc[0] += duration - nested
                        acc[1] += duration
                        parent[1] = before + duration
                    yielded += 1
                    yield item
            finally:
                counters[counter] = counters.get(counter, 0) + yielded

        return traced

    def wrap_count(self, span: str, fn: Callable) -> Callable:
        acc = self._slot(span)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            acc[2] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Patch every target where its callers look it up: on the class
        that defines a method, and on every ``repro`` module global that
        names a function (``from x import f`` bindings included)."""
        # import every target first, so that no module imported while
        # patching keeps a wrapper past ``uninstall``
        for target in targets:
            importlib.import_module(target.module)
        for target in targets:
            module = sys.modules[target.module]
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__[attr] if owner_name
                        else getattr(module, attr))
            if target.count_only:
                wrapper = self.wrap_count(target.span, original)
            elif target.yields is not None:
                wrapper = self.wrap_generator(target.span, original,
                                              target.yields)
            else:
                wrapper = self.wrap(target.span, original, target.units,
                                    self._check_for(target))
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro"
                                       or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        self.guard_failures.extend(engine_guards())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _check_for(self, target: Target) -> Optional[Callable]:
        if target.span == "hw.boot":
            return lambda args, result: self._guard(args[0])
        if target.span == "core.fork":
            return lambda args, result: self._guard(args[0].machine)
        return None

    def _guard(self, machine: Any) -> None:
        problems = engine_guards(machine)
        if problems:
            self.guard_failures.extend(problems)

    # -- results --------------------------------------------------------

    def attributed_ns(self) -> int:
        """Inclusive time of the outermost spans == sum of self times."""
        return self._root[1]

    def summary(self, wall_ns: int) -> Dict[str, Any]:
        """JSON-ready aggregates of a pass whose wall time was
        ``wall_ns``."""
        return {"wall_ns": wall_ns, "attributed_ns": self.attributed_ns(),
                "stats": self.stats, "parents": self.parents,
                "counters": self.counters}


def engine_guards(machine: Any = None) -> List[str]:
    """Conditions under which the vectorized engine paths run; an empty
    list when all hold."""
    from repro import perf
    from repro.hw import phys

    problems = []
    if not perf.enabled():
        problems.append("repro.perf disabled: legacy representation")
    if phys.PhysicalMemory.decref is not phys._BASE_DECREF:
        problems.append("PhysicalMemory.decref replaced: decref_many "
                        "falls back per frame")
    if machine is not None:
        if type(machine.phys).decref is not phys._BASE_DECREF:
            problems.append("machine.phys overrides decref")
        if machine.tracer is not None:
            problems.append("machine.tracer attached: per-page dispatch")
        if machine.clock.observer is not None and not machine.obs.enabled:
            problems.append("foreign clock.observer: per-store dispatch")
        if not machine.perf:
            problems.append("machine booted on the legacy representation")
    return problems


# -- per-layer metrics ---------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Dict[str, List[int]], counters: Dict[str, int],
                  attributed_ns: int, traced_wall_ns: int,
                  untraced_wall_s: float) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``, from one
    traced pass's aggregates (``LayerTrace.summary()``) and the wall
    time of an untraced pass of the same workload."""

    def self_s(span: str) -> float:
        return stats.get(span, (0, 0, 0))[0] / 1e9

    def incl_ns(span: str) -> int:
        return stats.get(span, (0, 0, 0))[1]

    def calls(span: str) -> int:
        return stats.get(span, (0, 0, 0))[2]

    def count(name: str) -> int:
        return counters.get(name, 0)

    completions = count("sim.completions")
    records = count("cluster.records")
    schedules = count("conform.schedules")
    pruned = count("conform.pruned")
    copied = count("hw.frames_copied")
    traced_wall_s = traced_wall_ns / 1e9
    return {
        "sim.busy_s": (self_s("sim.busy"), "s"),
        "sim.calls": (calls("sim.busy"), "count"),
        "sim.completions": (completions, "count"),
        "sim.host_ns_per_completion": (
            _ratio(incl_ns("sim.busy"), completions), "ns"),
        "cluster.shard_boot_s": (self_s("cluster.shard_boot"), "s"),
        "cluster.trace_s": (self_s("cluster.trace"), "s"),
        "cluster.records": (records, "count"),
        "cluster.route_s": (self_s("cluster.route"), "s"),
        "cluster.batches": (count("cluster.batches"), "count"),
        "cluster.migrate_s": (self_s("cluster.migrate"), "s"),
        "cluster.migrations": (calls("cluster.migrate"), "count"),
        "cluster.loop_self_s": (self_s("cluster.loop"), "s"),
        "cluster.host_ns_per_request": (
            _ratio(incl_ns("cluster.loop"), records), "ns"),
        "conform.matrix_s": (self_s("conform.matrix"), "s"),
        "conform.cells": (calls("conform.matrix"), "count"),
        "conform.explore_s": (self_s("conform.explore"), "s"),
        "conform.schedules": (schedules, "count"),
        "conform.pruned": (pruned, "count"),
        "conform.prune_ratio": (_ratio(pruned, schedules + pruned),
                                "ratio"),
        "conform.invariants_s": (self_s("conform.invariants"), "s"),
        "conform.invariant_checks": (calls("conform.invariants"), "count"),
        "conform.host_ms_per_schedule": (
            _ratio(incl_ns("conform.explore") / 1e6, schedules), "ms"),
        "sec.audit_s": (self_s("sec.audit"), "s"),
        "sec.audits": (calls("sec.audit"), "count"),
        "core.fork_s": (self_s("core.fork"), "s"),
        "core.forks": (calls("core.fork"), "count"),
        "core.fault_s": (self_s("core.fault"), "s"),
        "core.faults": (calls("core.fault"), "count"),
        "core.relocate_s": (self_s("core.relocate"), "s"),
        "kernel.spawn_s": (self_s("kernel.spawn"), "s"),
        "kernel.spawns": (calls("kernel.spawn"), "count"),
        "kernel.syscall_s": (self_s("kernel.syscall"), "s"),
        "kernel.syscalls": (calls("kernel.syscall"), "count"),
        "hw.boot_s": (self_s("hw.boot"), "s"),
        "hw.machine_boots": (calls("hw.boot"), "count"),
        "hw.copy_frames_s": (self_s("hw.copy_frames"), "s"),
        "hw.frames_copied": (copied, "count"),
        "hw.frame_allocs": (calls("hw.alloc") + copied, "count"),
        "cheri.codec_s": (self_s("cheri.codec"), "s"),
        "cheri.codec_calls": (calls("cheri.codec"), "count"),
        "apps.guest_mem_s": (self_s("apps.guest_mem"), "s"),
        "apps.guest_mem_calls": (calls("apps.guest_mem"), "count"),
        "trace.overhead_frac": (
            _ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio"),
        "unattributed_s": (
            (traced_wall_ns - attributed_ns) / 1e9, "s"),
    }
