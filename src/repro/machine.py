"""The simulated Morello-like machine.

A :class:`Machine` bundles the shared hardware state — configuration,
cost model, clock, counters, physical memory, capability codec, cores —
that every address space, kernel and application in one experiment uses.
Experiments create one Machine per measured configuration, which keeps
runs hermetic and deterministic.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional

from repro.chaos.engine import NULL_CHAOS
from repro.cheri.codec import CapabilityCodec
from repro.clock import EventCounters, SimClock
from repro.hw.cpu import Core
from repro.hw.phys import PhysicalMemory
from repro.obs import Observability, session_adopt
from repro.params import DEFAULT_COSTS, DEFAULT_MACHINE, CostModel, MachineConfig
from repro.smp.ipi import IpiBus, tlb_shootdown
from repro.smp.locks import KernelLocks

#: every Machine constructed in this interpreter, weakly held — the
#: test suite's leak fixture walks this to audit kernels created inside
#: one test without threading the machine through every helper
_LIVE_MACHINES: "weakref.WeakSet[Machine]" = weakref.WeakSet()


def live_machines() -> List["Machine"]:
    """The machines still alive in this interpreter (audit hook)."""
    return list(_LIVE_MACHINES)


class Machine:
    """Shared simulated-hardware state for one experiment run."""

    #: always True (there is one memory engine); kept because
    #: ``perfbench/layers.py:engine_guards`` reads it
    perf = True

    def __init__(self, config: Optional[MachineConfig] = None,
                 costs: Optional[CostModel] = None, seed: int = 0,
                 num_cpus: int = 1) -> None:
        self.config = config or DEFAULT_MACHINE
        self.costs = costs or DEFAULT_COSTS
        #: online CPUs actually scheduling work (``num_cpus=1``, the
        #: default, is the pre-SMP machine bit for bit; the config's
        #: ``cores`` stays the bookkeeping core count and grows only
        #: when more CPUs are brought online than it has cores)
        self.num_cpus = max(1, int(num_cpus))
        if self.num_cpus > self.config.cores:
            self.config = replace(self.config, cores=self.num_cpus)
        self.clock = SimClock()
        #: unified observability (disabled by default; see :mod:`repro.obs`)
        self.obs = Observability(self.clock)
        session_adopt(self.obs)
        #: fault injection (permanently-disabled null engine by default;
        #: a :class:`repro.chaos.ChaosEngine` installs itself here via
        #: ``engine.attach(machine)`` — see :mod:`repro.chaos`)
        self.chaos = NULL_CHAOS
        self.counters = EventCounters()
        #: machine-wide translation generation: bumped by every TLB
        #: flush and shootdown acknowledgement so the host-side
        #: page-walk caches (:class:`repro.hw.paging.AddressSpace`)
        #: drop entries exactly when simulated TLB state is invalidated
        self.translation_gen = 0
        self.phys = PhysicalMemory(self.config, self.costs, self.clock,
                                   self.counters, obs=self.obs)
        self.codec = CapabilityCodec()
        #: raw-granule relocation memo (see
        #: :func:`repro.core.relocate._relocate_frame_memoised`); keyed
        #: by (region pair, raw bytes), sound because the codec's
        #: intern table is append-only
        self._reloc_memo: dict = {}
        self.cores: List[Core] = [
            Core(self, core_id) for core_id in range(self.config.cores)
        ]
        #: the inter-processor-interrupt bus (see :mod:`repro.smp.ipi`)
        self.ipi = IpiBus(self)
        #: kernel spinlocks (free no-ops while ``num_cpus == 1``)
        self.locks = KernelLocks(self)
        #: CPU the kernel is currently executing on (the SMP executor
        #: flips this around each step)
        self.current_cpu = 0
        #: IRQ-disable nesting depth (see :class:`repro.smp.locks.IrqGuard`)
        self.irq_depth = 0
        #: deterministic randomness source (ASLR etc.)
        self.rng = random.Random(seed)
        #: always None; read only by ``perfbench/layers.py``'s engine guards
        self.tracer = None
        #: optional syscall-boundary tap, called as
        #: ``tap(os, proc, name, args, result, error)`` after every
        #: syscall dispatch (see :mod:`repro.conform`); ``None`` keeps
        #: the hot path a single attribute check
        self.syscall_tap: Optional[Callable[..., None]] = None
        #: kernels booted on this machine, weakly referenced
        self._kernels: List["weakref.ref[Any]"] = []
        _LIVE_MACHINES.add(self)

    def register_kernel(self, os: Any) -> None:
        """Record a kernel booted on this machine (weak, audit-only)."""
        self._kernels.append(weakref.ref(os))

    def kernels(self) -> List[Any]:
        """The still-alive kernels booted on this machine."""
        return [os for os in (ref() for ref in self._kernels)
                if os is not None]

    @property
    def cpus(self) -> List[Core]:
        """The online CPUs (the first ``num_cpus`` cores)."""
        return self.cores[:self.num_cpus]

    def tlb_shootdown(self, targets: Iterable[int],
                      initiator: Optional[int] = None,
                      reason: str = "shootdown") -> int:
        """Ack-based cross-core TLB shootdown (see :mod:`repro.smp.ipi`);
        returns the number of recipient CPUs actually interrupted."""
        return tlb_shootdown(self, targets, initiator=initiator,
                             reason=reason)

    def charge(self, ns: float, bucket: Optional[str] = None) -> None:
        """Charge simulated time (convenience passthrough to the clock)."""
        self.clock.advance(ns, bucket)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(cores={len(self.cores)}, "
            f"now={self.clock.now_us:.1f}us, "
            f"frames={self.phys.allocated_frames})"
        )
