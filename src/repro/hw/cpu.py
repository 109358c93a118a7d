"""CPU core model.

A :class:`Core` is one hardware thread's private state: its TLB and its
per-CPU schedule timeline.  Context switches are charged by the
kernel's :class:`repro.kernel.sched.Scheduler` (which also flushes the
core's TLB on a multi-address-space OS); the discrete-event machinery
of the concurrency experiments (Figs 6 and 7) lives in
:mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Any

from repro.hw.tlb import TLB


class Core:
    """One hardware thread."""

    def __init__(self, machine: Any, core_id: int) -> None:
        self.machine = machine
        self.core_id = core_id
        #: this core's private TLB (cross-core invalidation goes
        #: through the shootdown protocol, :mod:`repro.smp.ipi`)
        self.tlb = TLB(machine, cpu_id=core_id)
        #: per-CPU schedule timeline (ns), maintained by
        #: :class:`repro.smp.exec.SmpExecutor`
        self.local_ns: float = 0.0
        self.busy_ns: float = 0.0
        self.idle_ns: float = 0.0
        self.steps = 0
