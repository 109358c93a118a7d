"""VMCloneOS: the Nephele-like "OS-as-a-process" baseline.

Nephele (EuroSys '23) supports fork in a unikernel by treating the
whole VM as the process: the hypervisor clones the entire guest — a new
Xen domain is created, guest memory is duplicated, devices reattached.
That makes fork correct but heavy: the paper measures 10.7 ms per fork
and 1.6 MB per minimal process (Fig 8), orders of magnitude above
μFork.

Mechanistic model: each process is a VM whose address space contains
the program image *plus the unikernel kernel pages* (everything gets
cloned); fork pays a fixed domain-creation cost, hypercalls, and a
per-page duplication cost over the whole guest.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.cheri.capability import Capability, Perm
from repro.core.uprocess import (
    init_image_contents,
    initial_registers,
    make_heap_allocator,
    map_image_segments,
)
from repro.hw.paging import AddressSpace, PagePerm
from repro.kernel.base import AbstractOS
from repro.kernel.fdtable import FDTable
from repro.kernel.syscalls import IsolationConfig
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import KiB, MiB, ProgramImage, SegmentMap

#: guest VA where the unikernel image is loaded in every VM
GUEST_BASE = 0x0000_0000_0040_0000

#: unikernel kernel image + runtime state cloned with every VM
GUEST_KERNEL_BYTES = int(1.4 * MiB)


class VMCloneOS(AbstractOS):
    """Nephele-like hypervisor-fork baseline."""

    kind = "nephele"

    #: per-domain hypervisor bookkeeping (domain struct, grant tables)
    KERNEL_PROC_OVERHEAD = 64 * KiB

    def __init__(self, machine: Optional[Machine] = None,
                 isolation: Optional[IsolationConfig] = None) -> None:
        super().__init__(
            machine=machine,
            # the guest is a unikernel: same-EL, cheap internal syscalls
            trapless_syscalls=True,
            isolation=isolation or IsolationConfig.fault(),
            same_address_space=False,  # one address space *per VM*
        )
        self.kernel_root = Capability.root(self.machine.config.va_size)
        self.syscall_gate = None

    # ------------------------------------------------------------------
    # AbstractOS interface
    # ------------------------------------------------------------------

    def space_of(self, proc: Process) -> AddressSpace:
        return proc.space

    def spawn(self, image: ProgramImage, name: str) -> Process:
        machine = self.machine
        page = machine.config.page_size

        space = AddressSpace(machine, f"vm-{name}")
        layout = SegmentMap(image, GUEST_BASE, page)

        proc = Process(self.pids.allocate(), name)
        proc.space = space
        proc.layout = layout
        proc.fdtable = FDTable()

        map_image_segments(machine, space, layout)
        kernel_top = self._map_guest_kernel(space, layout.region_top)
        proc.region_base = layout.region_base
        proc.region_top = kernel_top

        region_cap = (
            self.kernel_root
            .set_bounds(layout.region_base,
                        kernel_top - layout.region_base)
            .without_perms(Perm.SEAL | Perm.UNSEAL)
            .with_cursor(layout.region_base)
        )
        init_image_contents(machine, space, layout, region_cap)
        proc.allocator = make_heap_allocator(machine, space, layout,
                                             region_cap)

        task = proc.add_task()
        for reg_name, value in initial_registers(layout, region_cap).items():
            task.registers.set(reg_name, value)
        self.procs.add(proc)
        self.sched.add(task)
        return proc

    def _map_guest_kernel(self, space: AddressSpace, base: int) -> int:
        """The unikernel's own pages — cloned along with the app."""
        machine = self.machine
        page = machine.config.page_size
        pages = (GUEST_KERNEL_BYTES + page - 1) // page
        vpn = base // page
        for _ in range(pages):
            frame = machine.phys.alloc(zero=True, charge=False)
            space.map_page(vpn, frame, PagePerm.rwc())
            vpn += 1
        return vpn * page

    # ------------------------------------------------------------------
    # fork = clone the whole VM in the hypervisor
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """Clone the whole VM.  Observability: phases run inside
        ``domain_create`` / ``clone_pages`` / ``registers`` /
        ``allocator`` spans under the caller's ``syscall.fork`` span."""
        machine = self.machine
        costs = machine.costs
        obs = machine.obs
        with obs.span("domain_create"):
            # domain creation: the dominant, size-independent cost
            machine.charge(costs.vm_clone_fixed_ns, "vm_clone_fixed")
            # a handful of hypercalls for console/device/grant plumbing
            for _ in range(6):
                machine.charge(costs.hypercall_ns, "hypercall")

        child = Process(self.pids.allocate(), proc.name, parent=proc)
        child.layout = proc.layout
        child.region_base = proc.region_base
        child.region_top = proc.region_top
        child.fdtable = proc.fdtable.fork_copy(machine)
        from repro.kernel import signals as _signals
        child.signal_state = _signals.signal_state(proc).fork_copy()

        child_space = AddressSpace(machine, f"vm-{proc.name}-{child.pid}")
        with obs.span("clone_pages"):
            for vpn, frame, perms, _cow, _note in \
                    proc.space.mapped_items(0, machine.config.va_pages):
                machine.charge(costs.vm_clone_page_ns, "vm_clone_page")
                new_frame = machine.phys.copy_frame(frame,
                                                    preserve_tags=True,
                                                    charge=False)
                child_space.map_page(vpn, new_frame, perms)
        child.space = child_space

        # same guest VA in the clone: registers copy verbatim
        task = child.add_task()
        with obs.span("registers"):
            for name, value in proc.main_task().registers.items():
                task.registers.set(name, value)

        with obs.span("allocator"):
            child.allocator = type(proc.allocator)(
                machine, child_space, proc.allocator.heap_cap,
                max_blocks=proc.allocator.max_blocks,
            )
            child.allocator.attach_lazy()

        self.procs.add(child)
        self.sched.add(task)
        machine.counters.add("fork")
        obs.count("baselines.vmclone.forks")
        return child

    # ------------------------------------------------------------------
    # Exit / metrics
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        machine = self.machine
        # destroying the domain is hypervisor work
        machine.charge(machine.costs.hypercall_ns * 4, "exit")
        machine.charge(machine.costs.monolithic_exit_ns, "exit")
        proc.space.unmap_range(0, machine.config.va_pages)

    def memory_of(self, proc: Process) -> float:
        """A cloned VM shares nothing: its whole guest memory counts."""
        return (
            proc.space.resident_bytes(0, self.machine.config.va_size,
                                      proportional=True)
            + self.KERNEL_PROC_OVERHEAD
        )

    def private_bytes(self, proc: Process) -> int:
        page = self.machine.config.page_size
        refcount = self.machine.phys.refcount
        return sum(
            page for _vpn, frame, _perms, _cow, _note
            in proc.space.mapped_items(0, self.machine.config.va_pages)
            if refcount(frame) == 1
        )
