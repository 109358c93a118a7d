"""MonolithicOS: the CheriBSD-like multi-address-space baseline.

The paper compares μFork against "a classical POSIX fork on a
CHERI-enabled FreeBSD" (§5).  The behaviours that matter to the
comparison, all modeled mechanistically:

* each process owns an **address space**; fork duplicates the page
  table entry-by-entry (cost scales with mapped pages — the Fig 4
  growth) and marks writable pages copy-on-write;
* no relocation is ever needed — parent and child share virtual
  addresses — so plain CoW is safe (the child reads shared pages
  freely);
* syscalls **trap** (higher fixed entry cost than sealed-gate entry),
  and context switches across address spaces flush the TLB;
* processes link against **shared libraries**: text pages shared
  machine-wide, plus per-process private pages for relocations/PLT and
  dynamic-linker state (why a minimal CheriBSD process is heavier in
  Fig 8);
* the pure-capability userland **allocator re-touches a fraction of the
  used heap in the child** after fork (arena and revocation-bitmap
  bookkeeping).  The paper itself flags this: a forked Redis child
  consumes 56 MB on CheriBSD vs 7 MB on aarch64 Linux, "likely
  something which can be reduced with further optimization" (§5.1).
  The fraction is a documented calibration knob.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.cheri.capability import Capability, Perm
from repro.core.relocate import record_flow
from repro.core.uprocess import (
    init_image_contents,
    initial_registers,
    make_heap_allocator,
    map_image_segments,
)
from repro.hw.paging import AccessKind, AddressSpace, PagePerm
from repro.kernel.base import AbstractOS, SharedMemoryObject
from repro.kernel.fdtable import FDTable
from repro.kernel.syscalls import IsolationConfig
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import ProgramImage, SegmentMap

#: every process is loaded at the same base address (no relocation ever)
PROCESS_BASE = 0x0000_0000_0040_0000

#: shared-library text/rodata mapped into every process (libc & friends)
SHARED_LIB_PAGES = 80
#: per-process private library state: GOT/PLT relocations, ld-elf data,
#: locale tables, jemalloc bootstrap arenas
PRIVATE_LIB_PAGES = 28


def handle_cow_fault(space: AddressSpace, vaddr: int,
                     kind: AccessKind) -> bool:
    """Classic copy-on-write break (no relocation: same VA both sides)."""
    if kind is not AccessKind.WRITE:
        return False
    machine = space.machine
    # PTE state is shared between parent and child; on SMP the break
    # runs under the fault spinlock (free at 1 CPU).
    with machine.locks.fault.held():
        vpn = vaddr // machine.config.page_size
        entry = space.entry(vpn)
        if entry is None or not entry[2]:
            return False
        frame, perms = entry[0], entry[1]
        if machine.phys.refcount(frame) > 1:
            new_frame = machine.phys.copy_frame(frame, preserve_tags=True)
            space.replace_frame(vpn, new_frame)
            machine.counters.add("cow_page_copies")
        machine.obs.count("baselines.monolithic.cow_breaks")
        space.protect_page(vpn, perms | PagePerm.WRITE)
        space.set_cow(vpn, False)
        return True


class MonolithicOS(AbstractOS):
    """CheriBSD-like baseline."""

    kind = "cheribsd"

    KERNEL_PROC_OVERHEAD = 96 * 1024

    #: fraction of used heap pages the child's allocator re-touches
    #: after fork (see module docstring)
    allocator_child_touch_fraction = 0.55

    #: fixed fork-path cost; subclasses (lighter kernels) may override
    FORK_FIXED_ATTR = "monolithic_fork_fixed_ns"
    #: whether processes link shared libraries (unikernel-style
    #: subclasses are statically linked)
    MAPS_LIBRARIES = True

    def __init__(self, machine: Optional[Machine] = None,
                 isolation: Optional[IsolationConfig] = None,
                 trapless_syscalls: bool = False) -> None:
        super().__init__(
            machine=machine,
            trapless_syscalls=trapless_syscalls,
            isolation=isolation or IsolationConfig.full(),
            same_address_space=False,
        )
        self.kernel_root = Capability.root(self.machine.config.va_size)
        #: shared library frames (allocated on first spawn, refcounted
        #: into every process)
        self._lib_frames: List[int] = []
        #: the syscall gate concept does not exist here; processes trap
        self.syscall_gate = None

    # ------------------------------------------------------------------
    # AbstractOS interface
    # ------------------------------------------------------------------

    def space_of(self, proc: Process) -> AddressSpace:
        return proc.space

    def spawn(self, image: ProgramImage, name: str) -> Process:
        machine = self.machine
        page = machine.config.page_size

        space = AddressSpace(machine, f"as-{name}")
        space.fault_handler = handle_cow_fault
        layout = SegmentMap(image, PROCESS_BASE, page)

        proc = Process(self.pids.allocate(), name)
        proc.space = space
        proc.layout = layout
        proc.fdtable = FDTable()

        map_image_segments(machine, space, layout)
        if self.MAPS_LIBRARIES:
            lib_top = self._map_libraries(space, layout.region_top)
        else:
            lib_top = layout.region_top
        proc.region_base = layout.region_base
        proc.region_top = lib_top

        region_cap = (
            self.kernel_root
            .set_bounds(layout.region_base, lib_top - layout.region_base)
            .without_perms(Perm.SYSTEM | Perm.SEAL | Perm.UNSEAL)
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
        record_flow(machine, "spawn", 0, proc.pid,
                    proc.region_base, proc.region_top)
        return proc

    def _map_libraries(self, space: AddressSpace, base: int) -> int:
        """Map shared-library text (machine-wide frames) plus private
        library data pages; returns the new region top."""
        machine = self.machine
        page = machine.config.page_size
        if not self._lib_frames:
            self._lib_frames = [
                machine.phys.alloc(zero=True, charge=False)
                for _ in range(SHARED_LIB_PAGES)
            ]
        vpn = base // page
        for frame in self._lib_frames:
            space.map_page(vpn, frame, PagePerm.rx(), incref=True)
            vpn += 1
        for _ in range(PRIVATE_LIB_PAGES):
            frame = machine.phys.alloc(zero=True, charge=False)
            space.map_page(vpn, frame, PagePerm.rwc())
            vpn += 1
        return vpn * page

    # ------------------------------------------------------------------
    # fork: page-table duplication + classic CoW
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """Classic fork: duplicate the page table entry-by-entry and
        mark writable pages CoW.  Observability: phases run inside
        ``fixed`` / ``pte_copy`` / ``registers`` / ``allocator`` spans
        under the caller's ``syscall.fork`` span."""
        machine = self.machine
        with machine.locks.fork.held():
            return self._fork_locked(proc)

    def _fork_locked(self, proc: Process) -> Process:
        machine = self.machine
        obs = machine.obs
        with obs.span("fixed"):
            machine.charge(getattr(machine.costs, self.FORK_FIXED_ATTR),
                           "fork_fixed")

        child = Process(self.pids.allocate(), proc.name, parent=proc)
        child.layout = proc.layout
        child.region_base = proc.region_base
        child.region_top = proc.region_top
        child.fdtable = proc.fdtable.fork_copy(machine)
        from repro.kernel import signals as _signals
        child.signal_state = _signals.signal_state(proc).fork_copy()

        child_space = AddressSpace(machine, f"as-{proc.name}-{child.pid}")
        child_space.fault_handler = handle_cow_fault
        shm_vpns = getattr(proc, "shm_vpns", set())
        space = proc.space
        with obs.span("pte_copy"):
            for vpn, frame, perms, cow, _note in \
                    space.mapped_items(0, self.machine.config.va_pages):
                machine.charge(machine.costs.pte_copy_ns, "fork_pte_copy")
                if vpn in shm_vpns:
                    # MAP_SHARED memory survives fork shared and
                    # writable on both sides (POSIX): same frames, no
                    # copy-on-write
                    child_space.map_page(vpn, frame, perms, incref=True)
                elif perms & PagePerm.WRITE:
                    # mark both sides CoW
                    perms &= ~PagePerm.WRITE
                    space.protect_page(vpn, perms)
                    space.set_cow(vpn, True)
                    child_space.map_page(vpn, frame, perms, incref=True,
                                         cow=True)
                else:
                    child_space.map_page(vpn, frame, perms, incref=True,
                                         cow=cow)
        child.space = child_space
        # shared-memory bindings carry over (same VAs: no rebase needed)
        child.shm_vpns = set(shm_vpns)
        child.shm_bindings = list(getattr(proc, "shm_bindings", []))
        child.mmap_offset = getattr(proc, "mmap_offset", 0)

        # §2.2: the monolithic kernel tracks no per-process CPU
        # footprint, so after write-protecting the parent's pages it
        # must conservatively broadcast the shootdown to every other
        # online CPU — the cost that makes classic fork scale with core
        # count while μFork's footprint-bounded variant does not.
        if machine.num_cpus > 1:
            machine.tlb_shootdown(range(machine.num_cpus),
                                  reason="fork_cow")

        # registers copy verbatim: identical virtual addresses
        task = child.add_task()
        with obs.span("registers"):
            task.registers.copy_from(proc.main_task().registers)

        with obs.span("allocator"):
            child.allocator = type(proc.allocator)(
                machine, child_space, proc.allocator.heap_cap,
                max_blocks=proc.allocator.max_blocks,
            )
            child.allocator.attach_lazy()
        #: deferred allocator arena re-touch (runs when the child starts)
        child._pending_allocator_touch = True

        self.procs.add(child)
        self.sched.add(task)
        machine.counters.add("fork")
        obs.count("baselines.monolithic.forks")
        record_flow(machine, "fork", proc.pid, child.pid,
                    child.region_base, child.region_top, "monolithic")
        return child

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        if getattr(proc, "_pending_allocator_touch", False):
            proc._pending_allocator_touch = False
            self._child_allocator_touch(proc)
        return super().syscall(proc, name, *args, gate=gate)

    def _child_allocator_touch(self, proc: Process) -> None:
        """The pure-capability allocator's post-fork bookkeeping: write
        to a fraction of the used heap pages, breaking their CoW."""
        machine = self.machine
        page = machine.config.page_size
        allocator = proc.allocator
        used = allocator.used_bytes()
        used_pages = used // page
        touch = int(used_pages * self.allocator_child_touch_fraction)
        if touch <= 0:
            return
        data_base = allocator.data_base
        space = proc.space
        touched = 0
        for step in range(touch):
            index = step * used_pages // touch
            vpn = (data_base + index * page) // page
            entry = space.entry(vpn)
            if entry is None or not entry[2]:
                continue
            frame, perms = entry[0], entry[1]
            # the allocator writes bookkeeping words into the page: one
            # CoW fault + private copy (tag-preserving, like hardware)
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            if machine.phys.refcount(frame) > 1:
                new_frame = machine.phys.copy_frame(frame,
                                                    preserve_tags=True)
                space.replace_frame(vpn, new_frame)
                machine.counters.add("cow_page_copies")
            space.protect_page(vpn, perms | PagePerm.WRITE)
            space.set_cow(vpn, False)
            touched += 1
        machine.counters.add("allocator_touch_pages", touched)
        machine.obs.count("baselines.monolithic.allocator_touch_pages",
                          touched)

    # ------------------------------------------------------------------
    # Exit / metrics
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        machine = self.machine
        machine.charge(machine.costs.monolithic_exit_ns, "exit")
        proc.space.unmap_range(0, self.machine.config.va_pages)

    def memory_of(self, proc: Process) -> float:
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

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def _map_shared(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        page = self.machine.config.page_size
        offset = getattr(proc, "mmap_offset", 0)
        window_base, window_top = proc.layout.span("mmap")
        base = window_base + offset
        size = shm.size_pages * page
        if base + size > window_top:
            from repro.errors import OutOfMemory
            raise OutOfMemory("mmap window exhausted")
        proc.mmap_offset = offset + size
        vpns = []
        for index, frame in enumerate(shm.frames):
            vpn = base // page + index
            proc.space.map_page(vpn, frame, PagePerm.rwc(), incref=True)
            vpns.append(vpn)
        if not hasattr(proc, "shm_vpns"):
            proc.shm_vpns = set()
            proc.shm_bindings = []
        proc.shm_vpns.update(vpns)
        proc.shm_bindings.append((base - window_base, shm))
        # like the SASOS kernels, shared windows are a capability
        # firewall: data flows, tagged authority does not
        return (
            self.kernel_root
            .set_bounds(base, size)
            .with_cursor(base)
            .and_perms(Perm.data_rw())
            .without_perms(Perm.LOAD_CAP | Perm.STORE_CAP)
        )
