"""UForkOS: the single-address-space OS with μFork.

Walks the paper's design end to end: one address space shared by the
kernel and every μprocess (§3.7); fork by copying the parent μprocess's
memory to a freshly reserved contiguous area (§3.5); eager copy +
relocation of GOT and allocator-metadata pages; lazy CoA/CoPA sharing
for everything else (§3.8); CHERI-bounded capabilities and sealed
syscall gates for isolation (§4.3, §4.4).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from repro.chaos.faults import InjectedForkFailure
from repro.chaos.recovery import Transaction
from repro.cheri.capability import Capability, Perm
from repro.core.isolation import (
    IsolationConfig,
    make_syscall_gate,
)
from repro.core.relocate import (
    RegionPair,
    record_flow,
    relocate_copied_frames,
    relocate_registers,
)
from repro.core.strategies import (
    CopyStrategy,
    ShareNote,
    copy_page_for_child,
    handle_fork_fault,
    handle_fork_write_run,
    resolve_all_pending,
    setup_shared_page,
    setup_shared_pages,
)
from repro.core.uprocess import load_uprocess
from repro.hw.paging import AddressSpace, PagePerm
from repro.kernel.base import AbstractOS, SharedMemoryObject
from repro.kernel.syscalls import IsolationLevel, check_syscall_gate
from repro.kernel.task import Process
from repro.machine import Machine
from repro.mem.layout import ProgramImage
from repro.mem.vspace import VirtualAreaAllocator

#: kernel image location in the single address space
KERNEL_BASE = 0x0000_0001_0000_0000
KERNEL_SIZE = 16 * 1024 * 1024
#: the syscall-handler entry point targeted by sealed gates
GATE_ADDR = KERNEL_BASE + 0x1000
#: pages of kernel code/data actually mapped (for accounting)
KERNEL_MAPPED_PAGES = 64

#: window of the address space dedicated to μprocess regions
UPROC_WINDOW_BASE = 0x0000_0100_0000_0000
UPROC_WINDOW_SIZE = 1 << 40  # 1 TiB of VA: fragmentation is a non-issue (§6)


class UForkOS(AbstractOS):
    """A Unikraft-like SASOS extended with μFork."""

    kind = "ufork"

    #: kernel-side per-process overhead (task struct, kernel stack,
    #: fd table) counted by the memory metric
    KERNEL_PROC_OVERHEAD = 48 * 1024

    def __init__(self, machine: Optional[Machine] = None,
                 copy_strategy: CopyStrategy = CopyStrategy.COPA,
                 isolation: Optional[IsolationConfig] = None,
                 aslr: bool = False,
                 trapless_syscalls: bool = True,
                 eager_copy: bool = True) -> None:
        super().__init__(
            machine=machine,
            trapless_syscalls=trapless_syscalls,
            isolation=isolation or IsolationConfig.fault(),
            same_address_space=True,
        )
        self.copy_strategy = copy_strategy
        #: §3.5 step 1: proactively copy GOT + allocator-metadata pages
        #: at fork.  Disabling this is an ablation: still *correct*
        #: under CoA/CoPA (the faults catch every stale reference) but
        #: moves the cost to the child's first touches.
        self.eager_copy = eager_copy
        machine = self.machine

        #: the one address space (kernel + all μprocesses)
        self.space = AddressSpace(machine, "sasos")
        self.space.fault_handler = self._handle_fault
        self.space.write_break_hook = handle_fork_write_run
        #: pid -> (lo, hi) demand-zero heap ranges (dynamic heaps, §4.2)
        self._demand_zero = {}

        self.kernel_root = Capability.root(machine.config.va_size)
        from repro.core.libraries import LibraryRegistry
        self.libraries = LibraryRegistry(machine)
        self.vspace = VirtualAreaAllocator(
            UPROC_WINDOW_BASE, UPROC_WINDOW_SIZE, machine.config.page_size,
            aslr_rng=machine.rng if aslr else None,
        )
        self._boot()

    # ------------------------------------------------------------------
    # Boot (§4.1: init capability features, exception vectors, gates)
    # ------------------------------------------------------------------

    def _boot(self) -> None:
        page = self.machine.config.page_size
        for index in range(KERNEL_MAPPED_PAGES):
            frame = self.machine.phys.alloc(zero=True, charge=False)
            # PagePerm.NONE: μprocess access to kernel memory faults;
            # the kernel itself uses privileged accesses.
            self.space.map_page(KERNEL_BASE // page + index, frame,
                                PagePerm.NONE)
        self.kernel_code_cap = (
            self.kernel_root
            .set_bounds(KERNEL_BASE, KERNEL_SIZE)
            .with_cursor(KERNEL_BASE)
        )
        self.syscall_gate = make_syscall_gate(self.kernel_code_cap, GATE_ADDR)

    # ------------------------------------------------------------------
    # AbstractOS interface
    # ------------------------------------------------------------------

    def space_of(self, proc: Process) -> AddressSpace:
        return self.space

    def spawn(self, image: ProgramImage, name: str) -> Process:
        proc = load_uprocess(self, image, name)
        from repro.core.libraries import map_library
        for lib_name in getattr(image, "shared_libs", ()):
            lib = self.libraries.get_or_create(lib_name)
            map_library(self, proc, lib)
        return proc

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        """Kernel entry: through the sealed sentry gate when isolation
        is enabled (§4.4 principle 1)."""
        if self.isolation.level is not IsolationLevel.NONE:
            check_syscall_gate(proc,
                               gate if gate is not None else proc.syscall_gate)
        return super().syscall(proc, name, *args, gate=gate)

    # ------------------------------------------------------------------
    # Fault dispatch: fork-sharing faults, then demand-zero heap paging
    # ------------------------------------------------------------------

    def _handle_fault(self, space: AddressSpace, vaddr: int, kind) -> bool:
        # CoW/CoPA fault resolution mutates shared PTE state, so on an
        # SMP machine it runs under the fault spinlock (free at 1 CPU).
        machine = self.machine
        if machine.num_cpus <= 1:
            # CONFIG_SMP=n: acquire/release are no-ops at 1 CPU, so
            # only the guard's IRQ-disable section is kept (inline —
            # the fault path runs this once per CoW break)
            machine.irq_depth += 1
            try:
                if handle_fork_fault(space, vaddr, kind):
                    return True
                return self._handle_demand_zero(vaddr)
            finally:
                machine.irq_depth -= 1
        with machine.locks.fault.held():
            if handle_fork_fault(space, vaddr, kind):
                return True
            return self._handle_demand_zero(vaddr)

    def _handle_demand_zero(self, vaddr: int) -> bool:
        page = self.machine.config.page_size
        vpn = vaddr // page
        if self.space.frame_of(vpn) is not None:
            return False
        for lo, hi in self._demand_zero.values():
            if lo <= vaddr < hi:
                frame = self.machine.phys.alloc(zero=True)
                self.space.map_page(vpn, frame, PagePerm.rwc())
                self.machine.counters.add("demand_zero_pages")
                return True
        return False

    def _register_demand_heap(self, proc: Process) -> None:
        if proc.layout.image.heap_initial is None:
            return
        heap_base, heap_top = proc.layout.span("heap")
        self._demand_zero[proc.pid] = (heap_base, heap_top)

    # ------------------------------------------------------------------
    # μFork itself (§3.5)
    # ------------------------------------------------------------------

    def fork(self, proc: Process) -> Process:
        """μFork (§3.5).  Observability: phases run inside ``fixed`` /
        ``resolve_pending`` / ``copy_pages`` / ``registers`` /
        ``allocator`` spans, so one fork's simulated cost decomposes
        hierarchically under its ``syscall.fork`` span (the paper's
        cost-model tree; see docs/OBSERVABILITY.md for a worked
        example).

        Fork is **transactional**: every mutation registers an undo, and
        a fork that dies mid-flight (an injected ``core.ufork.abort.*``
        fault, frame exhaustion, or any other error) is rolled back —
        no orphaned frames, VA reservations, PIDs, or fd-table entries
        survive (docs/CHAOS.md, tests/test_fork_rollback.py).  Injected
        failures re-raise as the retriable
        :class:`~repro.chaos.InjectedForkFailure` so the syscall layer's
        bounded retry can re-attempt the whole fork."""
        machine = self.machine
        strategy = self._effective_strategy(machine.chaos)
        tx = Transaction()
        # Fork serializes against concurrent forks/faults on other CPUs
        # (a no-op spinlock while num_cpus == 1).
        with machine.locks.fork.held():
            try:
                child = self._fork_phases(proc, strategy, tx)
            except Exception as exc:
                tx.rollback()
                machine.counters.add("fork_rollbacks")
                machine.obs.count("core.ufork.fork_rollbacks")
                machine.obs.count("trace.fork_rollback")
                point = getattr(exc, "point", None)
                if point is not None:
                    machine.chaos.note_recovery(point)
                if getattr(exc, "injected", False) and \
                        not isinstance(exc, InjectedForkFailure):
                    raise InjectedForkFailure(
                        f"fork of pid {proc.pid} aborted by injected fault "
                        f"({exc})") from exc
                raise
            tx.commit()
        return child

    def _effective_strategy(self, chaos: Any) -> CopyStrategy:
        """Graceful degradation (chaos survival): under an injected
        capability-load fault storm the lazy strategies fall down the
        ladder CoPA → CoA → eager copy, trading fork-time cost for
        immunity to further lazy-path faults."""
        configured = self.copy_strategy
        tiers = chaos.degrade_tiers()
        if tiers <= 0:
            return configured
        ladder = (CopyStrategy.COPA, CopyStrategy.COA,
                  CopyStrategy.FULL_COPY)
        index = ladder.index(configured)
        degraded = ladder[min(index + tiers, len(ladder) - 1)]
        if degraded is not configured:
            self.machine.obs.count("core.ufork.degraded_forks")
            self.machine.obs.count("trace.fork_degraded")
        return degraded

    def _abort_point(self, point: str, proc: Process) -> None:
        """Fire one chaos fork-abort boundary (phase-transition check)."""
        chaos = self.machine.chaos
        if chaos.enabled and chaos.should_fire(point):
            failure = InjectedForkFailure(
                f"injected fork abort at {point} (parent pid {proc.pid})")
            failure.point = point
            raise failure

    def _fork_phases(self, proc: Process, strategy: CopyStrategy,
                     tx: Transaction) -> Process:
        machine = self.machine
        obs = machine.obs
        page = machine.config.page_size
        with obs.span("fixed"):
            machine.charge(machine.costs.ufork_fixed_ns, "fork_fixed")

        # A process forking while some of its own pages are still shared
        # with *its* parent first stabilizes its image, keeping every
        # relocation a single-hop rebase.  (Resolving only makes shared
        # pages private — an always-valid state — so no undo is needed.)
        with obs.span("resolve_pending"):
            resolve_all_pending(self.space, proc.region_base, proc.region_top)

        # 1. reserve the child's contiguous area and mirror the layout
        child_base = self.vspace.reserve(proc.region_size)
        tx.on_abort(lambda: self.vspace.release(child_base))
        child = Process(self.pids.allocate(), proc.name, parent=proc)
        tx.on_abort(lambda: proc.children.remove(child))
        child.layout = proc.layout.rebased(child_base)
        child.region_base = child.layout.region_base
        child.region_top = child.layout.region_top
        child.fdtable = proc.fdtable.fork_copy(machine)
        tx.on_abort(child.fdtable.close_all)
        from repro.kernel import signals as _signals
        child.signal_state = _signals.signal_state(proc).fork_copy()
        child.syscall_gate = self.syscall_gate
        self._abort_point("core.ufork.abort.reserve", proc)

        regions = RegionPair(
            parent_base=proc.region_base, parent_top=proc.region_top,
            child_base=child.region_base, child_top=child.region_top,
        )
        delta_pages = (child.region_base - proc.region_base) // page

        # 2. duplicate parent state page by page
        if self.eager_copy or strategy is CopyStrategy.FULL_COPY:
            eager = self._eager_vpns(proc)
        else:
            eager = set()
        shm_vpns = getattr(proc, "shm_vpns", set())
        lo = proc.region_base // page
        hi = proc.region_top // page
        # undo: unmap whatever landed in the child's region and lift the
        # write protection this fork placed on parent pages (registered
        # up front so an abort *inside* the loop still cleans up)
        newly_shared: List[int] = []
        tx.on_abort(lambda: self._undo_fork_pages(child, newly_shared))
        with obs.span("copy_pages"):
            if not self._copy_pages_bulk(strategy, regions, delta_pages,
                                         eager, shm_vpns, lo, hi,
                                         newly_shared):
                # the body edits only the parent vpn it visits and child
                # vpns outside [lo, hi), so the snapshot stays exact
                for vpn, frame, perms, _cow, note in \
                        self.space.mapped_items(lo, hi):
                    child_vpn = vpn + delta_pages
                    if vpn in shm_vpns:
                        # MAP_SHARED memory: same frames, by design (§3.7)
                        self.space.map_page(child_vpn, frame, perms,
                                            incref=True)
                        machine.charge(machine.costs.pte_bulk_share_ns,
                                       "fork_map")
                    elif vpn in eager or \
                            strategy is CopyStrategy.FULL_COPY:
                        orig = (note.orig_perms
                                if isinstance(note, ShareNote)
                                else PagePerm(perms))
                        copy_page_for_child(self.space, child_vpn, frame,
                                            orig, regions, map_new=True)
                    else:
                        setup_shared_page(self.space, vpn, child_vpn,
                                          strategy, regions)
                        if not isinstance(note, ShareNote):
                            newly_shared.append(vpn)
        self._abort_point("core.ufork.abort.copy_pages", proc)

        # §2.2: μFork knows the μprocess's CPU footprint, so the
        # write-protect shootdown covers only CPUs that may cache its
        # translations — for a single-threaded parent that never
        # migrated, that is zero IPIs (the initiating CPU flushes
        # locally as part of the PTE updates above).
        if machine.num_cpus > 1:
            machine.tlb_shootdown(proc.cpu_footprint(),
                                  reason="fork_protect")

        # shared-memory bindings carry over to the child's region
        child.shm_vpns = {vpn + delta_pages for vpn in shm_vpns}
        child.shm_bindings = list(getattr(proc, "shm_bindings", []))
        child.mmap_offset = getattr(proc, "mmap_offset", 0)
        # shared-library capabilities point at the child's own mapping
        delta = child.region_base - proc.region_base
        child.lib_caps = {
            name: cap.rebased(delta)
            for name, cap in getattr(proc, "lib_caps", {}).items()
        }

        # 3. post-copy phase: new task, relocated registers, allocator
        task = child.add_task()
        with obs.span("registers"):
            task.registers.copy_from(proc.main_task().registers)
            relocate_registers(machine, task.registers, regions)
        self._abort_point("core.ufork.abort.registers", proc)

        with obs.span("allocator"):
            heap_cap = (
                self.kernel_root
                .set_bounds(child.layout.base("heap"),
                            child.layout.size("heap"))
                .with_cursor(child.layout.base("heap"))
                .and_perms(Perm.data_rw())
            )
            child.allocator = type(proc.allocator)(
                machine, self.space, heap_cap,
                max_blocks=proc.allocator.max_blocks,
            )
            child.allocator.attach_lazy()
        self._abort_point("core.ufork.abort.allocator", proc)

        self._register_demand_heap(child)
        self.procs.add(child)
        self.sched.add(task)
        machine.counters.add("fork")
        obs.count("core.ufork.forks")
        obs.count("trace.fork")
        record_flow(machine, "fork", proc.pid, child.pid,
                    child.region_base, child.region_top, strategy.value)
        return child

    def _copy_pages_bulk(self, strategy: CopyStrategy, regions: RegionPair,
                         delta_pages: int, eager: Set[int],
                         shm_vpns: Set[int], lo: int, hi: int,
                         newly_shared: List[int]) -> bool:
        """Vectorized page-duplication phase (see docs/ARCHITECTURE.md).

        One region sweep classifies every mapping, then each class is
        handled with bulk primitives: shared-memory pages and eager
        copies become ``map_run`` slices over batch-copied frames, and
        CoA/CoPA sharing goes through
        :func:`repro.core.strategies.setup_shared_pages`.  The
        simulated charge/counter stream is sum-equal to the per-page
        loop (each batched charge is the rounded per-page cost times the
        count), so it is only taken when batching is unobservable:
        chaos off and enough free frames that the loop cannot hit
        mid-copy OOM (whose partial state the per-page loop must
        reproduce).
        Returns False when the caller must run the per-page loop.
        """
        machine = self.machine
        space = self.space
        if machine.chaos.enabled:
            return False
        full = strategy is CopyStrategy.FULL_COPY
        shm_items: List[Any] = []
        copy_items: List[Any] = []
        share_items: List[Any] = []
        for item in space.mapped_items(lo, hi):
            vpn = item[0]
            if vpn in shm_vpns:
                shm_items.append(item)
            elif full or vpn in eager:
                copy_items.append(item)
            else:
                share_items.append((vpn, item[1], item[2], item[4]))
        phys = machine.phys
        if copy_items and phys.free_frames() < len(copy_items):
            return False
        bulk_ns = int(round(machine.costs.pte_bulk_share_ns))

        # MAP_SHARED memory: same frames, by design (§3.7)
        position = 0
        nshm = len(shm_items)
        while position < nshm:
            vpn, _frame, perms_int, _cow, _note = shm_items[position]
            end = position + 1
            while end < nshm and \
                    shm_items[end][0] == vpn + (end - position) and \
                    shm_items[end][2] == perms_int:
                end += 1
            space.map_run(vpn + delta_pages,
                          [item[1] for item in shm_items[position:end]],
                          PagePerm(perms_int), incref=True)
            position = end
        if nshm:
            machine.charge(bulk_ns * nshm, "fork_map")

        # eager / full copies: batch-copy the frames, relocate, then
        # map the child runs at the original (pre-share) permissions
        ncopy = len(copy_items)
        if ncopy:
            src_numbers = [item[1] for item in copy_items]
            dsts = phys.copy_frames(src_numbers, preserve_tags=True)
            relocate_copied_frames(machine, phys, src_numbers, dsts,
                                   regions)
            position = 0
            while position < ncopy:
                vpn, _frame, perms_int, _cow, note = copy_items[position]
                orig = int(note.orig_perms) if isinstance(note, ShareNote) \
                    else perms_int
                end = position + 1
                while end < ncopy:
                    nvpn, _nframe, nperms, _ncow, nnote = copy_items[end]
                    if nvpn != vpn + (end - position):
                        break
                    norig = int(nnote.orig_perms) \
                        if isinstance(nnote, ShareNote) else nperms
                    if norig != orig:
                        break
                    end += 1
                space.map_run(vpn + delta_pages, dsts[position:end],
                              PagePerm(orig))
                position = end
            machine.charge(bulk_ns * ncopy, "fork_map")
            machine.counters.add("fork_page_copies", ncopy)
            obs = machine.obs
            if obs.enabled:
                obs.count("core.strategies.eager_page_copies", ncopy)
                obs.count("trace.fork_page_copy", ncopy)

        if share_items:
            setup_shared_pages(space, share_items, delta_pages, strategy,
                               regions, newly_shared)
        return True

    def _undo_fork_pages(self, child: Process, newly_shared: List[int]) -> None:
        """Rollback of the page-duplication phase: unmap every page the
        aborted fork mapped into the child's region (dropping its frame
        references) and restore original permissions on parent pages it
        write-protected (``newly_shared`` holds their vpns)."""
        page = self.machine.config.page_size
        self.space.unmap_range(child.region_base // page,
                               child.region_top // page)
        for vpn in newly_shared:
            note = self.space.note_of(vpn)
            if isinstance(note, ShareNote):
                self.space.protect_page(vpn, note.orig_perms)
                self.space.set_note(vpn, None)

    def _eager_vpns(self, proc: Process) -> Set[int]:
        """Pages copied proactively at fork: GOT + allocator metadata
        (§3.5 step 1)."""
        page = self.machine.config.page_size
        vpns: Set[int] = set()
        got_base, got_top = proc.layout.span("got")
        vpns.update(range(got_base // page, got_top // page))
        if proc.allocator is not None:
            meta_base, meta_top = proc.allocator.metadata_span()
            vpns.update(range(meta_base // page,
                              (meta_top + page - 1) // page))
        return vpns

    # ------------------------------------------------------------------
    # Exit / teardown
    # ------------------------------------------------------------------

    def _teardown_memory(self, proc: Process) -> None:
        machine = self.machine
        page = machine.config.page_size
        self._demand_zero.pop(proc.pid, None)
        machine.charge(machine.costs.uexit_ns, "exit")
        self.space.unmap_range(proc.region_base // page,
                               proc.region_top // page)
        self.vspace.release(proc.region_base)

    # ------------------------------------------------------------------
    # Anonymous mmap and shared memory (§3.7, §4.2)
    # ------------------------------------------------------------------

    def sys_mmap(self, proc: Process, size: int) -> Capability:
        """Anonymous private mapping inside the caller's mmap window;
        returns a capability confined to the calling μprocess (§4.2)."""
        self._enter(proc, "mmap", 1)
        base, pages = self._mmap_window_alloc(proc, size)
        page = self.machine.config.page_size
        for index in range(pages):
            frame = self.machine.phys.alloc(zero=True)
            self.space.map_page(base // page + index, frame, PagePerm.rwc())
        return self._window_cap(proc, base, pages * page)

    def _map_shared(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        base, pages = self._mmap_window_alloc(
            proc, shm.size_pages * self.machine.config.page_size
        )
        page = self.machine.config.page_size
        if pages != shm.size_pages:
            pages = shm.size_pages
        vpns = []
        for index, frame in enumerate(shm.frames):
            vpn = base // page + index
            self.space.map_page(vpn, frame, PagePerm.rwc(), incref=True)
            vpns.append(vpn)
        if not hasattr(proc, "shm_vpns"):
            proc.shm_vpns = set()
            proc.shm_bindings = []
        proc.shm_vpns.update(vpns)
        proc.shm_bindings.append((base - proc.layout.base("mmap"), shm))
        # shared windows carry data authority only: stripping the cap
        # load/store perms makes the window a capability firewall, so a
        # μprocess can never smuggle tagged authority to a peer through
        # shared memory (repro.sec `shm_cap_smuggle`)
        return self._window_cap(proc, base, len(shm.frames) * page) \
            .without_perms(Perm.LOAD_CAP | Perm.STORE_CAP)

    def _mmap_window_alloc(self, proc: Process, size: int):
        page = self.machine.config.page_size
        pages = (size + page - 1) // page
        offset = getattr(proc, "mmap_offset", 0)
        window_base, window_top = proc.layout.span("mmap")
        base = window_base + offset
        if base + pages * page > window_top:
            from repro.errors import OutOfMemory
            raise OutOfMemory("mmap window exhausted")
        proc.mmap_offset = offset + pages * page
        return base, pages

    def _window_cap(self, proc: Process, base: int, size: int) -> Capability:
        region = (
            self.kernel_root
            .set_bounds(base, size)
            .with_cursor(base)
            .and_perms(Perm.data_rw())
        )
        return region

    # ------------------------------------------------------------------
    # Migration / VA compaction (paper §6 future work)
    # ------------------------------------------------------------------

    def migrate(self, proc: Process) -> int:
        """Move a live μprocess to a freshly reserved area, relocating
        every capability (see :mod:`repro.core.migrate`)."""
        from repro.core.migrate import migrate as _migrate
        return _migrate(self, proc)

    def compact(self):
        """Compact the μprocess window (squeeze out VA fragmentation)."""
        from repro.core.migrate import compact as _compact
        return _compact(self)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def memory_of(self, proc: Process) -> float:
        """Proportional resident set of a μprocess plus kernel overhead
        (the Fig 8 metric)."""
        return (
            self.space.resident_bytes(proc.region_base, proc.region_top,
                                      proportional=True)
            + self.KERNEL_PROC_OVERHEAD
        )

    def private_bytes(self, proc: Process) -> int:
        """Bytes of the region backed by frames only this process maps."""
        page = self.machine.config.page_size
        refcount = self.machine.phys.refcount
        return sum(
            page for _vpn, frame, _perms, _cow, _note
            in self.space.mapped_items(proc.region_base // page,
                                       proc.region_top // page)
            if refcount(frame) == 1
        )
