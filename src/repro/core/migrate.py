"""μprocess migration and virtual-address-space compaction.

Paper §6 ("Fragmentation") notes that long-running systems forking many
μprocesses could fragment the VA window, and sketches "compacting the
virtual address space periodically" as future work.  This module
implements that: because μFork already knows how to find and rebase
every absolute reference via tags, *moving* a live μprocess is the same
machinery as forking one — minus the duplicate.

``migrate`` moves one μprocess to a freshly reserved area:

* private pages are remapped to the new address and relocated in place;
* pages still shared with a forked child are *copied* (the child keeps
  the original frame, whose capabilities its own fork-time note knows
  how to relocate), exactly like a parent-side CoW break;
* MAP_SHARED pages are remapped without relocation (their frames are
  shared by design);
* the register file is relocated like a forked child's.

``compact`` walks live μprocesses in address order migrating each to
the lowest-fitting hole, squeezing out fragmentation.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.relocate import (RegionPair, record_flow, relocate_frame,
                                 relocate_registers)
from repro.core.strategies import ShareNote, resolve_all_pending
from repro.cheri.capability import Perm
from repro.kernel.task import Process


def migrate(os: Any, proc: Process) -> int:
    """Move ``proc`` to a newly reserved contiguous area.

    Returns the new region base.  The old area is released.  Capability
    values previously read out of registers/memory by user code are
    stale afterwards (as with a compacting GC); code must re-derive
    pointers from its (relocated) registers.
    """
    machine = os.machine
    page = machine.config.page_size
    machine.charge(machine.costs.ufork_fixed_ns, "migrate_fixed")

    # Stabilize: pages still shared *from our parent* are resolved so
    # every capability reachable from this μprocess points into it.
    resolve_all_pending(os.space, proc.region_base, proc.region_top)

    old_base, old_top = proc.region_base, proc.region_top
    size = old_top - old_base
    new_base = os.vspace.reserve(size)
    regions = RegionPair(parent_base=old_base, parent_top=old_top,
                         child_base=new_base, child_top=new_base + size)
    delta_pages = (new_base - old_base) // page
    shm_vpns = getattr(proc, "shm_vpns", set())

    moved = []
    for vpn, frame, pte_perms, _cow, note in os.space.mapped_items(
            old_base // page, old_top // page):
        new_vpn = vpn + delta_pages
        if vpn in shm_vpns:
            # shared memory: same frame, new address, no relocation
            os.space.map_page(new_vpn, frame, pte_perms, incref=True)
            machine.charge(machine.costs.pte_copy_ns, "migrate_pte")
            moved.append(vpn)
            continue
        shared = machine.phys.refcount(frame) > 1
        perms = note.orig_perms if isinstance(note, ShareNote) \
            else pte_perms
        if shared:
            # a forked child still depends on the original frame: take a
            # private copy for the migrated parent (CoW-break style)
            new_frame = machine.phys.copy_frame(frame, preserve_tags=True)
            machine.counters.add("migrate_page_copies")
        else:
            new_frame = frame
            machine.phys.incref(new_frame)  # balanced by unmap below
            machine.charge(machine.costs.pte_copy_ns, "migrate_pte")
        relocate_frame(machine, machine.phys.frame(new_frame), regions)
        os.space.map_page(new_vpn, new_frame, perms)
        moved.append(vpn)

    for vpn in moved:
        os.space.unmap_page(vpn)
    os.vspace.release(old_base)

    # post-move phase: identity and roots
    proc.layout = proc.layout.rebased(new_base)
    proc.region_base = new_base
    proc.region_top = new_base + size
    proc.shm_vpns = {vpn + delta_pages for vpn in shm_vpns}
    delta = new_base - old_base
    proc.lib_caps = {
        name: cap.rebased(delta)
        for name, cap in getattr(proc, "lib_caps", {}).items()
    }
    for task in proc.tasks:
        relocate_registers(machine, task.registers, regions)

    heap_cap = (
        os.kernel_root
        .set_bounds(proc.layout.base("heap"), proc.layout.size("heap"))
        .with_cursor(proc.layout.base("heap"))
        .and_perms(Perm.data_rw())
    )
    proc.allocator = type(proc.allocator)(
        machine, os.space, heap_cap, max_blocks=proc.allocator.max_blocks,
    )
    proc.allocator.attach_lazy()
    machine.counters.add("migrations")
    machine.obs.count("trace.migrate")
    record_flow(machine, "migrate", proc.pid, proc.pid,
                proc.region_base, proc.region_top)
    return new_base


def compact(os: Any) -> List[Tuple[int, int, int]]:
    """Compact the μprocess window: migrate live μprocesses, lowest
    first, into the lowest holes.  Returns [(pid, old_base, new_base)]
    for every μprocess that moved."""
    moves: List[Tuple[int, int, int]] = []
    for proc in sorted(os.procs.alive(), key=lambda p: p.region_base):
        old_base = proc.region_base
        # first-fit reservation returns the lowest hole; if that is not
        # below us, we are already packed — undo and continue.
        size = proc.region_size
        probe = os.vspace.reserve(size)
        os.vspace.release(probe)
        if probe >= old_base:
            continue
        new_base = migrate(os, proc)
        moves.append((proc.pid, old_base, new_base))
    return moves
