"""Memory-copy strategies: full copy, Copy-on-Access, Copy-on-Pointer-Access.

Traditional CoW cannot be applied as-is by μFork (§3.8): a page the
child merely *reads* may contain absolute memory references that still
point into the parent, so it must be copied and relocated before the
child can load them.  The three strategies the paper evaluates:

* ``FULL_COPY`` — copy + relocate every parent page synchronously at
  fork (the 23.2 ms / 144 MB upper bound in §5.2);
* ``COA`` — share pages but mark the child's mappings inaccessible:
  *any* child access (and any parent write) triggers copy + relocation;
* ``COPA`` — share pages read-only, using CHERI's fault-on-capability-
  load page bit: parent/child writes and child *capability loads*
  trigger copy + relocation, but plain data reads stay shared.

The strategies are implemented as fork-time page-table setup plus a
page-fault handler; the records live in PTE ``note`` slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from repro.core.relocate import (
    RegionPair,
    relocate_copied_frames,
    relocate_frame,
)
from repro.hw.paging import AccessKind, AddressSpace, PagePerm


class CopyStrategy(Enum):
    """How a forked child's memory is materialized."""

    FULL_COPY = "full"
    COA = "coa"
    COPA = "copa"


@dataclass(slots=True)
class ShareNote:
    """PTE annotation for a page shared between parent and child."""

    #: "parent" or "child" — which side of the fork this PTE belongs to
    role: str
    strategy: CopyStrategy
    regions: RegionPair
    #: permissions to restore once the page becomes private
    orig_perms: PagePerm


#: share-permission memo: IntFlag arithmetic is pure but surprisingly
#: slow, and fork-time sharing runs it once per page; the handful of
#: distinct (strategy, perms) pairs makes a tiny permanent memo
_CHILD_PERMS_MEMO: Dict[Tuple[CopyStrategy, int], PagePerm] = {}
_PARENT_PERMS_MEMO: Dict[int, PagePerm] = {}

#: fault-kind → counter-name memo (f-string hoisted off the fault path)
_CHILD_BREAK_COUNTER: Dict[AccessKind, str] = {}


def child_share_perms(strategy: CopyStrategy,
                      orig_perms: PagePerm) -> PagePerm:
    """Page permissions for the child's mapping of a shared page."""
    key = (strategy, int(orig_perms))
    cached = _CHILD_PERMS_MEMO.get(key)
    if cached is None:
        cached = _child_share_perms(strategy, orig_perms)
        _CHILD_PERMS_MEMO[key] = cached
    return cached


def _child_share_perms(strategy: CopyStrategy,
                       orig_perms: PagePerm) -> PagePerm:
    if strategy is CopyStrategy.COA:
        # fully inaccessible: any access faults
        return PagePerm.NONE
    if strategy is CopyStrategy.COPA:
        # readable/executable, but no writes and no capability loads
        return orig_perms & ~(PagePerm.WRITE | PagePerm.LOAD_CAP)
    raise ValueError(f"no sharing under {strategy}")


def parent_share_perms(orig_perms: PagePerm) -> PagePerm:
    """Parent keeps reading (including its own capabilities) but writes
    must fault to preserve the child's snapshot."""
    key = int(orig_perms)
    cached = _PARENT_PERMS_MEMO.get(key)
    if cached is None:
        cached = orig_perms & ~PagePerm.WRITE
        _PARENT_PERMS_MEMO[key] = cached
    return cached


def setup_shared_page(space: AddressSpace, parent_vpn: int, child_vpn: int,
                      strategy: CopyStrategy, regions: RegionPair) -> None:
    """Fork-time setup for one page under CoA/CoPA."""
    machine = space.machine
    frame, perms, _cow, note = space.entry(parent_vpn)
    shared = isinstance(note, ShareNote)
    orig = note.orig_perms if shared else PagePerm(perms)

    # Child maps the parent's frame at the mirrored address.
    space.map_page(
        child_vpn, frame,
        child_share_perms(strategy, orig), incref=True,
        note=ShareNote("child", strategy, regions, orig),
    )
    machine.charge(machine.costs.pte_bulk_share_ns, "fork_map")
    if strategy is CopyStrategy.COA:
        machine.charge(machine.costs.pte_coa_extra_ns, "fork_map")

    # Parent loses write permission (lazily restored on its next write).
    space.protect_page(parent_vpn, parent_share_perms(orig))
    if not shared:
        space.set_note(parent_vpn, ShareNote("parent", strategy, regions,
                                             orig))
    machine.charge(machine.costs.pte_protect_ns, "fork_protect")


def setup_shared_pages(space: AddressSpace, items, delta_pages: int,
                       strategy: CopyStrategy, regions: RegionPair,
                       newly_shared: list) -> None:
    """Bulk fork-time sharing setup (the vectorized copy_pages path).

    ``items`` are ``(vpn, frame, perms_int, note)`` tuples, vpn
    ascending.  Charge-for-charge and state-for-state equivalent to
    calling :func:`setup_shared_page` per page: runs of consecutive
    vpns with equal original permissions become one ``map_run`` on the
    child side (sharing a single interned :class:`ShareNote` — notes
    are never mutated, only replaced), parent protection is applied
    in place, and the per-page PTE charges are batched as sum-equal
    totals (rounded cost times count).  The caller guarantees chaos is
    off.

    Parent vpns newly write-protected are appended to ``newly_shared``
    as ints (fork rollback resolves them through the space).
    """
    count = len(items)
    if not count:
        return
    machine = space.machine
    costs = machine.costs
    child_notes: Dict[int, ShareNote] = {}
    parent_notes: Dict[int, ShareNote] = {}
    map_run = space.map_run
    protect_run = space.protect_run
    set_note_many = space.set_note_many
    index = 0
    while index < count:
        vpn, _frame, perms_int, note = items[index]
        orig_int = int(note.orig_perms) if isinstance(note, ShareNote) \
            else perms_int
        end = index + 1
        while end < count:
            nvpn, _nframe, nperms, nnote = items[end]
            if nvpn != vpn + (end - index):
                break
            norig = int(nnote.orig_perms) if isinstance(nnote, ShareNote) \
                else nperms
            if norig != orig_int:
                break
            end += 1
        run = items[index:end]
        orig = PagePerm(orig_int)
        child_note = child_notes.get(orig_int)
        if child_note is None:
            child_note = ShareNote("child", strategy, regions, orig)
            child_notes[orig_int] = child_note
        map_run(vpn + delta_pages, [item[1] for item in run],
                child_share_perms(strategy, orig), incref=True,
                note=child_note)
        parent_perms = parent_share_perms(orig)
        parent_note = parent_notes.get(orig_int)
        if parent_note is None:
            parent_note = ShareNote("parent", strategy, regions, orig)
            parent_notes[orig_int] = parent_note
        protect_run(vpn, end - index, parent_perms)
        unnoted = [parent_vpn
                   for parent_vpn, _pframe, _pperms, pnote in run
                   if not isinstance(pnote, ShareNote)]
        if unnoted:
            set_note_many(unnoted, parent_note)
            newly_shared.extend(unnoted)
        index = end
    machine.charge(int(round(costs.pte_bulk_share_ns)) * count, "fork_map")
    if strategy is CopyStrategy.COA:
        machine.charge(int(round(costs.pte_coa_extra_ns)) * count,
                       "fork_map")
    machine.charge(int(round(costs.pte_protect_ns)) * count, "fork_protect")


def copy_page_for_child(space: AddressSpace, child_vpn: int,
                        src_frame: int, perms: PagePerm,
                        regions: RegionPair,
                        map_new: bool = False) -> None:
    """Copy + relocate one page into the child (eager or on fault)."""
    machine = space.machine
    new_frame = machine.phys.copy_frame(src_frame, preserve_tags=True)
    relocate_frame(machine, machine.phys.frame(new_frame), regions)
    if map_new:
        space.map_page(child_vpn, new_frame, perms)
        machine.charge(machine.costs.pte_bulk_share_ns, "fork_map")
    else:
        space.replace_frame(child_vpn, new_frame)
        space.protect_page(child_vpn, perms)
    machine.counters.add("fork_page_copies")
    machine.obs.count("core.strategies.eager_page_copies" if map_new
                      else "core.strategies.fault_page_copies")
    machine.obs.count("trace.fork_page_copy")


def handle_fork_fault(space: AddressSpace, vaddr: int,
                      kind: AccessKind) -> bool:
    """Page-fault handler implementing the lazy halves of CoA/CoPA.

    Returns True when the fault was a fork-sharing fault and has been
    resolved (the access should be retried).
    """
    machine = space.machine
    vpn = vaddr // machine.config.page_size
    note = space.note_of(vpn)
    if not isinstance(note, ShareNote):
        return False

    if note.role == "parent":
        if kind is not AccessKind.WRITE:
            return False  # parent reads never fault under either strategy
        _make_private(space, vpn, relocate=False, note=note)
        machine.counters.add("fork_parent_cow_break")
        obs = machine.obs
        if obs.enabled:
            obs.count(
                f"core.strategies.{note.strategy.value}.break.parent.write")
            obs.count("trace.cow_break")
        return True

    # child side: writes always break; reads/exec/cap-loads depend on strategy
    if note.strategy is CopyStrategy.COPA and kind is AccessKind.READ:
        return False  # CoPA allows plain reads; this fault is something else
    if kind is AccessKind.CAP_LOAD and machine.chaos.enabled and \
            machine.chaos.should_fire("core.strategies.cap_fault_storm"):
        # storm: the capability-load fault spuriously re-fires a few
        # times before the break sticks; each repeat costs a full fault.
        # Enough storms push UForkOS down the CoPA→CoA→eager ladder.
        for _ in range(3):
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            machine.obs.count("core.strategies.cap_fault_storm_repeats")
        machine.chaos.note_recovery("core.strategies.cap_fault_storm")
    _make_private(space, vpn, relocate=True, note=note)
    counter = _CHILD_BREAK_COUNTER.get(kind)
    if counter is None:
        counter = f"fork_child_break_{kind.name.lower()}"
        _CHILD_BREAK_COUNTER[kind] = counter
    machine.counters.add(counter)
    obs = machine.obs
    if obs.enabled:
        obs.count(f"core.strategies.{note.strategy.value}"
                  f".break.child.{kind.name.lower()}")
        obs.count("trace.cow_break")
    return True


def handle_fork_write_run(space: AddressSpace, vpns) -> bool:
    """Bulk CoW break for a run of write-blocked pages — the lookahead
    :meth:`AddressSpace.write_run` offers before per-fault dispatch.

    Commits only when EVERY vpn is a clean ShareNote write-break whose
    restored permissions allow the write; anything else (foreign notes,
    genuinely read-only pages, imminent frame exhaustion, chaos, SMP)
    returns False with no state touched, and the per-op loop reproduces
    the exact fault/exception sequence.

    Simulated-identical to faulting the pages one at a time in order:
    fault and page-copy charges are batched as sum-equal pre-rounded
    advances (rounded cost times count); frame allocation and refcount
    evolution follow the same vpn order (no frame can be freed mid-run
    — every frame this path decrefs is still referenced by the other
    side of the share); the counters and observability records are
    pure sums plus a last-value gauge.
    """
    machine = space.machine
    if machine.chaos.enabled or machine.num_cpus > 1:
        return False  # SMP per-op dispatch serializes on the fault lock
    req = AccessKind.WRITE._req_bits
    note_of = space.note_of
    breaks = []
    for vpn in vpns:
        note = note_of(vpn)
        if not isinstance(note, ShareNote):
            return False
        if (int(note.orig_perms) & req) != req:
            return False  # the write still faults after the break
        breaks.append((vpn, note))
    phys = machine.phys
    frame_of = space.frame_of
    refcount = phys.refcount
    pending: Dict[int, int] = {}
    copies = []  # (vpn, note, src_frame)
    solos = []   # (vpn, note, frame) — already sole owner, no copy
    for vpn, note in breaks:
        frame = frame_of(vpn)
        if refcount(frame) - pending.get(frame, 0) > 1:
            pending[frame] = pending.get(frame, 0) + 1
            copies.append((vpn, note, frame))
        else:
            solos.append((vpn, note, frame))
    if copies and phys.free_frames() < len(copies):
        return False  # per-op dispatch reproduces the exact mid-OOM state
    count = len(breaks)
    machine.charge(int(round(machine.costs.page_fault_ns)) * count,
                   "page_fault")
    counters = machine.counters
    counters.add(AccessKind.WRITE._fault_counter, count)
    obs = machine.obs
    obs_on = obs.enabled
    if obs_on:
        obs.count(AccessKind.WRITE._fault_obs, count)
        obs.count("trace.page_fault", count)
    if copies:
        dsts = phys.copy_frames([item[2] for item in copies],
                                preserve_tags=True)
        counters.add("fork_page_copies", len(copies))
        # child-role copies still hold parent-region capabilities:
        # relocate per region pair through the fork content memo
        by_regions: Dict[RegionPair, Tuple[list, list]] = {}
        for (vpn, note, src), dst in zip(copies, dsts):
            if note.role == "child":
                group = by_regions.setdefault(note.regions, ([], []))
                group[0].append(src)
                group[1].append(dst)
        for regions, (srcs, dst_group) in by_regions.items():
            relocate_copied_frames(machine, phys, srcs, dst_group,
                                   regions)
        privatize = space.privatize_page
        decref = phys.decref
        for (vpn, note, src), dst in zip(copies, dsts):
            decref(src)  # never frees: the share's peer still holds it
            privatize(vpn, note.orig_perms, dst, decref_old=False)
    for vpn, note, frame in solos:
        if note.role == "child":
            # last sharer: private already, but may still hold
            # parent-region capabilities needing relocation
            relocate_frame(machine, phys.frame(frame), note.regions)
        space.privatize_page(vpn, note.orig_perms)
    parent_breaks = sum(1 for _vpn, note in breaks
                        if note.role == "parent")
    child_breaks = count - parent_breaks
    if parent_breaks:
        counters.add("fork_parent_cow_break", parent_breaks)
    if child_breaks:
        counters.add("fork_child_break_write", child_breaks)
    if obs_on:
        tallies: Dict[str, int] = {}
        for _vpn, note in breaks:
            side = "parent" if note.role == "parent" else "child"
            key = (f"core.strategies.{note.strategy.value}"
                   f".break.{side}.write")
            tallies[key] = tallies.get(key, 0) + 1
        for key, value in tallies.items():
            obs.count(key, value)
        obs.count("trace.cow_break", count)
    return True


def _make_private(space: AddressSpace, vpn: int,
                  relocate: bool, note: ShareNote) -> None:
    """Give this mapping a private frame (copying if still shared) and
    restore its original permissions."""
    machine = space.machine
    phys = machine.phys
    frame = space.frame_of(vpn)
    if phys.refcount(frame) > 1:
        new_frame = phys.cow_copy(frame)
        if relocate:
            relocate_frame(machine, phys.frame(new_frame), note.regions)
        space.privatize_page(vpn, note.orig_perms, new_frame)
        machine.counters.add("fork_page_copies")
        return
    if relocate:
        # Last sharer (peer exited/copied): the frame is now private but
        # may still hold parent-region capabilities needing relocation.
        relocate_frame(machine, phys.frame(frame), note.regions)
    space.privatize_page(vpn, note.orig_perms)


def resolve_all_pending(space: AddressSpace, region_base: int,
                        region_top: int) -> int:
    """Force-resolve every still-shared *child-role* page of a region.

    μFork calls this on a process about to fork again while some of its
    own pages are still shared with *its* parent: stabilizing the image
    first keeps relocation a single-hop rebase.
    """
    machine = space.machine
    page = machine.config.page_size
    lo = region_base // page
    hi = (region_top + page - 1) // page
    resolved = 0
    for vpn, note in space.noted_items():
        if lo <= vpn < hi and isinstance(note, ShareNote) \
                and note.role == "child":
            machine.charge(machine.costs.page_fault_ns, "page_fault")
            _make_private(space, vpn, relocate=True, note=note)
            resolved += 1
    if resolved:
        machine.obs.count("core.strategies.resolved_pending_pages",
                          resolved)
    return resolved
