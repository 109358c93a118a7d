"""Checkpoint/restore engine: fork's dual, over the same machinery.

``checkpoint`` walks a quiesced process's region exactly like μFork's
page loop walks the parent — tag scan per page, logical capture of
every tagged granule — but emits bytes instead of mapping a child.
``restore`` replays the recorded state into a freshly reserved region
(on the checkpoint machine or a brand-new one): raw page bytes first,
then each recorded capability re-minted through
:func:`~repro.core.relocate.relocate_cap` with a
:class:`~repro.core.relocate.RegionPair` spanning old → new region —
the identical five-rule path fork uses, so sealed syscall-gate sentries
are preserved, in-region capabilities are rebased and clamped, and
anything pointing outside the μprocess comes back invalid.

Restore is **transactional**, extending the fork rollback guarantees: a
restore that dies mid-flight (an injected ``core.snapshot.abort.*``
fault, frame exhaustion, ...) unwinds every frame, PTE, VA reservation,
PID and fd it claimed, and re-raises injected faults as the retriable
:class:`~repro.chaos.faults.InjectedRestoreFailure`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.faults import InjectedRestoreFailure
from repro.chaos.recovery import Transaction
from repro.cheri.capability import Capability, OTYPE_SENTRY, Perm
from repro.core.relocate import RegionPair, record_flow, relocate_cap
from repro.core.strategies import ShareNote, resolve_all_pending
from repro.errors import KernelError
from repro.hw.paging import AddressSpace, PagePerm
from repro.kernel.fdtable import FDTable, FileDescription
from repro.kernel.ipc import Pipe, PipeEnd
from repro.kernel.signals import SignalState
from repro.kernel.task import Process
from repro.mem.allocator import GuestAllocator
from repro.mem.layout import ProgramImage, SegmentMap
from repro.snapshot.format import (SCHEMA, SnapshotFormatError, decode,
                                   encode)


class SnapshotError(KernelError):
    """The process (or blob) is outside what repro.snapshot/v1 covers."""

    errno_name = "EINVAL"


# ---------------------------------------------------------------------------
# Checkpoint
# ---------------------------------------------------------------------------

def checkpoint(os: Any, proc: Process, *, incremental: bool = False) -> bytes:
    """Serialize ``proc`` (quiesced at a syscall boundary) to a
    ``repro.snapshot/v1`` blob.

    A full snapshot first force-resolves any still-pending CoA/CoPA
    sharing of the process's own pages (the same stabilization fork
    performs), so every recorded capability is a single-hop relocation
    away from any future region.  An ``incremental`` snapshot instead
    captures only CoW-divergent pages — frames mapped by this process
    alone — *without* disturbing the sharing, which is what lets cluster
    migration ship exactly a worker's divergence from its zygote.
    """
    machine = os.machine
    space = os.space_of(proc)
    config = machine.config
    page = config.page_size
    _check_supported(proc)
    machine.charge(machine.costs.snapshot_fixed_ns, "snapshot_fixed")

    lo = proc.region_base // page
    hi = proc.region_top // page
    if incremental:
        # CoW-divergent pages only: frames this process maps alone
        items = [item for item in space.mapped_items(lo, hi)
                 if machine.phys.refcount(item[1]) == 1]
    else:
        resolve_all_pending(space, proc.region_base, proc.region_top)
        items = space.mapped_items(lo, hi)

    pages: List[Dict[str, Any]] = []
    payload = bytearray()
    for vpn, frame_no, perms_int, cow, note in items:
        machine.charge(machine.costs.page_scan_ns(page, config.granule),
                       "snapshot_scan")
        frame = machine.phys.frame(frame_no)
        # record the *logical* permissions: what the page grants once
        # any fork-sharing (ShareNote) or classic CoW resolves
        if isinstance(note, ShareNote):
            perms = note.orig_perms
        elif cow:
            perms = PagePerm(perms_int) | PagePerm.WRITE
        else:
            perms = PagePerm(perms_int)
        caps = []
        for offset in frame.tagged_granules():
            cap = frame.load_cap(offset, machine.codec)
            if cap.valid:
                caps.append([offset, cap.base, cap.length, cap.cursor,
                             int(cap.perms), cap.otype])
        pages.append({"vpn": vpn, "perms": int(perms), "caps": caps})
        payload += bytes(frame.data)
        machine.charge(machine.costs.page_copy_ns(page), "snapshot_copy")

    fds, pipes = _fd_manifest(proc, machine)
    manifest = {
        "schema": SCHEMA,
        "os": os.kind,
        "incremental": bool(incremental),
        "name": proc.name,
        "image": _image_manifest(proc.layout.image),
        "page_size": page,
        "granule": config.granule,
        "region_base": proc.region_base,
        "region_top": proc.region_top,
        "mmap_offset": getattr(proc, "mmap_offset", 0),
        "pages": pages,
        "registers": _registers_manifest(proc),
        "allocator": _allocator_manifest(proc),
        "fds": fds,
        "pipes": pipes,
        "signals": _signals_manifest(proc),
    }
    blob = encode(manifest, bytes(payload))
    machine.counters.add("checkpoint")
    machine.obs.count("core.snapshot.checkpoints")
    machine.obs.count("core.snapshot.pages_captured", len(pages))
    machine.obs.count("trace.checkpoint")
    return blob


def _check_supported(proc: Process) -> None:
    if len(proc.tasks) != 1:
        raise SnapshotError(
            f"snapshot/v1 covers single-threaded processes; pid "
            f"{proc.pid} has {len(proc.tasks)} tasks")
    if getattr(proc, "shm_vpns", None):
        raise SnapshotError(
            f"snapshot/v1 cannot capture MAP_SHARED memory (pid "
            f"{proc.pid}); unmap shared objects before checkpointing")
    if getattr(proc.layout.image, "shared_libs", ()):
        raise SnapshotError(
            "snapshot/v1 does not capture dynamic shared-library "
            "mappings")


def _image_manifest(image: ProgramImage) -> Dict[str, Any]:
    fields = dataclasses.asdict(image)
    fields["shared_libs"] = list(fields.get("shared_libs", ()))
    return fields


def _registers_manifest(proc: Process) -> List[List[Any]]:
    records: List[List[Any]] = []
    for name, value in proc.main_task().registers.items():
        if isinstance(value, Capability):
            records.append([name, "cap", value.base, value.length,
                            value.cursor, int(value.perms), value.otype,
                            bool(value.valid)])
        else:
            records.append([name, "int", int(value)])
    records.sort(key=lambda record: record[0])
    return records


def _allocator_manifest(proc: Process) -> Optional[Dict[str, Any]]:
    if proc.allocator is None:
        return None
    return {"max_blocks": proc.allocator.max_blocks}


def _fd_manifest(proc: Process,
                 machine: Any) -> Tuple[List[List[Any]], List[Dict[str, Any]]]:
    """fd policy + the local pipes it references.

    Descriptions referenced by several fds (dup) keep their sharing via
    a description-group index.  Non-pipe objects (files, sockets) are
    recorded by kind and dropped at restore — v1 captures one process,
    and only pipe state lives wholly inside it.
    """
    fds: List[List[Any]] = []
    pipes: List[Dict[str, Any]] = []
    pipe_index: Dict[int, int] = {}
    desc_groups: Dict[int, int] = {}
    for fd, desc in sorted(proc.fdtable.items()):
        group = desc_groups.setdefault(id(desc), len(desc_groups))
        obj = desc.obj
        if isinstance(obj, PipeEnd):
            index = pipe_index.get(id(obj.pipe))
            if index is None:
                index = len(pipes)
                pipe_index[id(obj.pipe)] = index
                pipes.append({
                    "data": bytes(obj.pipe._buffer).hex(),
                    "read_open": obj.pipe.read_open,
                    "write_open": obj.pipe.write_open,
                    "capacity": obj.pipe.capacity,
                })
            fds.append([fd, "pipe", group, index, bool(obj.readable),
                        bool(desc.readable), bool(desc.writable),
                        desc.offset])
        else:
            fds.append([fd, "dropped", group, type(obj).__name__])
    return fds, pipes


def _signals_manifest(proc: Process) -> Dict[str, Any]:
    state = getattr(proc, "signal_state", None)
    handlers: Dict[str, str] = {}
    pending: List[int] = []
    if state is not None:
        for signum, disposition in state.handlers.items():
            # only the string dispositions (SIG_DFL / SIG_IGN) are
            # serializable; Python-callable handlers are a host-side
            # driver artifact and revert to default on restore
            if isinstance(disposition, str):
                handlers[str(signum)] = disposition
        pending = [int(signum) for signum in state.pending]
    return {"handlers": handlers, "pending": pending}


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------

def restore(os: Any, blob: bytes, *, name: Optional[str] = None,
            parent: Optional[Process] = None) -> Process:
    """Materialize a full snapshot as a new runnable process on ``os``.

    Works on the checkpoint machine or a freshly booted one: the region
    is reserved anew and every capability is re-minted for it, so no
    machine-local state (frame numbers, codec interning, PIDs) leaks
    through the blob.  With ``parent`` the restored process becomes a
    waitable child (the FaaS restore-into-running-gateway pattern).
    """
    manifest, payload = decode(blob)
    machine = os.machine
    if manifest["incremental"]:
        raise SnapshotError(
            "incremental snapshots lack unmodified pages; apply them "
            "with restore_into() onto a process forked from the image")
    _check_geometry(machine, manifest)
    _check_manifest(os, manifest)
    tx = Transaction()
    with machine.locks.fork.held():
        try:
            child = _restore_phases(os, manifest, payload, name, parent, tx)
        except Exception as exc:
            tx.rollback()
            machine.counters.add("restore_rollbacks")
            machine.obs.count("core.snapshot.restore_rollbacks")
            machine.obs.count("trace.restore_rollback")
            point = getattr(exc, "point", None)
            if point is not None:
                machine.chaos.note_recovery(point)
            if getattr(exc, "injected", False) and \
                    not isinstance(exc, InjectedRestoreFailure):
                raise InjectedRestoreFailure(
                    f"restore aborted by injected fault ({exc})") from exc
            raise
        tx.commit()
    return child


def _check_geometry(machine: Any, manifest: Dict[str, Any]) -> None:
    config = machine.config
    if manifest["page_size"] != config.page_size or \
            manifest["granule"] != config.granule:
        raise SnapshotError(
            f"snapshot geometry (page {manifest['page_size']}, granule "
            f"{manifest['granule']}) does not match this machine "
            f"(page {config.page_size}, granule {config.granule})")


#: permissions no user-level snapshot capability can legitimately carry
_PRIVILEGED_PERMS = Perm.SYSTEM | Perm.SEAL | Perm.UNSEAL


def _check_cap_record(os: Any, manifest: Dict[str, Any], base: int,
                      length: int, cursor: int, perms: int,
                      otype: int) -> None:
    """Reject capability records that would mint authority the
    checkpointed μprocess never had.

    A blob is attacker-editable bytes (docs/SECURITY.md): without this
    check a tampered record could re-enter the kernel's re-minting path
    carrying privileged permissions or spans outside the snapshot's own
    region.  Tampering must *fail the restore* — relocation clamping is
    a second line of defense, not the contract.
    """
    if otype == OTYPE_SENTRY:
        gate = getattr(os, "syscall_gate", None)
        if gate is None or (base, length, cursor) != (
                gate.base, gate.length, gate.cursor):
            raise SnapshotFormatError(
                "sentry capability record does not match the target "
                "kernel's syscall gate")
        return
    if Perm(perms) & _PRIVILEGED_PERMS:
        raise SnapshotFormatError(
            "capability record carries privileged permissions "
            "(SYSTEM/SEAL/UNSEAL)")
    if not (manifest["region_base"] <= base
            and base + length <= manifest["region_top"]):
        raise SnapshotFormatError(
            "capability record escapes the snapshot's own region")


def _check_manifest(os: Any, manifest: Dict[str, Any]) -> None:
    """Structural + authority validation of an untrusted manifest.

    Runs before any target-kernel state is touched, so a tampered blob
    is rejected with a typed error while the kernel is still pristine —
    no mid-loop failure can strand a half-materialized page.
    """
    for key in ("region_base", "region_top", "pages", "registers"):
        if key not in manifest:
            raise SnapshotFormatError(
                f"manifest lacks required field {key!r}")
    for entry in manifest["pages"]:
        for key in ("vpn", "perms", "caps"):
            if key not in entry:
                raise SnapshotFormatError(
                    f"page record lacks required field {key!r}")
        for record in entry["caps"]:
            if len(record) != 6:
                raise SnapshotFormatError(
                    f"malformed capability record {record!r}")
            _offset, base, length, cursor, perms, otype = record
            _check_cap_record(os, manifest, base, length, cursor, perms,
                              otype)
    for record in manifest["registers"]:
        if len(record) < 2:
            raise SnapshotFormatError(
                f"malformed register record {record!r}")
        if record[1] == "int":
            continue
        if len(record) != 8:
            raise SnapshotFormatError(
                f"malformed register record {record!r}")
        _name, _kind, base, length, cursor, perms, otype, valid = record
        if valid:
            _check_cap_record(os, manifest, base, length, cursor, perms,
                              otype)


def _abort_point(machine: Any, point: str) -> None:
    """Fire one chaos restore-abort boundary (phase-transition check)."""
    chaos = machine.chaos
    if chaos.enabled and chaos.should_fire(point):
        failure = InjectedRestoreFailure(
            f"injected restore abort at {point}")
        failure.point = point
        raise failure


def _restore_phases(os: Any, manifest: Dict[str, Any], payload: memoryview,
                    name: Optional[str], parent: Optional[Process],
                    tx: Transaction) -> Process:
    machine = os.machine
    page = machine.config.page_size
    machine.charge(machine.costs.restore_fixed_ns, "restore_fixed")

    image_fields = dict(manifest["image"])
    image_fields["shared_libs"] = tuple(image_fields.get("shared_libs", ()))
    image = ProgramImage(**image_fields)
    old_base = manifest["region_base"]
    old_top = manifest["region_top"]
    size = old_top - old_base

    # 1. reserve the region and create the kernel-side process object.
    # The SASOS reserves a fresh area of the shared space; the
    # monolithic baseline gets its own address space at the same base
    # it always loads at (delta 0 — relocation rules leave in-child
    # capabilities alone, so the one path covers both).
    sasos = getattr(os, "vspace", None) is not None
    if sasos:
        new_base = os.vspace.reserve(size)
        tx.on_abort(lambda: os.vspace.release(new_base))
        space = os.space
    else:
        new_base = old_base
        space = AddressSpace(machine, f"as-restore-{manifest['name']}")
        from repro.baselines.monolithic import handle_cow_fault
        space.fault_handler = handle_cow_fault

    child = Process(os.pids.allocate(), name or manifest["name"], parent)
    if parent is not None:
        tx.on_abort(lambda: parent.children.remove(child))
    child.layout = SegmentMap(image, new_base, page)
    child.region_base = new_base
    child.region_top = new_base + size
    child.mmap_offset = manifest["mmap_offset"]
    if not sasos:
        child.space = space
    child.syscall_gate = os.syscall_gate
    _restore_fds(machine, child, manifest, tx)
    child.signal_state = _restore_signals(manifest)
    _abort_point(machine, "core.snapshot.abort.reserve")

    # 2. materialize pages: raw bytes first, then re-minted capabilities
    # (byte writes clear granule tags, so the order preserves the exact
    # recorded tag set — no more, no less).
    regions = RegionPair(
        parent_base=old_base, parent_top=old_top,
        child_base=child.region_base, child_top=child.region_top,
    )
    delta_pages = (child.region_base - old_base) // page
    mapped: List[int] = []
    tx.on_abort(lambda: _undo_restore_pages(space, mapped))
    offset = 0
    for entry in manifest["pages"]:
        data = bytes(payload[offset:offset + page])
        offset += page
        frame_number = machine.phys.alloc(zero=False, charge=False)
        frame = machine.phys.frame(frame_number)
        frame.write(0, data)
        machine.charge(machine.costs.page_copy_ns(page), "restore_copy")
        for granule_offset, base, length, cursor, perms, otype \
                in entry["caps"]:
            cap = Capability(base, length, cursor, Perm(perms), otype, True)
            moved = relocate_cap(cap, regions)
            frame.store_cap(granule_offset, moved, machine.codec)
            if moved is not cap:
                machine.charge(machine.costs.cap_relocate_ns, "reloc_cap")
        new_vpn = entry["vpn"] + delta_pages
        space.map_page(new_vpn, frame_number, PagePerm(entry["perms"]))
        mapped.append(new_vpn)
    machine.obs.count("core.snapshot.pages_restored",
                      len(manifest["pages"]))
    _abort_point(machine, "core.snapshot.abort.pages")

    # 3. the register file: integers verbatim, capabilities re-minted
    # (sealed sentry gates reconstruct bit-equal to the target's gate)
    task = child.add_task()
    _restore_registers(machine, task.registers, manifest, regions)
    _abort_point(machine, "core.snapshot.abort.registers")

    # 4. allocator: re-attach to the metadata now living in the restored
    # pages (never format — that would wipe the live heap)
    if manifest["allocator"] is not None:
        heap_cap = (
            os.kernel_root
            .set_bounds(child.layout.base("heap"), child.layout.size("heap"))
            .with_cursor(child.layout.base("heap"))
            .and_perms(Perm.data_rw())
        )
        child.allocator = GuestAllocator(
            machine, space, heap_cap,
            max_blocks=manifest["allocator"]["max_blocks"],
        )
        child.allocator.attach_lazy()
    _abort_point(machine, "core.snapshot.abort.allocator")

    # 5. publish (nothing below can fail, mirroring fork)
    register_demand_heap = getattr(os, "_register_demand_heap", None)
    if register_demand_heap is not None:
        register_demand_heap(child)
    os.procs.add(child)
    os.sched.add(task)
    machine.counters.add("restore")
    machine.obs.count("core.snapshot.restores")
    machine.obs.count("trace.restore")
    record_flow(machine, "restore", parent.pid if parent else 0, child.pid,
                child.region_base, child.region_top)
    return child


def _undo_restore_pages(space: AddressSpace, mapped: List[int]) -> None:
    for vpn in mapped:
        if space.frame_of(vpn) is not None:
            space.unmap_page(vpn)


def _restore_fds(machine: Any, child: Process, manifest: Dict[str, Any],
                 tx: Transaction) -> None:
    child.fdtable = FDTable()
    tx.on_abort(child.fdtable.close_all)
    pipes: List[Pipe] = []
    for spec in manifest["pipes"]:
        pipe = Pipe(machine, spec["capacity"])
        pipe._buffer.extend(bytes.fromhex(spec["data"]))
        pipe.read_open = spec["read_open"]
        pipe.write_open = spec["write_open"]
        pipes.append(pipe)
    groups: Dict[int, FileDescription] = {}
    for entry in manifest["fds"]:
        if entry[1] != "pipe":
            machine.obs.count("core.snapshot.dropped_fds")
            continue
        fd, _kind, group, index, end_readable, readable, writable, \
            file_offset = entry
        desc = groups.get(group)
        if desc is None:
            end = PipeEnd(pipes[index], readable=bool(end_readable))
            desc = FileDescription(end, readable=bool(readable),
                                   writable=bool(writable))
            desc.offset = file_offset
            groups[group] = desc
        else:
            desc.incref()
        child.fdtable._slots[fd] = desc
        machine.charge(machine.costs.fd_dup_ns, "fd_dup")


def _restore_signals(manifest: Dict[str, Any]) -> SignalState:
    state = SignalState()
    state.handlers = {
        int(signum): disposition
        for signum, disposition in manifest["signals"]["handlers"].items()
    }
    state.pending = list(manifest["signals"]["pending"])
    return state


def _restore_registers(machine: Any, registers: Any,
                       manifest: Dict[str, Any],
                       regions: RegionPair) -> None:
    for record in manifest["registers"]:
        reg_name, kind = record[0], record[1]
        if kind == "int":
            registers.set(reg_name, record[2])
            continue
        base, length, cursor, perms, otype, valid = record[2:]
        cap = Capability(base, length, cursor, Perm(perms), otype,
                         bool(valid))
        moved = relocate_cap(cap, regions)
        registers.set(reg_name, moved)
        if moved is not cap:
            machine.charge(machine.costs.cap_relocate_ns, "reloc_reg")


# ---------------------------------------------------------------------------
# Incremental apply (cluster migration)
# ---------------------------------------------------------------------------

def restore_into(os: Any, proc: Process, blob: bytes) -> int:
    """Apply an incremental snapshot onto ``proc``.

    ``proc`` must have been created from the same program image
    (typically forked from the target shard's zygote); the snapshot's
    divergent pages replace the corresponding pages of ``proc``'s
    region — real page bytes on the wire, with every capability
    re-minted for the target region — and the recorded register file is
    re-minted on top.  Returns the number of pages applied.
    """
    manifest, payload = decode(blob)
    machine = os.machine
    page = machine.config.page_size
    _check_geometry(machine, manifest)
    _check_manifest(os, manifest)
    space = os.space_of(proc)
    old_base = manifest["region_base"]
    old_top = manifest["region_top"]
    if proc.region_top - proc.region_base != old_top - old_base:
        raise SnapshotError(
            f"target region size {proc.region_top - proc.region_base:#x} "
            f"does not match snapshot region {old_top - old_base:#x}")
    regions = RegionPair(
        parent_base=old_base, parent_top=old_top,
        child_base=proc.region_base, child_top=proc.region_top,
    )
    delta_pages = (proc.region_base - old_base) // page
    offset = 0
    for entry in manifest["pages"]:
        data = bytes(payload[offset:offset + page])
        offset += page
        vpn = entry["vpn"] + delta_pages
        if space.frame_of(vpn) is not None:
            # drop the target's page (a zygote-shared frame simply loses
            # one reference; the zygote side's ShareNote self-heals)
            space.unmap_page(vpn)
        frame_number = machine.phys.alloc(zero=False, charge=False)
        frame = machine.phys.frame(frame_number)
        frame.write(0, data)
        machine.charge(machine.costs.page_copy_ns(page), "restore_copy")
        for granule_offset, base, length, cursor, perms, otype \
                in entry["caps"]:
            cap = Capability(base, length, cursor, Perm(perms), otype, True)
            moved = relocate_cap(cap, regions)
            frame.store_cap(granule_offset, moved, machine.codec)
            if moved is not cap:
                machine.charge(machine.costs.cap_relocate_ns, "reloc_cap")
        space.map_page(vpn, frame_number, PagePerm(entry["perms"]))
    _restore_registers(machine, proc.main_task().registers, manifest,
                       regions)
    machine.counters.add("restore_into")
    machine.obs.count("core.snapshot.pages_applied",
                      len(manifest["pages"]))
    machine.obs.count("trace.restore_into")
    return len(manifest["pages"])
