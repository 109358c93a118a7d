"""Kernel-consistency invariants for the interleaving explorer.

:func:`check_invariants` inspects one kernel's bookkeeping — scheduler
queues, process table, fd tables, page-table share notes, physical
frame refcounts — and returns a list of violation strings (empty ==
consistent).  The explorer calls it at *every* preemption point of
every explored schedule; the autouse conftest fixture calls the
cheaper :func:`leak_report` after every test in the suite.

:func:`frame_baseline` / :func:`check_end_state` add the end-of-run
leak check: once every scenario process has exited and been reaped,
physical memory must be back to its post-boot level and no scenario
pids may linger — the cross-strategy generalization of the rollback
bookkeeping ``test_fork_rollback`` checks for aborted forks.

Everything here is read-only: checks never mutate kernel state, so the
explorer can probe mid-syscall states without perturbing them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.strategies import ShareNote
from repro.hw.paging import PagePerm
from repro.kernel.task import TaskState


def check_invariants(os_: Any) -> List[str]:
    """Full structural audit of one kernel; list of violations."""
    violations: List[str] = []
    violations += _check_scheduler(os_)
    violations += _check_processes(os_)
    violations += _check_fd_refcounts(os_)
    violations += _check_share_notes(os_)
    violations += _check_frames(os_.machine)
    violations += _check_cap_flow(os_)
    return violations


def leak_report(os_: Any) -> List[str]:
    """The between-tests subset: bookkeeping that must be clean after
    *any* test, even ones that deliberately leave processes running."""
    violations: List[str] = []
    violations += _check_scheduler(os_)
    violations += _check_processes(os_)
    violations += _check_share_notes(os_)
    violations += _check_frames(os_.machine)
    return violations


# ---------------------------------------------------------------------------
# Individual audits
# ---------------------------------------------------------------------------

def _check_scheduler(os_: Any) -> List[str]:
    violations: List[str] = []
    queued = os_.sched.queued_tasks()
    for task in queued:
        if task.state is TaskState.EXITED:
            violations.append(
                f"scheduler: exited task tid={task.tid} "
                f"(pid={task.process.pid}) still queued")
        if task.process.pid not in os_.procs and task.process.alive:
            violations.append(
                f"scheduler: queued task tid={task.tid} belongs to "
                f"unknown pid {task.process.pid}")
    return violations


def _check_processes(os_: Any) -> List[str]:
    violations: List[str] = []
    seen_tids: Dict[int, int] = {}
    for proc in os_.procs.all():
        for task in proc.tasks:
            if task.tid in seen_tids and seen_tids[task.tid] != proc.pid:
                violations.append(
                    f"procs: tid {task.tid} claimed by pids "
                    f"{seen_tids[task.tid]} and {proc.pid}")
            seen_tids[task.tid] = proc.pid
            if task.process is not proc:
                violations.append(
                    f"procs: task tid={task.tid} back-references "
                    f"pid {task.process.pid}, owned by {proc.pid}")
        if not proc.alive:
            if proc.fdtable is not None and len(proc.fdtable) > 0:
                violations.append(
                    f"procs: exited pid {proc.pid} still holds "
                    f"{len(proc.fdtable)} fds")
            for task in proc.tasks:
                if task.state is not TaskState.EXITED:
                    violations.append(
                        f"procs: exited pid {proc.pid} has live task "
                        f"tid={task.tid} ({task.state.name})")
    return violations


def _check_fd_refcounts(os_: Any) -> List[str]:
    """Every file description's refcount must equal the number of fd
    slots (across all processes) that reference it — descriptions are
    owned by fd tables and nothing else."""
    violations: List[str] = []
    slots: Dict[int, int] = {}
    sample: Dict[int, Any] = {}
    for proc in os_.procs.all():
        if proc.fdtable is None:
            continue
        for _fd, desc in proc.fdtable.items():
            slots[id(desc)] = slots.get(id(desc), 0) + 1
            sample[id(desc)] = desc
    for key, count in slots.items():
        desc = sample[key]
        if desc.refcount != count:
            violations.append(
                f"fds: description {desc.obj.__class__.__name__} has "
                f"refcount {desc.refcount} but {count} referencing slots")
    return violations


def _check_share_notes(os_: Any) -> List[str]:
    violations: List[str] = []
    spaces = []
    for proc in os_.procs.alive():
        try:
            space = os_.space_of(proc)
        except Exception:
            continue
        if all(space is not seen for seen in spaces):
            spaces.append(space)
    # a consistent kernel never leaves a ShareNote whose frame has been
    # freed, whose role is unknown, or whose restored permissions would
    # be narrower than the current ones (sharing only removes perms)
    refcount = os_.machine.phys.refcount
    for space in spaces:
        for vpn, note in space.noted_items():
            if not isinstance(note, ShareNote):
                continue
            # notes live only on mapped vpns (unmapping drops them)
            frame, perms, _cow, _note = space.entry(vpn)
            if note.role not in ("parent", "child"):
                violations.append(
                    f"share: vpn {vpn:#x} has unknown role {note.role!r}")
            if refcount(frame) <= 0:
                violations.append(
                    f"share: vpn {vpn:#x} notes freed frame {frame}")
            if perms & ~int(note.orig_perms):
                violations.append(
                    f"share: vpn {vpn:#x} perms {PagePerm(perms)!r} wider "
                    f"than pre-share {note.orig_perms!r}")
    return violations


def _check_cap_flow(os_: Any) -> List[str]:
    """The security invariant (docs/SECURITY.md): no live register or
    tagged granule holds a capability whose provenance crosses a
    μprocess boundary.  Running it at every preemption point turns the
    interleaving search into an isolation-violation hunt."""
    from repro.sec.auditor import audit_cap_flow
    return audit_cap_flow(os_)


def _check_frames(machine: Any) -> List[str]:
    violations: List[str] = []
    for number, frame in machine.phys.frames_items():
        if frame.refcount <= 0:
            violations.append(
                f"frames: frame {number} allocated with refcount "
                f"{frame.refcount}")
    return violations


# ---------------------------------------------------------------------------
# End-of-run leak check
# ---------------------------------------------------------------------------

def frame_baseline(os_: Any) -> Tuple[int, int]:
    """Snapshot (allocated_frames, live_procs) right after boot/spawn,
    before the scenario body runs."""
    return os_.machine.phys.allocated_frames, len(os_.procs.alive())


def check_end_state(os_: Any, baseline: Tuple[int, int]) -> List[str]:
    """After every scenario process has exited and been reaped: frames
    and the process table must be back at the baseline."""
    violations: List[str] = []
    frames, procs = baseline
    now_frames = os_.machine.phys.allocated_frames
    if now_frames > frames:
        violations.append(
            f"end: {now_frames - frames} frames leaked "
            f"({now_frames} allocated, baseline {frames})")
    now_procs = len(os_.procs.alive())
    if now_procs > procs:
        violations.append(
            f"end: {now_procs - procs} processes outlive the scenario")
    return violations
