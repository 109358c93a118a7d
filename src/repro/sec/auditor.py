"""The capability-flow auditor.

:func:`audit_cap_flow` is the security half of the §4.2 isolation
invariant: at any trap or preemption point, no live register and no
tagged memory granule may hold a capability whose *provenance* crosses
a μprocess boundary.  It is the system-wide §4.2 checker the tests
run after adversarial workloads, and it goes beyond a plain
region-confinement walk in three ways:

* it works on every OS kind — the walk goes through ``os.space_of``,
  so the monolithic baseline (per-process page tables) is audited with
  the same code as the SASOS kernels;
* sentry capabilities are *policed* rather than exempted: the only
  sanctioned sentry is the μprocess's own syscall gate, bit-equal in
  (base, length, cursor) — a sentry minted for some other entry point
  is exactly the forged-gate attack;
* every violation message is annotated with the capability's
  provenance: which μprocess the authority was minted for, and the
  derivation chain (spawn/fork/migrate/restore events, i.e. the
  ``relocate_cap`` sweeps) that produced it.

The conform explorer and farm run this at every scheduling step via
:func:`repro.conform.invariants.check_invariants`, so interleaving
search doubles as an isolation-violation hunt.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.cheri.capability import Capability
from repro.core.relocate import derivation_chain, flow_log
from repro.core.strategies import ShareNote

__all__ = ["audit_cap_flow", "provenance_of"]


def _confined(cap: Capability, base: int, top: int) -> bool:
    return base <= cap.base and cap.top <= top


def provenance_of(os_: Any, cap: Capability) -> str:
    """Attribute a capability to the μprocess its span was minted for.

    Resolution order: a live μprocess whose region covers the span,
    then the flow log (covers already-reaped μprocesses whose authority
    should be dead), then "no recorded mint" — the fingerprint of a
    forged or kernel-leaked capability.
    """
    if not cap.valid:
        return "no authority (invalid)"
    if cap.is_sentry:
        return "sealed kernel entry sentry"
    for proc in os_.procs.alive():
        if _confined(cap, proc.region_base, proc.region_top):
            chain = derivation_chain(os_.machine, proc.pid)
            return f"minted for pid {proc.pid} via {chain}"
    for event, _src, dst, base, top, _detail in reversed(flow_log(os_.machine)):
        if _confined(cap, base, top):
            return (f"minted for dead pid {dst} (last {event}); "
                    f"authority should have died with it")
    return "no recorded mint (forged or kernel-internal span)"


def _audit_cap(os_: Any, proc: Any, cap: Capability, location: str,
               lo: int, hi: int, violations: List[str]) -> None:
    base, top = proc.region_base, proc.region_top
    if not cap.valid:
        return
    if cap.is_sentry:
        gate = getattr(proc, "syscall_gate", None)
        if gate is None:
            violations.append(
                f"pid {proc.pid} @ {location}: sentry capability on a "
                f"trap-entry kernel (no gate was ever minted) [{cap}]")
        elif (cap.base, cap.length, cap.cursor) != (
                gate.base, gate.length, gate.cursor):
            violations.append(
                f"pid {proc.pid} @ {location}: sentry does not match the "
                f"μprocess's own syscall gate [{cap}]")
        return
    if _confined(cap, lo, hi) or _confined(cap, base, top):
        return
    violations.append(
        f"pid {proc.pid} @ {location}: capability escapes the μprocess "
        f"region [{cap}] — provenance: {provenance_of(os_, cap)}")


def audit_cap_flow(os_: Any) -> List[str]:
    """Audit every live μprocess on any OS kind; returns violations.

    Fork-shared pages are audited against the fork's source region: a
    ``ShareNote`` page legitimately holds the donor's capabilities
    until the strategy's fault handler relocates them.  ``MAP_SHARED``
    windows are skipped: the window capability carries no
    LOAD_CAP/STORE_CAP, so tags can never appear there — if one does,
    the smuggling tests fail loudly instead.
    """
    machine = os_.machine
    page = machine.config.page_size
    violations: List[str] = []
    for proc in os_.procs.alive():
        space = os_.space_of(proc)
        base, top = proc.region_base, proc.region_top
        shm_vpns = getattr(proc, "shm_vpns", set())
        for vpn, frame_no, _perms, _cow, raw_note in \
                space.mapped_items(base // page, top // page):
            if vpn in shm_vpns:
                continue
            note = raw_note if isinstance(raw_note, ShareNote) else None
            if note is not None:
                lo, hi = note.regions.parent_base, note.regions.parent_top
            else:
                lo, hi = base, top
            frame = machine.phys.frame(frame_no)
            for offset in frame.tagged_granules():
                cap = frame.load_cap(offset, machine.codec)
                _audit_cap(os_, proc, cap, f"vpn {vpn:#x}+{offset:#x}",
                           lo, hi, violations)
        for task in proc.tasks:
            for name, cap in task.registers.cap_registers():
                _audit_cap(os_, proc, cap, f"register {name}",
                           base, top, violations)
    return violations
