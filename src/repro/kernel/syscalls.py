"""The syscall entry layer with parameterized isolation (§3.6, §4.4).

Three deployment points, matching the paper's threat-model discussion:

* ``NONE`` — the whole system is trusted to function correctly (the
  Redis-snapshot trust model): no argument validation, no TOCTTOU
  copies.
* ``FAULT`` — non-adversarial fault isolation (the Nginx trust model):
  capability/memory checks on syscall arguments, but no TOCTTOU
  double-copies.
* ``FULL`` — adversarial isolation (the qmail/privilege-separation
  trust model): argument validation *and* TOCTTOU protection — user
  buffers are copied into kernel memory before checking and back after
  (§4.4 principle 4).

The entry mechanism itself is also parameterized: the SASOS enters the
kernel through a **sealed-capability sentry** (no trap); the monolithic
baseline pays a trap.  Both costs come from the machine's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Sequence

from repro.cheri.capability import Capability, OTYPE_SENTRY
from repro.errors import BadAddress, IsolationViolation


class IsolationLevel(Enum):
    NONE = "none"
    FAULT = "fault"
    FULL = "full"


@dataclass(frozen=True)
class IsolationConfig:
    """Which isolation mechanisms a deployment enables (R4)."""

    level: IsolationLevel
    validate_args: bool
    tocttou: bool

    @classmethod
    def none(cls) -> "IsolationConfig":
        return cls(IsolationLevel.NONE, validate_args=False, tocttou=False)

    @classmethod
    def fault(cls) -> "IsolationConfig":
        return cls(IsolationLevel.FAULT, validate_args=True, tocttou=False)

    @classmethod
    def full(cls) -> "IsolationConfig":
        return cls(IsolationLevel.FULL, validate_args=True, tocttou=True)

    @classmethod
    def from_level(cls, level: IsolationLevel) -> "IsolationConfig":
        return {
            IsolationLevel.NONE: cls.none,
            IsolationLevel.FAULT: cls.fault,
            IsolationLevel.FULL: cls.full,
        }[level]()


class SyscallLayer:
    """Charges entry, validation and TOCTTOU costs per syscall."""

    def __init__(self, machine: Any, trapless: bool,
                 isolation: IsolationConfig) -> None:
        self.machine = machine
        self.trapless = trapless
        self.isolation = isolation
        self.invocations = 0
        #: memoised ``syscall_<name>`` counter strings (the f-string on
        #: every entry shows up in syscall-heavy workload profiles)
        self._counter_names: Dict[str, str] = {}

    def enter(self, name: str, nargs: int = 0,
              buffer_bytes: Sequence[int] = ()) -> None:
        """Account one syscall: entry + checks + TOCTTOU copies.

        ``buffer_bytes`` lists the sizes of user buffers passed by
        reference (each is double-copied under TOCTTOU protection).

        Chaos: the ``kernel.syscall.{eintr,enomem,eagain}`` points fire
        here, *before any handler work* — every handler calls ``enter``
        as its first statement, so an injected entry fault leaves no
        partial state and the dispatch layer's bounded retry
        (:func:`repro.chaos.retry_syscall`) can safely re-run it.
        """
        chaos = self.machine.chaos
        if chaos.enabled:
            fault = chaos.syscall_fault(name)
            if fault is not None:
                raise fault
        costs = self.machine.costs
        if self.trapless:
            self.machine.charge(costs.sealed_syscall_ns, "syscall_entry")
        else:
            self.machine.charge(costs.trap_syscall_ns, "syscall_entry")
        if self.isolation.validate_args and nargs:
            self.machine.charge(costs.syscall_validate_ns * nargs,
                                "syscall_validate")
        if self.isolation.tocttou:
            for size in buffer_bytes:
                copied = min(size, costs.tocttou_max_copy_bytes)
                self.machine.charge(costs.tocttou_setup_ns, "tocttou")
                self.machine.charge(
                    costs.tocttou_copy_ns_per_byte * 2 * copied, "tocttou"
                )
        self.invocations += 1
        self.machine.counters.add("syscall")
        counter_name = self._counter_names.get(name)
        if counter_name is None:
            counter_name = f"syscall_{name}"
            self._counter_names[name] = counter_name
        self.machine.counters.add(counter_name)
        obs = self.machine.obs
        if obs.enabled:
            obs.count("kernel.syscall.entries")
            if self.isolation.tocttou and buffer_bytes:
                obs.count("kernel.syscall.tocttou_copies",
                          len(buffer_bytes))
            obs.count("trace.syscall")

    # -- argument validation helpers -------------------------------------------

    def validate_user_cap(self, proc: Any, cap: Capability,
                          size: int) -> None:
        """Reject user pointers outside the caller's region (EFAULT).

        Only active at FAULT isolation and above; at NONE the kernel
        trusts its callers (the deployment opted out, §4.4).
        """
        if not self.isolation.validate_args:
            return
        if not isinstance(cap, Capability) or not cap.valid:
            raise BadAddress("invalid capability passed to kernel")
        if cap.is_sealed:
            raise BadAddress("sealed capability passed to kernel")
        region_base = getattr(proc, "region_base", None)
        region_top = getattr(proc, "region_top", None)
        if region_base is not None and region_top:
            if not (region_base <= cap.cursor and
                    cap.cursor + size <= region_top):
                raise BadAddress(
                    f"user buffer [{cap.cursor:#x}+{size:#x}) outside "
                    f"μprocess region"
                )
        if not cap.in_bounds(cap.cursor, size):
            raise BadAddress("buffer exceeds capability bounds")


def check_syscall_gate(proc: Any, gate: Capability) -> None:
    """Verify kernel entry is via the process's sealed sentry capability.

    "Sealed capabilities restrict kernel entry points and there is no
    other way for a μprocess to invoke kernel code" (§4.4, principle 1).
    """
    expected = getattr(proc, "syscall_gate", None)
    if expected is None:
        raise IsolationViolation("process has no syscall gate")
    if not isinstance(gate, Capability) or not gate.valid:
        raise IsolationViolation("kernel entry with invalid capability")
    if not gate.is_sentry or gate.otype != OTYPE_SENTRY:
        raise IsolationViolation("kernel entry not through a sentry")
    if (gate.base, gate.length, gate.cursor) != (
            expected.base, expected.length, expected.cursor):
        raise IsolationViolation("kernel entry at unauthorized location")
