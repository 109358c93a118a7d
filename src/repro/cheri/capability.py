"""The CHERI capability value type.

A :class:`Capability` is an immutable fat pointer: an address (cursor)
plus the bounds ``[base, base+length)`` and permissions of the object it
refers to.  The two properties μFork's security argument rests on are
enforced here:

* **monotonicity** — every deriving operation (:meth:`set_bounds`,
  :meth:`and_perms`) can only shrink authority; attempts to grow it raise
  :class:`~repro.errors.MonotonicityFault`;
* **unforgeability** — capabilities in simulated memory are only valid
  when their granule's tag is set; any byte store clears the tag (see
  :mod:`repro.hw.phys`).  A capability object whose ``valid`` flag is
  False cannot authorize anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag

from repro.errors import (
    BoundsFault,
    MonotonicityFault,
    PermissionFault,
    SealFault,
    TagFault,
)

#: object type of an unsealed capability
OTYPE_UNSEALED = -1
#: object type of a "sentry" (sealed entry) capability: invoking it jumps
#: to a fixed target and unseals it, the mechanism behind μFork's
#: trapless system calls (§4.4)
OTYPE_SENTRY = -2


class Perm(IntFlag):
    """Capability permission bits (subset of the Morello set)."""

    NONE = 0
    LOAD = 1 << 0
    STORE = 1 << 1
    EXECUTE = 1 << 2
    LOAD_CAP = 1 << 3
    STORE_CAP = 1 << 4
    SEAL = 1 << 5
    UNSEAL = 1 << 6
    #: authorizes privileged (system-register) operations; user
    #: capabilities never carry it (§4.4, second principle)
    SYSTEM = 1 << 7
    GLOBAL = 1 << 8

    @classmethod
    def data_rw(cls) -> "Perm":
        return _PERM_DATA_RW

    @classmethod
    def data_ro(cls) -> "Perm":
        return _PERM_DATA_RO

    @classmethod
    def code(cls) -> "Perm":
        return _PERM_CODE

    @classmethod
    def all_perms(cls) -> "Perm":
        return _PERM_ALL


#: the composite permission sets are pure constants, but IntFlag ``|``
#: pays member-resolution machinery on every call, so they are built once
_PERM_DATA_RW = (Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP
                 | Perm.GLOBAL)
_PERM_DATA_RO = Perm.LOAD | Perm.LOAD_CAP | Perm.GLOBAL
_PERM_CODE = Perm.LOAD | Perm.EXECUTE | Perm.GLOBAL
_PERM_ALL = (Perm.LOAD | Perm.STORE | Perm.EXECUTE | Perm.LOAD_CAP
             | Perm.STORE_CAP | Perm.SEAL | Perm.UNSEAL | Perm.SYSTEM
             | Perm.GLOBAL)


def _fast_cap(base: int, length: int, cursor: int, perms: "Perm",
              otype: int, valid: bool) -> "Capability":
    """Build a :class:`Capability` bypassing the frozen-dataclass
    ``__init__`` (six Python-level ``object.__setattr__`` calls) with a
    single C-level ``__dict__.update`` — indistinguishable from normal
    construction (same eq/hash/repr, still frozen) but ~40% faster.
    Every deriving operation builds its result this way."""
    cap = object.__new__(Capability)
    cap.__dict__.update(base=base, length=length, cursor=cursor,
                        perms=perms, otype=otype, valid=valid)
    return cap


@dataclass(frozen=True)
class Capability:
    """An immutable CHERI capability."""

    base: int
    length: int
    cursor: int
    perms: Perm
    otype: int = OTYPE_UNSEALED
    valid: bool = True

    # -- constructors ---------------------------------------------------

    @classmethod
    def root(cls, size: int) -> "Capability":
        """The almighty root capability the machine boots with."""
        return cls(base=0, length=size, cursor=0, perms=Perm.all_perms())

    @classmethod
    def null(cls) -> "Capability":
        return cls(base=0, length=0, cursor=0, perms=Perm.NONE, valid=False)

    # -- basic queries ----------------------------------------------------

    @property
    def top(self) -> int:
        return self.base + self.length

    @property
    def is_sealed(self) -> bool:
        return self.otype != OTYPE_UNSEALED

    @property
    def is_sentry(self) -> bool:
        return self.otype == OTYPE_SENTRY

    @property
    def offset(self) -> int:
        return self.cursor - self.base

    def in_bounds(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.top

    def spans(self, base: int, top: int) -> bool:
        """True if this capability's bounds lie entirely inside [base, top)."""
        return base <= self.base and self.top <= top

    def has_perm(self, perm: Perm) -> bool:
        bits = perm._value_
        return (self.perms._value_ & bits) == bits

    # -- deriving (monotonic) operations ------------------------------------

    def _require_mutable(self) -> None:
        if self.is_sealed:
            raise SealFault(f"cannot modify sealed capability {self!r}")

    def with_cursor(self, cursor: int) -> "Capability":
        """Move the cursor.  Out-of-bounds cursors are representable (as
        on Morello); the fault happens at dereference time.

        The result is constructed directly — ``dataclasses.replace``
        pays field introspection per call and cursor moves are the most
        frequent derive in guest code.
        """
        self._require_mutable()
        return _fast_cap(self.base, self.length, cursor,
                         self.perms, self.otype, self.valid)

    def add(self, offset: int) -> "Capability":
        return self.with_cursor(self.cursor + offset)

    def set_bounds(self, base: int, length: int) -> "Capability":
        """Shrink bounds to ``[base, base+length)``; growing faults."""
        self._require_mutable()
        if length < 0:
            raise BoundsFault(f"negative capability length {length}")
        if base < self.base or base + length > self.top:
            raise MonotonicityFault(
                f"set_bounds [{base:#x},{base + length:#x}) exceeds "
                f"[{self.base:#x},{self.top:#x})"
            )
        cursor = min(max(self.cursor, base), base + length)
        return _fast_cap(base, length, cursor, self.perms,
                         self.otype, self.valid)

    def and_perms(self, perms: Perm) -> "Capability":
        """Intersect permissions (can only clear bits)."""
        self._require_mutable()
        return _fast_cap(self.base, self.length, self.cursor,
                         self.perms & perms, self.otype, self.valid)

    def without_perms(self, perms: Perm) -> "Capability":
        self._require_mutable()
        return _fast_cap(self.base, self.length, self.cursor,
                         self.perms & ~perms, self.otype, self.valid)

    def invalidated(self) -> "Capability":
        """Return the same bit pattern with the tag cleared."""
        return _fast_cap(self.base, self.length, self.cursor,
                         self.perms, self.otype, False)

    # -- sealing ---------------------------------------------------------

    def sealed(self, otype: int) -> "Capability":
        if self.is_sealed:
            raise SealFault("capability is already sealed")
        if otype == OTYPE_UNSEALED:
            raise SealFault("cannot seal with the unsealed otype")
        return _fast_cap(self.base, self.length, self.cursor,
                         self.perms, otype, self.valid)

    def unsealed(self) -> "Capability":
        if not self.is_sealed:
            raise SealFault("capability is not sealed")
        return _fast_cap(self.base, self.length, self.cursor,
                         self.perms, OTYPE_UNSEALED, self.valid)

    # -- checked dereference ------------------------------------------------

    def check_access(self, perm: Perm, size: int = 1, addr: int | None = None) -> int:
        """Validate a dereference; returns the effective address.

        Raises the same fault classes Morello would deliver: tag, seal,
        permission, then bounds.
        """
        # inlined (no has_perm/in_bounds/property calls): this is the
        # per-access hot path
        if not self.valid:
            raise TagFault(f"dereference of untagged capability {self!r}")
        if self.otype != OTYPE_UNSEALED:
            raise SealFault(f"dereference of sealed capability {self!r}")
        bits = perm._value_
        if (self.perms._value_ & bits) != bits:
            raise PermissionFault(
                f"capability lacks {perm!r}: has {self.perms!r}")
        effective = self.cursor if addr is None else addr
        if not (self.base <= effective
                and effective + size <= self.base + self.length):
            raise BoundsFault(
                f"access [{effective:#x},{effective + size:#x}) "
                f"outside [{self.base:#x},{self.top:#x})")
        return effective

    # -- relocation support (μFork §4.2) -------------------------------------

    def rebased(self, delta: int) -> "Capability":
        """Shift base and cursor by ``delta``.

        This is a *kernel-only* operation: it is not monotonic and models
        the relocation the μFork kernel (which holds the root capability)
        performs when copying a page into the child μprocess.
        """
        return _fast_cap(self.base + delta, self.length,
                         self.cursor + delta, self.perms,
                         self.otype, self.valid)

    def clamped_to(self, base: int, top: int) -> "Capability":
        """Restrict bounds to intersect [base, top) (kernel-only)."""
        new_base = max(self.base, base)
        new_top = min(self.top, top)
        if new_top < new_base:
            new_base = new_top = base
        return _fast_cap(new_base, new_top - new_base, self.cursor,
                         self.perms, self.otype, self.valid)

    def __repr__(self) -> str:
        seal = "" if not self.is_sealed else f" sealed:{self.otype}"
        tag = "" if self.valid else " INVALID"
        return (
            f"Cap[{self.base:#x}+{self.length:#x} @{self.cursor:#x} "
            f"{self.perms!r}{seal}{tag}]"
        )
