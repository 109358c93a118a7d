"""Page tables, address spaces, and fault dispatch.

An :class:`AddressSpace` is a page table bound to the machine's physical
memory.  The SASOS owns exactly one (kernel and every μprocess live in
it); the monolithic baseline creates one per process.

Faults are the extension point that makes the μFork copy strategies
work: when an access violates page permissions (or hits an unmapped
page) the address space charges the fault cost and calls the registered
fault handler.  CoW, CoA and CoPA are all implemented as fault handlers
(:mod:`repro.core.strategies`); the dedicated *capability-load* access
kind models CHERI's fault-on-capability-load page permission that CoPA
requires (§4.2).

The page table (docs/ARCHITECTURE.md "Vectorized engine") is a
:class:`FlatPageTable`: PTE state lives in dense per-chunk parallel
arrays — an ``array('q')`` of frame numbers, a ``bytearray`` of
permission bits and a ``bytearray`` of CoW marks, :data:`CHUNK` vpns
per chunk — with the free-form ``note`` slot in a sparse side dict.
:meth:`FlatPageTable.get` hands out interned write-through
:class:`_PteView` objects so ``pte.perms = x`` call sites work, while
the bulk operations (:meth:`AddressSpace.mapped_items` /
:meth:`AddressSpace.map_run` / :meth:`AddressSpace.unmap_range`) and
the inlined walk fast paths touch the arrays directly.  Iteration is
*stable*: entries come out in ascending vpn order, so walks, teardown
frees and audits do not depend on insertion history.

Callers outside :mod:`repro.hw` must stay on the public surface —
``get``/``entries``/``map_page``/``mapped_items``/... — and never touch
the chunk arrays; ``tests/test_memory_api_clean.py`` enforces that
contract by grep, and ``tests/test_mem_oracle.py`` checks the surface
against a dict reference model.
"""

from __future__ import annotations

from array import array
from enum import Enum, IntFlag, auto
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cheri.capability import Capability
from repro.cheri.codec import CAP_SIZE
from repro.errors import (
    ProtectionError,
    UnmappedAddressError,
)
from repro.hw.phys import _ZEROS, Frame


class PagePerm(IntFlag):
    """Page-table permission bits."""

    NONE = 0
    READ = 1 << 0
    WRITE = 1 << 1
    EXEC = 1 << 2
    #: CHERI page permission: when absent, *loading a capability* from
    #: the page faults even though plain data loads succeed.  This is
    #: the hardware hook CoPA is built on.
    LOAD_CAP = 1 << 3

    @classmethod
    def rwc(cls) -> "PagePerm":
        return _PAGE_RWC

    @classmethod
    def read_only(cls) -> "PagePerm":
        return _PAGE_RO

    @classmethod
    def rx(cls) -> "PagePerm":
        return _PAGE_RX


#: precomputed composite page-permission constants (pure values; callers
#: skip IntFlag ``|`` member resolution)
_PAGE_RWC = PagePerm.READ | PagePerm.WRITE | PagePerm.LOAD_CAP
_PAGE_RO = PagePerm.READ | PagePerm.LOAD_CAP
_PAGE_RX = PagePerm.READ | PagePerm.EXEC | PagePerm.LOAD_CAP


class AccessKind(Enum):
    READ = auto()
    WRITE = auto()
    EXEC = auto()
    #: a capability (tagged, 16-byte) load — distinct so the CoPA
    #: fault-on-capability-load bit can be modeled
    CAP_LOAD = auto()

    @property
    def is_write(self) -> bool:
        return self is AccessKind.WRITE


#: per access kind: the page permissions it requires and its name in
#: errors, counters and traces
_ACCESS = {
    AccessKind.READ: (PagePerm.READ, "read"),
    AccessKind.WRITE: (PagePerm.WRITE, "write"),
    AccessKind.EXEC: (PagePerm.EXEC, "exec"),
    AccessKind.CAP_LOAD: (PagePerm.READ | PagePerm.LOAD_CAP, "cap_load"),
}

# Per-member attributes precomputed for the walk and fault paths: an
# attribute load skips both the Enum.__hash__ dict probe and the
# per-fault f-string formatting, and the walk compares raw permission
# bits instead of instantiating IntFlags.
for _kind, (_mask, _name) in _ACCESS.items():
    _kind._req_bits = int(_mask)
    _kind._nm = _name
    _kind._fault_counter = f"fault_{_name}"
    _kind._fault_obs = f"hw.paging.fault.{_name}"
del _kind, _mask, _name

#: raw permission-bit masks for the two byte-access kinds, hoisted for
#: the inline walk-cache probes in :meth:`AddressSpace.read`/``write``
_READ_BITS = AccessKind.READ._req_bits
_WRITE_BITS = AccessKind.WRITE._req_bits


#: vpns per chunk of the flat representation (2^9 → a chunk covers 2 MiB
#: of VA at 4 KiB pages, one dict probe per chunk on the walk)
CHUNK_SHIFT = 9
CHUNK = 1 << CHUNK_SHIFT
_CHUNK_MASK = CHUNK - 1

#: template for freshly created chunks: every slot unmapped
_EMPTY_FRAMES = array("q", [-1]) * CHUNK


class _PteView:
    """A write-through page-table entry over one :class:`FlatPageTable`
    slot.

    ``frame``/``perms``/``cow`` (the classic copy-on-write marker of
    the monolithic baseline) and ``note`` (a free-form slot for the
    owning OS: μFork strategies stash the fork-sharing record here) read
    and write straight into the chunk arrays.  Views are interned per
    vpn (one live object per mapped page) and detached on unmap.
    """

    __slots__ = ("_table", "_vpn", "_chunk", "_index")

    def __init__(self, table: "FlatPageTable", vpn: int) -> None:
        self._table = table
        self._vpn = vpn
        self._chunk = vpn >> CHUNK_SHIFT
        self._index = vpn & _CHUNK_MASK

    @property
    def frame(self) -> int:
        return self._table._frames[self._chunk][self._index]

    @frame.setter
    def frame(self, value: int) -> None:
        self._table._frames[self._chunk][self._index] = value

    @property
    def perms(self) -> PagePerm:
        return PagePerm(self._table._perms[self._chunk][self._index])

    @perms.setter
    def perms(self, value: PagePerm) -> None:
        self._table._perms[self._chunk][self._index] = int(value)

    @property
    def cow(self) -> bool:
        return bool(self._table._cow[self._chunk][self._index])

    @cow.setter
    def cow(self, value: bool) -> None:
        self._table._cow[self._chunk][self._index] = 1 if value else 0

    @property
    def note(self) -> Any:
        return self._table._notes.get(self._vpn)

    @note.setter
    def note(self, value: Any) -> None:
        if value is None:
            self._table._notes.pop(self._vpn, None)
        else:
            self._table._notes[self._vpn] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"_PteView(vpn={self._vpn:#x}, frame={self.frame}, "
                f"perms={self.perms!r}, cow={self.cow})")


class FlatPageTable:
    """Dense chunked parallel-array page table.

    State lives in per-chunk parallel arrays (see module docstring)
    that the address-space fast paths and bulk operations index
    directly.
    """

    def __init__(self) -> None:
        self._frames: Dict[int, array] = {}
        self._perms: Dict[int, bytearray] = {}
        self._cow: Dict[int, bytearray] = {}
        self._notes: Dict[int, Any] = {}
        self._views: Dict[int, _PteView] = {}
        self._chunk_len: Dict[int, int] = {}
        self._len = 0

    # -- chunk plumbing ---------------------------------------------------

    def _chunk_for(self, chunk_id: int) -> array:
        frames = self._frames.get(chunk_id)
        if frames is None:
            frames = self._frames[chunk_id] = array("q", _EMPTY_FRAMES)
            self._perms[chunk_id] = bytearray(CHUNK)
            self._cow[chunk_id] = bytearray(CHUNK)
            self._chunk_len[chunk_id] = 0
        return frames

    def _drop_slot(self, chunk_id: int, index: int, vpn: int) -> None:
        self._frames[chunk_id][index] = -1
        self._perms[chunk_id][index] = 0
        self._cow[chunk_id][index] = 0
        self._notes.pop(vpn, None)
        self._views.pop(vpn, None)
        self._len -= 1
        remaining = self._chunk_len[chunk_id] - 1
        if remaining:
            self._chunk_len[chunk_id] = remaining
        else:
            del self._frames[chunk_id]
            del self._perms[chunk_id]
            del self._cow[chunk_id]
            del self._chunk_len[chunk_id]

    # -- read surface -------------------------------------------------------

    def get(self, vpn: int) -> Optional[_PteView]:
        frames = self._frames.get(vpn >> CHUNK_SHIFT)
        if frames is None or frames[vpn & _CHUNK_MASK] < 0:
            return None
        view = self._views.get(vpn)
        if view is None:
            view = self._views[vpn] = _PteView(self, vpn)
        return view

    def remove(self, vpn: int) -> int:
        """Drop the mapping at ``vpn``; returns the frame it held."""
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = self._frames.get(chunk_id)
        if frames is None or frames[index] < 0:
            raise KeyError(vpn)
        frame = frames[index]
        self._drop_slot(chunk_id, index, vpn)
        return frame

    def __contains__(self, vpn: int) -> bool:
        frames = self._frames.get(vpn >> CHUNK_SHIFT)
        return frames is not None and frames[vpn & _CHUNK_MASK] >= 0

    def __len__(self) -> int:
        return self._len

    def entries(self) -> Iterator[Tuple[int, _PteView]]:
        for chunk_id in sorted(self._frames):
            frames = self._frames[chunk_id]
            base = chunk_id << CHUNK_SHIFT
            for index in range(CHUNK):
                if frames[index] >= 0:
                    vpn = base + index
                    yield vpn, self.get(vpn)

    def vpns(self) -> Iterator[int]:
        for chunk_id in sorted(self._frames):
            frames = self._frames[chunk_id]
            base = chunk_id << CHUNK_SHIFT
            for index in range(CHUNK):
                if frames[index] >= 0:
                    yield base + index


#: fault handler: (space, vaddr, kind) -> True if resolved (retry access)
FaultHandler = Callable[["AddressSpace", int, AccessKind], bool]


class AddressSpace:
    """A page table plus access methods with fault dispatch.

    ``machine`` is any object exposing ``config``, ``costs``, ``clock``,
    ``counters``, ``phys``, ``codec``, ``obs``, ``tracer`` and
    ``translation_gen`` (see :class:`repro.machine.Machine`).
    """

    def __init__(self, machine: Any, name: str = "as") -> None:
        self.machine = machine
        self.name = name
        self.page_table = FlatPageTable()
        self.fault_handler: Optional[FaultHandler] = None
        #: optional bulk CoW-break hook for :meth:`write_run`: called as
        #: ``hook(space, vpns)`` with the run's write-blocked vpns in
        #: first-occurrence order; returns True when it broke them all
        #: (False leaves state untouched — per-fault dispatch follows)
        self.write_break_hook: Optional[Any] = None
        self._page_size = machine.config.page_size
        #: host-side page-walk cache: vpn -> (chunk perms bytearray,
        #: slot index, Frame).  Entries are only trusted while the
        #: generation stamp matches, the *live* permission byte is
        #: re-checked on every hit (so permission narrowing — CoW/CoPA
        #: sharing — can never be bypassed), and every single-vpn table
        #: edit (map/unmap/replace_frame) pops exactly its own entry.
        self._walk_cache: Dict[int, Tuple[bytearray, int, Frame]] = {}
        #: generation of the cached entries: the machine-wide TLB
        #: flush/shootdown generation (cross-core invalidations clear
        #: the whole cache)
        self._walk_stamp = -1
        #: size -> int(round(memcpy_ns_per_byte * size)); sound because
        #: ``machine.costs`` is a frozen dataclass assigned once at
        #: machine construction
        self._charge_memo: Dict[int, int] = {}
        #: pre-rounded fault charge (None until first fault; -1 when
        #: ``page_fault_ns`` is non-integral and must round per call)
        self._fault_int: Optional[int] = None

    # -- mapping ------------------------------------------------------------

    def map_page(self, vpn: int, frame: int, perms: PagePerm,
                 incref: bool = False, cow: bool = False,
                 note: Any = None) -> Any:
        table = self.page_table
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = table._chunk_for(chunk_id)
        if frames[index] >= 0:
            raise ValueError(f"vpn {vpn:#x} already mapped in {self.name}")
        if incref:
            self.machine.phys.incref(frame)
        frames[index] = frame
        table._perms[chunk_id][index] = int(perms)
        table._cow[chunk_id][index] = 1 if cow else 0
        if note is not None:
            table._notes[vpn] = note
        table._len += 1
        table._chunk_len[chunk_id] += 1
        # single-vpn edit: only this translation can change, so the walk
        # cache drops exactly this entry instead of a full generation
        # bump (which would clear the whole cache on every CoW break)
        self._walk_cache.pop(vpn, None)
        return table.get(vpn)

    def unmap_page(self, vpn: int, decref: bool = True) -> int:
        frame = self.page_table.remove(vpn)
        if decref:
            self.machine.phys.decref(frame)
        self._walk_cache.pop(vpn, None)
        return frame

    def protect_page(self, vpn: int, perms: PagePerm) -> None:
        table = self.page_table
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = table._frames.get(chunk_id)
        if frames is None or frames[index] < 0:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        # in-place permission write: cached walk entries alias this
        # byte, so narrowing takes effect on their very next probe
        table._perms[chunk_id][index] = int(perms)

    def protect_run(self, start_vpn: int, count: int,
                    perms: PagePerm) -> None:
        """:meth:`protect_page` for ``count`` consecutive vpns.

        Charge-free, like :meth:`protect_page`.  Validate-all-then-
        write: an unmapped vpn anywhere in the run raises before any
        permission changes; each chunk's span is then one slice write.
        """
        table = self.page_table
        spans = []
        vpn = start_vpn
        remaining = count
        while remaining > 0:
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            take = min(remaining, CHUNK - index)
            frames = table._frames.get(chunk_id)
            if frames is None or min(frames[index:index + take]) < 0:
                bad = next(v for v in range(vpn, vpn + take)
                           if frames is None
                           or frames[v & _CHUNK_MASK] < 0)
                raise KeyError(f"vpn {bad:#x} not mapped")
            spans.append((chunk_id, index, take))
            vpn += take
            remaining -= take
        value = int(perms)
        for chunk_id, index, take in spans:
            table._perms[chunk_id][index:index + take] = \
                bytes([value]) * take

    def replace_frame(self, vpn: int, frame: int, decref_old: bool = True) -> None:
        """Point an existing mapping at a different frame (CoW break)."""
        frames = self.page_table._frames.get(vpn >> CHUNK_SHIFT)
        index = vpn & _CHUNK_MASK
        if frames is None or frames[index] < 0:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        if decref_old:
            self.machine.phys.decref(frames[index])
        frames[index] = frame
        # the cached tuple holds the *old* Frame object; drop this vpn
        self._walk_cache.pop(vpn, None)

    def privatize_page(self, vpn: int, perms: PagePerm,
                       new_frame: Optional[int] = None,
                       decref_old: bool = True) -> None:
        """CoW-break fusion: optionally repoint ``vpn`` at ``new_frame``
        (decref'ing the old frame unless the caller already settled the
        refcount), restore ``perms`` and clear the share note —
        :meth:`replace_frame` + :meth:`protect_page` + :meth:`set_note`
        semantics in one slot visit, because the fault path runs this
        once per broken page.
        """
        table = self.page_table
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        frames = table._frames.get(chunk_id)
        if frames is None or frames[index] < 0:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        if new_frame is not None:
            if decref_old:
                self.machine.phys.decref(frames[index])
            frames[index] = new_frame
            # the cached tuple holds the *old* Frame object; install
            # the new translation (walk-cache entries are charge-free
            # — :meth:`resolve` — so this only skips a redundant walk,
            # never a simulated charge)
            if self.machine.translation_gen == self._walk_stamp:
                self._walk_cache[vpn] = (
                    table._perms[chunk_id], index,
                    self.machine.phys.frame(new_frame))
            else:
                self._walk_cache.pop(vpn, None)
        # in-place permission write: cached walk entries alias this
        # byte (see :meth:`protect_page`)
        table._perms[chunk_id][index] = int(perms)
        table._notes.pop(vpn, None)

    # -- bulk mapping interface (docs/ARCHITECTURE.md "Vectorized engine") --

    def mapped_items(self, lo_vpn: int, hi_vpn: int
                     ) -> List[Tuple[int, int, int, bool, Any]]:
        """All mappings with ``lo_vpn <= vpn < hi_vpn``, ascending.

        Returns ``(vpn, frame, perms_int, cow, note)`` tuples — the raw
        PTE state, no view/PTE objects — so walkers (fork, snapshot,
        audit) can sweep a region without per-page ``get`` calls.
        """
        out: List[Tuple[int, int, int, bool, Any]] = []
        table = self.page_table
        chunks = table._frames
        notes = table._notes
        lo_chunk = lo_vpn >> CHUNK_SHIFT
        hi_chunk = (hi_vpn + _CHUNK_MASK) >> CHUNK_SHIFT
        if hi_chunk - lo_chunk > len(chunks):
            span = sorted(c for c in chunks
                          if lo_chunk <= c < hi_chunk)
        else:
            span = [c for c in range(lo_chunk, hi_chunk) if c in chunks]
        for chunk_id in span:
            frames = chunks[chunk_id]
            perms = table._perms[chunk_id]
            cow = table._cow[chunk_id]
            base = chunk_id << CHUNK_SHIFT
            start = max(lo_vpn - base, 0)
            stop = min(hi_vpn - base, CHUNK)
            for index in range(start, stop):
                frame = frames[index]
                if frame >= 0:
                    vpn = base + index
                    out.append((vpn, frame, perms[index],
                                bool(cow[index]), notes.get(vpn)))
        return out

    def map_run(self, start_vpn: int, frames: Sequence[int], perms: PagePerm,
                incref: bool = False, cow: bool = False,
                note: Any = None) -> None:
        """Map ``frames`` at consecutive vpns from ``start_vpn``.

        Equivalent to ``map_page`` per frame with the same arguments
        (including the already-mapped check, made per chunk before that
        chunk is written); the chunk arrays are filled with slice
        stores.
        """
        count = len(frames)
        if count == 0:
            return
        table = self.page_table
        perms_int = int(perms)
        cow_int = 1 if cow else 0
        phys = self.machine.phys
        position = 0
        vpn = start_vpn
        while position < count:
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            take = min(CHUNK - index, count - position)
            chunk_frames = table._chunk_for(chunk_id)
            if chunk_frames[index:index + take].count(-1) != take:
                for slot in range(index, index + take):
                    if chunk_frames[slot] >= 0:
                        raise ValueError(
                            f"vpn {(chunk_id << CHUNK_SHIFT) + slot:#x} "
                            f"already mapped in {self.name}")
            if incref:
                for frame in frames[position:position + take]:
                    phys.incref(frame)
            chunk_frames[index:index + take] = array(
                "q", frames[position:position + take])
            table._perms[chunk_id][index:index + take] = \
                bytes([perms_int]) * take
            if cow_int:
                table._cow[chunk_id][index:index + take] = b"\x01" * take
            if note is not None:
                notes = table._notes
                for offset in range(take):
                    notes[vpn + offset] = note
            table._len += take
            table._chunk_len[chunk_id] += take
            cache_pop = self._walk_cache.pop
            for offset in range(take):
                cache_pop(vpn + offset, None)
            vpn += take
            position += take

    def unmap_range(self, lo_vpn: int, hi_vpn: int,
                    decref: bool = True) -> int:
        """Unmap every mapping in [lo, hi); returns the count.

        Frames are released in ascending vpn order — the same free-list
        order the per-page ``unmap_page`` loop produces.
        """
        items = self.mapped_items(lo_vpn, hi_vpn)
        if not items:
            return 0
        table = self.page_table
        chunks = table._frames
        all_perms = table._perms
        all_cow = table._cow
        chunk_len = table._chunk_len
        notes_pop = table._notes.pop
        views_pop = table._views.pop
        cache_pop = self._walk_cache.pop
        count = len(items)
        position = 0
        while position < count:
            vpn = items[position][0]
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            # longest run of consecutive vpns inside this chunk
            end = position + 1
            limit = min(position + (CHUNK - index), count)
            expect = vpn + 1
            while end < limit and items[end][0] == expect:
                end += 1
                expect += 1
            take = end - position
            chunks[chunk_id][index:index + take] = \
                _EMPTY_FRAMES[:take]
            all_perms[chunk_id][index:index + take] = _ZEROS[:take]
            all_cow[chunk_id][index:index + take] = _ZEROS[:take]
            for gone in range(vpn, expect):
                notes_pop(gone, None)
                views_pop(gone, None)
                cache_pop(gone, None)
            table._len -= take
            remaining = chunk_len[chunk_id] - take
            if remaining:
                chunk_len[chunk_id] = remaining
            else:
                del chunks[chunk_id]
                del all_perms[chunk_id]
                del all_cow[chunk_id]
                del chunk_len[chunk_id]
            position = end
        if decref:
            self.machine.phys.decref_many(
                [item[1] for item in items])
        return count

    # -- single-slot accessors (fault-path helpers, no view objects) -------

    def frame_of(self, vpn: int) -> Optional[int]:
        """The frame mapped at ``vpn``, or None."""
        frames = self.page_table._frames.get(vpn >> CHUNK_SHIFT)
        if frames is None:
            return None
        frame = frames[vpn & _CHUNK_MASK]
        return frame if frame >= 0 else None

    def note_of(self, vpn: int) -> Any:
        """The note stored at ``vpn`` (None when absent/unmapped)."""
        return self.page_table._notes.get(vpn)

    def set_note(self, vpn: int, note: Any) -> None:
        """Attach/replace/clear (``None``) the note of a mapped vpn."""
        table = self.page_table
        frames = table._frames.get(vpn >> CHUNK_SHIFT)
        if frames is None or frames[vpn & _CHUNK_MASK] < 0:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        if note is None:
            table._notes.pop(vpn, None)
        else:
            table._notes[vpn] = note

    def set_note_many(self, vpns: Sequence[int], note: Any) -> None:
        """:meth:`set_note` for each vpn.

        Validate-all-then-write: an unmapped vpn anywhere in the batch
        raises before any note is touched.
        """
        table = self.page_table
        chunks = table._frames
        for vpn in vpns:
            frames = chunks.get(vpn >> CHUNK_SHIFT)
            if frames is None or frames[vpn & _CHUNK_MASK] < 0:
                raise KeyError(f"vpn {vpn:#x} not mapped")
        notes = table._notes
        if note is None:
            for vpn in vpns:
                notes.pop(vpn, None)
        else:
            for vpn in vpns:
                notes[vpn] = note

    def noted_items(self) -> List[Tuple[int, Any]]:
        """All (vpn, note) pairs with a non-None note, ascending vpn."""
        return sorted(self.page_table._notes.items())

    # -- translation with fault dispatch ---------------------------------------

    def _vpn(self, vaddr: int) -> int:
        return vaddr // self._page_size

    def resolve(self, vaddr: int, kind: AccessKind,
                privileged: bool = False) -> Tuple[Frame, int]:
        """Translate an address, dispatching faults at most once.

        Successful walks are served from a generation-stamped cache:
        one dict probe plus a raw permission-bit check against the live
        chunk byte.  The stamp folds in the machine's TLB
        flush/shootdown generation, so any cross-core invalidation
        drops every cached translation before it can be reused — the
        cache is host-side only and never changes fault dispatch order
        or SMP shootdown behaviour.
        """
        page_size = self._page_size
        vpn = vaddr // page_size
        stamp = self.machine.translation_gen
        if stamp != self._walk_stamp:
            self._walk_cache.clear()
            self._walk_stamp = stamp
        else:
            hit = self._walk_cache.get(vpn)
            if hit is not None:
                perms, index, frame = hit
                if privileged:
                    return frame, vaddr % page_size
                bits = kind._req_bits
                if (perms[index] & bits) == bits:
                    return frame, vaddr % page_size
        table = self.page_table
        chunk_id = vpn >> CHUNK_SHIFT
        index = vpn & _CHUNK_MASK
        for attempt in (0, 1):
            frames = table._frames.get(chunk_id)
            if frames is not None and frames[index] >= 0:
                if privileged:
                    # only perm-complete walks are cached: a
                    # privileged bypass must never satisfy a later
                    # user access
                    return (self.machine.phys.frame(frames[index]),
                            vaddr % page_size)
                perms = table._perms[chunk_id]
                bits = kind._req_bits
                if (perms[index] & bits) == bits:
                    frame = self.machine.phys.frame(frames[index])
                    self._walk_cache[vpn] = (perms, index, frame)
                    return frame, vaddr % page_size
            if attempt == 1:
                break
            if not self._dispatch_fault(vaddr, kind):
                break
        if vpn not in table:
            raise UnmappedAddressError(vaddr, kind._nm)
        raise ProtectionError(vaddr, kind._nm)

    def _dispatch_fault(self, vaddr: int, kind: AccessKind) -> bool:
        """Charge the fault and hand it to the registered handler.

        Observable as ``hw.paging.fault.<kind>`` counters — the
        ``cap_load`` kind counts CoPA's fault-on-capability-load traps.
        """
        machine = self.machine
        clock = machine.clock
        ns_int = self._fault_int
        if ns_int is None:
            fault_ns = machine.costs.page_fault_ns
            ns_int = int(fault_ns) if fault_ns == int(fault_ns) else -1
            self._fault_int = ns_int
        if ns_int >= 0 and clock.observer is None:
            # pre-rounded integral charge: bit-equal to ``advance``
            clock._now_ns += ns_int
            buckets = clock.buckets
            buckets["page_fault"] = \
                buckets.get("page_fault", 0) + ns_int
        else:
            clock.advance(machine.costs.page_fault_ns, "page_fault")
        machine.counters.add(kind._fault_counter)
        if machine.tracer is not None or machine.obs.enabled:
            machine.obs.count(kind._fault_obs)
            machine.trace("page_fault", vaddr=vaddr, kind=kind._nm,
                          space=self.name)
        if self.fault_handler is None:
            return False
        return self.fault_handler(self, vaddr, kind)

    # -- byte access ------------------------------------------------------------

    def read(self, vaddr: int, size: int, privileged: bool = False,
             charge: bool = True) -> bytes:
        """Read bytes (may span pages)."""
        offset = vaddr % self._page_size
        if offset + size <= self._page_size:
            # single-page fast path: no accumulator, one frame read.
            # The walk-cache probe, the frame read and the clock
            # charge are all inlined (bit-identical to the layered
            # path: same stamp + raw perm-bit checks as the hit
            # path in :meth:`resolve`, same memcpy charge rounded
            # through the memo); any miss falls back to resolve.
            machine = self.machine
            frame = None
            if machine.translation_gen == self._walk_stamp:
                hit = self._walk_cache.get(vaddr // self._page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if not privileged and \
                            (perms[index] & _READ_BITS) != _READ_BITS:
                        frame = None
            if frame is None:
                frame, offset = self.resolve(vaddr, AccessKind.READ,
                                             privileged)
            data = bytes(frame.data[offset:offset + size])
            if charge:
                ns_int = self._charge_memo.get(size)
                if ns_int is None:
                    ns_int = int(round(
                        machine.costs.memcpy_ns_per_byte * size))
                    self._charge_memo[size] = ns_int
                clock = machine.clock
                clock._now_ns += ns_int
                buckets = clock.buckets
                buckets["mem_read"] = buckets.get("mem_read", 0) + ns_int
                if clock.observer is not None:
                    clock.observer(ns_int, "mem_read")
            return data
        out = bytearray()
        remaining = size
        addr = vaddr
        while remaining > 0:
            frame, offset = self.resolve(addr, AccessKind.READ, privileged)
            chunk = min(remaining, self._page_size - offset)
            out += frame.read(offset, chunk)
            addr += chunk
            remaining -= chunk
        if charge:
            self.machine.clock.advance(
                self.machine.costs.memcpy_ns_per_byte * size, "mem_read"
            )
        return bytes(out)

    def write(self, vaddr: int, data: bytes, privileged: bool = False,
              charge: bool = True) -> None:
        """Write bytes (may span pages); clears tags of touched granules."""
        offset = vaddr % self._page_size
        size = len(data)
        if offset + size <= self._page_size:
            # single-page fast path: skips the loop bookkeeping and
            # the per-chunk payload copy the spanning path makes.
            # Walk-cache probe, byte store + batched tag clear
            # (same cleared set as :meth:`Frame.write`) and the
            # memoised memcpy charge are all inlined, as in
            # :meth:`read`.
            machine = self.machine
            frame = None
            if machine.translation_gen == self._walk_stamp:
                hit = self._walk_cache.get(vaddr // self._page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if not privileged and \
                            (perms[index] & _WRITE_BITS) != _WRITE_BITS:
                        frame = None
            if frame is None:
                frame, offset = self.resolve(vaddr, AccessKind.WRITE,
                                             privileged)
            frame.version += 1
            frame.data[offset:offset + size] = data
            first = offset // CAP_SIZE
            count = (offset + size - 1) // CAP_SIZE + 1 - first
            if count > 0:
                frame.tags[first:first + count] = \
                    _ZEROS[:count] if count <= len(_ZEROS) \
                    else bytes(count)
            if charge:
                ns_int = self._charge_memo.get(size)
                if ns_int is None:
                    ns_int = int(round(
                        machine.costs.memcpy_ns_per_byte * size))
                    self._charge_memo[size] = ns_int
                clock = machine.clock
                clock._now_ns += ns_int
                buckets = clock.buckets
                buckets["mem_write"] = buckets.get("mem_write", 0) + ns_int
                if clock.observer is not None:
                    clock.observer(ns_int, "mem_write")
            return
        self._write_layered(vaddr, data, privileged, charge)

    def write_run(self, vaddrs: Sequence[int], data: bytes,
                  privileged: bool = False) -> None:
        """``write(vaddr, data)`` for each address, charges batched.

        Simulated-identical to the per-call loop: each address gets the
        same walk/fault dispatch in sequence order and the same cleared
        tag set; only the memcpy charge is batched, as the exact sum of
        the identical per-call rounded charges.  Falls back to per-call
        :meth:`write` whenever batching could be observable (a clock
        observer attributing charges to an open profiling span).
        """
        machine = self.machine
        if machine.clock.observer is not None:
            for vaddr in vaddrs:
                self.write(vaddr, data, privileged)
            return
        size = len(data)
        page_size = self._page_size
        ns_int = self._charge_memo.get(size)
        if ns_int is None:
            ns_int = int(round(machine.costs.memcpy_ns_per_byte * size))
            self._charge_memo[size] = ns_int
        cache_get = self._walk_cache.get
        # one shot at the bulk CoW-break hook per run: on the first
        # blocked store, the rest of the run is classified and — when
        # every blocked page is a clean sharing break — broken in one
        # vectorized pass instead of one fault dispatch per page
        hook = None if privileged else self.write_break_hook
        count = 0
        check_perms = not privileged
        write_bits = _WRITE_BITS
        cap_size = CAP_SIZE
        zeros = _ZEROS
        zeros_len = len(_ZEROS)
        # the stamp can only move inside fault dispatch (hook/resolve),
        # so it is re-checked after those instead of per store
        stamp_ok = machine.translation_gen == self._walk_stamp
        for position, vaddr in enumerate(vaddrs):
            offset = vaddr % page_size
            if offset + size > page_size:
                # page-spanning store: the layered path (charges itself)
                self.write(vaddr, data, privileged)
                stamp_ok = machine.translation_gen == self._walk_stamp
                continue
            frame = None
            if stamp_ok:
                hit = cache_get(vaddr // page_size)
                if hit is not None:
                    perms, index, frame = hit
                    if check_perms and \
                            (perms[index] & write_bits) != write_bits:
                        frame = None
            if frame is None:
                if hook is not None:
                    run_hook, hook = hook, None
                    blocked = self._blocked_write_vpns(vaddrs, position,
                                                       size)
                    if blocked:
                        machine.irq_depth += 1
                        try:
                            run_hook(self, blocked)
                        finally:
                            machine.irq_depth -= 1
                frame, offset = self.resolve(vaddr, AccessKind.WRITE,
                                             privileged)
                stamp_ok = machine.translation_gen == self._walk_stamp
            frame.version += 1
            frame.data[offset:offset + size] = data
            first = offset // cap_size
            tag_count = (offset + size - 1) // cap_size + 1 - first
            if tag_count > 0:
                frame.tags[first:first + tag_count] = \
                    zeros[:tag_count] if tag_count <= zeros_len \
                    else bytes(tag_count)
            count += 1
        if count:
            total = ns_int * count
            clock = machine.clock
            clock._now_ns += total
            buckets = clock.buckets
            buckets["mem_write"] = buckets.get("mem_write", 0) + total

    def _blocked_write_vpns(self, vaddrs: Sequence[int], start: int,
                            size: int) -> Optional[List[int]]:
        """Distinct vpns (first-occurrence order) in ``vaddrs[start:]``
        whose current mapping blocks an unprivileged write.

        Purely a read-only probe for the bulk-break hook.  Returns None
        (caller falls back to per-fault dispatch) when the tail holds a
        page-spanning store or an unmapped page — cases whose faults
        must fire per-op, in sequence order.
        """
        table = self.page_table
        chunks = table._frames
        perms_map = table._perms
        page_size = self._page_size
        seen = set()
        out: List[int] = []
        for vaddr in vaddrs[start:]:
            if vaddr % page_size + size > page_size:
                return None
            vpn = vaddr // page_size
            if vpn in seen:
                continue
            seen.add(vpn)
            chunk_id = vpn >> CHUNK_SHIFT
            index = vpn & _CHUNK_MASK
            frames = chunks.get(chunk_id)
            if frames is None or frames[index] < 0:
                return None
            if (perms_map[chunk_id][index] & _WRITE_BITS) != _WRITE_BITS:
                out.append(vpn)
        return out

    def _write_layered(self, vaddr: int, data: bytes, privileged: bool,
                       charge: bool) -> None:
        offset_in_data = 0
        addr = vaddr
        remaining = len(data)
        while remaining > 0:
            frame, offset = self.resolve(addr, AccessKind.WRITE, privileged)
            chunk = min(remaining, self._page_size - offset)
            frame.write(offset, data[offset_in_data:offset_in_data + chunk])
            addr += chunk
            offset_in_data += chunk
            remaining -= chunk
        if charge:
            self.machine.clock.advance(
                self.machine.costs.memcpy_ns_per_byte * len(data), "mem_write"
            )

    # -- capability access ----------------------------------------------------------

    def load_cap(self, vaddr: int, privileged: bool = False) -> Capability:
        """Load one capability granule (subject to the CoPA fault bit)."""
        kind = AccessKind.CAP_LOAD
        frame, offset = self.resolve(vaddr, kind, privileged)
        return frame.load_cap(offset, self.machine.codec)

    def store_cap(self, vaddr: int, cap: Capability,
                  privileged: bool = False) -> None:
        frame, offset = self.resolve(vaddr, AccessKind.WRITE, privileged)
        frame.store_cap(offset, cap, self.machine.codec)

    # -- accounting -----------------------------------------------------------------

    def resident_bytes(self, lo_vaddr: int, hi_vaddr: int,
                       proportional: bool = True) -> float:
        """Resident set of the VA range [lo, hi).

        With ``proportional`` (the paper's metric, §5.2) each mapped page
        contributes ``page_size / frame_refcount`` so memory shared with
        another process is split between its sharers.
        """
        lo_vpn = lo_vaddr // self._page_size
        hi_vpn = (hi_vaddr + self._page_size - 1) // self._page_size
        total = 0.0
        refcount = self.machine.phys.refcount
        for _vpn, frame, _perms, _cow, _note in \
                self.mapped_items(lo_vpn, hi_vpn):
            if proportional:
                total += self._page_size / refcount(frame)
            else:
                total += self._page_size
        return total

    def mapped_pages(self, lo_vaddr: int, hi_vaddr: int) -> int:
        lo_vpn = lo_vaddr // self._page_size
        hi_vpn = (hi_vaddr + self._page_size - 1) // self._page_size
        return len(self.mapped_items(lo_vpn, hi_vpn))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace({self.name!r}, pages={len(self.page_table)})"


# re-export for convenience
__all__ = [
    "AccessKind",
    "AddressSpace",
    "FaultHandler",
    "FlatPageTable",
    "PagePerm",
    "CAP_SIZE",
]
