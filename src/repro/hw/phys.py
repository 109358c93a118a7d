"""Tagged physical memory.

Physical memory is a pool of page-sized :class:`Frame` objects.  Each
frame carries, next to its data bytes, one validity-tag bit per 16-byte
granule — the CHERI tagged memory μFork's relocation scan relies on
(§3.4, building block 3).  The tag invariants enforced here:

* a granule's tag is set only by a legitimate capability store;
* **any** raw byte store overlapping a granule clears its tag;
* copying a frame through the kernel's capability-aware copy preserves
  tags; byte-wise copies do not.

Frames are reference counted so copy-on-write style sharing (all three
μFork strategies, and the monolithic baseline's classic CoW) can be
accounted precisely — the proportional-resident-set numbers in Figs 5
and 8 come straight from these refcounts.

Storage is a **banked flat store** (docs/ARCHITECTURE.md "Vectorized
engine"): data bytes and granule tags live in machine-wide per-bank
``bytearray`` arenas (:data:`BANK_FRAMES` frames per bank) and each
:class:`Frame` holds ``memoryview`` windows into its bank, so frame
copies, tag clears and the relocation scan are C-level slice/``find``
operations over the flat tag bitmap, and
:meth:`PhysicalMemory.copy_frames` can batch a whole fork's page copies
into one accounting pass.  Freed frames are scrubbed lazily, on their
next zeroing allocation.  ``tests/test_mem_oracle.py`` pins this
behaviour against a dict reference model.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.cheri.capability import Capability
from repro.cheri.codec import CAP_SIZE, CapabilityCodec
from repro.clock import EventCounters, SimClock
from repro.errors import AlignmentFault, OutOfMemory
from repro.params import CostModel, MachineConfig

#: shared immutable zero-run used for batched tag clears
_ZEROS = bytes(4096)

#: frames per storage bank in the flat representation; banks are
#: allocated on demand and **never resized** (resizing would invalidate
#: the outstanding ``memoryview`` windows)
BANK_FRAMES = 512


def _zeros(count: int) -> bytes:
    return _ZEROS[:count] if count <= len(_ZEROS) else bytes(count)


class Frame:
    """One physical page: data bytes plus per-granule validity tags.

    ``data`` and ``tags`` are ``memoryview`` windows into the
    machine-wide banked store (a standalone frame owns plain
    ``bytearray`` buffers instead; every access method works on both).
    ``_tag_store``/``_tag_base`` address this frame's granule run inside
    the flat tag bitmap so the relocation scan can use the underlying
    ``bytearray.find`` (memchr) even through a view.
    """

    __slots__ = ("data", "tags", "refcount", "version", "_tag_store",
                 "_tag_base")

    def __init__(self, page_size: int, granules: int) -> None:
        self.data = bytearray(page_size)
        self.tags = bytearray(granules)
        self.refcount = 1
        #: content generation: bumped by every mutation of ``data`` or
        #: ``tags`` (including the inlined stores in
        #: :mod:`repro.hw.paging` and the free-time scrub), so content
        #: memos — the fork-time relocated-page cache — can key on
        #: ``(number, version)`` and never serve stale bytes
        self.version = 0
        self._tag_store = self.tags
        self._tag_base = 0

    @classmethod
    def _bank_view(cls, data_view, tags_view, tag_store: bytearray,
                   tag_base: int) -> "Frame":
        """A frame windowing the banked store."""
        frame = object.__new__(cls)
        frame.data = data_view
        frame.tags = tags_view
        frame.refcount = 1
        frame.version = 0
        frame._tag_store = tag_store
        frame._tag_base = tag_base
        return frame

    # -- byte access ---------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        return bytes(self.data[offset:offset + size])

    def write(self, offset: int, data: bytes) -> None:
        """Raw byte store: clears tags of every overlapped granule
        (one C-level slice store over the granule run)."""
        self.version += 1
        self.data[offset:offset + len(data)] = data
        first = offset // CAP_SIZE
        count = (offset + len(data) - 1) // CAP_SIZE + 1 - first
        if count > 0:
            self.tags[first:first + count] = _zeros(count)

    # -- capability access -----------------------------------------------

    def load_cap(self, offset: int, codec: CapabilityCodec) -> Capability:
        if offset % CAP_SIZE:
            raise AlignmentFault(f"capability load at offset {offset:#x}")
        raw = bytes(self.data[offset:offset + CAP_SIZE])
        valid = bool(self.tags[offset // CAP_SIZE])
        return codec.decode(raw, valid)

    def store_cap(self, offset: int, cap: Capability,
                  codec: CapabilityCodec) -> None:
        if offset % CAP_SIZE:
            raise AlignmentFault(f"capability store at offset {offset:#x}")
        self.version += 1
        self.data[offset:offset + CAP_SIZE] = codec.encode(cap)
        self.tags[offset // CAP_SIZE] = 1 if cap.valid else 0

    def write_granule(self, offset: int, raw: bytes, tag: int) -> None:
        """Store one already-encoded granule plus its validity tag.

        The relocation sweep's write-back primitive: unlike
        :meth:`store_cap` it takes the 16 raw bytes (the memoised
        encoder output) so bulk rewrites skip re-encoding.
        """
        if offset % CAP_SIZE:
            raise AlignmentFault(f"granule store at offset {offset:#x}")
        self.version += 1
        self.data[offset:offset + CAP_SIZE] = raw
        self.tags[offset // CAP_SIZE] = 1 if tag else 0

    def tagged_granules(self) -> List[int]:
        """Offsets of granules currently holding valid capabilities.

        Scans the flat tag bitmap with ``bytearray.find`` (a C memchr
        loop) — on the common mostly-untagged frame this is the
        relocation scan's hot loop.
        """
        out: List[int] = []
        store = self._tag_store
        base = self._tag_base
        end = base + len(self.tags)
        index = store.find(1, base, end)
        while index >= 0:
            out.append((index - base) * CAP_SIZE)
            index = store.find(1, index + 1, end)
        return out

    def clear_tags_range(self, lo_offset: int, hi_offset: int) -> None:
        """Clear the tags of every granule overlapping [lo, hi)."""
        if hi_offset <= lo_offset:
            return
        self.version += 1
        first = lo_offset // CAP_SIZE
        last = (hi_offset - 1) // CAP_SIZE
        count = last + 1 - first
        self.tags[first:last + 1] = _zeros(count)

    def snapshot_content(self) -> Tuple[bytes, bytes]:
        """Immutable ``(data, tags)`` copy of the whole page.

        The content-memo primitive: paired with :meth:`restore_content`
        it lets fork's relocated-page cache replay a page without ever
        reaching into the frame's storage representation.
        """
        return bytes(self.data), bytes(self.tags)

    def restore_content(self, data: bytes, tags: bytes) -> None:
        """Overwrite the whole page's bytes and granule tags."""
        self.version += 1
        self.data[:] = data
        self.tags[:] = tags

    def copy_from(self, other: "Frame", preserve_tags: bool = True) -> None:
        """Copy another frame's contents (kernel capability-aware copy)."""
        self.version += 1
        self.data[:] = other.data
        if preserve_tags:
            self.tags[:] = other.tags
        else:
            self.tags[:] = _zeros(len(self.tags))


class PhysicalMemory:
    """Frame allocator with refcounting and allocation accounting.

    Observability: allocation/copy/free events are counted under
    ``hw.phys.*`` and the live frame count is kept in the
    ``hw.phys.allocated_frames`` gauge (see docs/OBSERVABILITY.md).
    """

    def __init__(self, config: MachineConfig, costs: CostModel,
                 clock: SimClock, counters: EventCounters,
                 obs=None) -> None:
        from repro.chaos.engine import NULL_CHAOS
        from repro.obs import NULL_OBS
        self._config = config
        self._costs = costs
        self._clock = clock
        self._counters = counters
        self._obs = obs if obs is not None else NULL_OBS
        #: fault injection hook (ChaosEngine.attach replaces the null)
        self.chaos = NULL_CHAOS
        self._frames: Dict[int, Frame] = {}
        self._free: List[int] = []
        self._next_frame = 1
        self._capacity_frames = config.dram_bytes // config.page_size
        # per-bank data/tag arenas plus hoisted memoryviews (slicing a memoryview is cheaper than taking a
        # fresh view of the bytearray per frame)
        self._data_banks: List[bytearray] = []
        self._tag_banks: List[bytearray] = []
        self._data_views: List[memoryview] = []
        self._tag_views: List[memoryview] = []
        # frame-object reuse pool: a freed number's Frame keeps its
        # (immutable) bank-window views, so realloc of the same number
        # can revive the object instead of re-slicing the views
        self._frame_pool: Dict[int, Frame] = {}
        # deferred scrub: freeing leaves the slot's stale bytes in the
        # bank (listed here) and the scrub happens only on a later
        # ``zero=True`` allocation of the same number.  Sound because
        # ``alloc(zero=False)`` content is *unspecified* — every caller
        # (frame copy, snapshot restore) fully overwrites data and tags
        # before the frame is readable — and a freed frame is
        # unreachable (not in ``_frames``) until realloc'd.
        self._stale: set = set()
        #: pre-rounded integral per-page copy charge for the bulk path
        self._page_copy_int = int(round(costs.page_copy_ns(config.page_size)))

    # -- allocation ------------------------------------------------------

    def _make_frame(self, number: int) -> Frame:
        pooled = self._frame_pool.get(number)
        if pooled is not None:
            pooled.refcount = 1
            return pooled
        page_size = self._config.page_size
        granules = self._config.granules_per_page
        bank, slot = divmod(number - 1, BANK_FRAMES)
        while bank >= len(self._data_banks):
            self._data_banks.append(bytearray(BANK_FRAMES * page_size))
            self._tag_banks.append(bytearray(BANK_FRAMES * granules))
            self._data_views.append(memoryview(self._data_banks[-1]))
            self._tag_views.append(memoryview(self._tag_banks[-1]))
        d0 = slot * page_size
        t0 = slot * granules
        frame = Frame._bank_view(
            self._data_views[bank][d0:d0 + page_size],
            self._tag_views[bank][t0:t0 + granules],
            self._tag_banks[bank], t0,
        )
        self._frame_pool[number] = frame
        return frame

    def alloc(self, zero: bool = True, charge: bool = True) -> int:
        """Allocate one frame; returns its frame number."""
        if len(self._frames) >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        if self.chaos.enabled and self.chaos.should_fire("hw.phys.alloc_fail"):
            from repro.chaos.faults import InjectedAllocFailure
            raise InjectedAllocFailure("injected frame-allocation failure")
        if self._free:
            number = self._free.pop()
        else:
            number = self._next_frame
            self._next_frame += 1
        frame = self._make_frame(number)
        self._frames[number] = frame
        if zero and number in self._stale:
            # deferred free-time scrub lands here: the caller asked for
            # a zeroed frame and this slot still holds freed content
            frame.version += 1
            frame.data[:] = _zeros(len(frame.data))
            frame.tags[:] = _zeros(len(frame.tags))
            self._stale.discard(number)
        if zero and charge:
            self._clock.advance(self._costs.page_zero_ns, "page_zero")
        self._counters.add("frames_allocated")
        if self._obs.enabled:
            self._obs.count("hw.phys.frames_allocated")
            self._obs.gauge_set("hw.phys.allocated_frames",
                                len(self._frames))
        return number

    def frame(self, number: int) -> Frame:
        frame = self._frames.get(number)
        if frame is None:
            raise KeyError(f"no such frame {number}")
        return frame

    def incref(self, number: int) -> None:
        self.frame(number).refcount += 1

    def decref(self, number: int) -> None:
        frame = self.frame(number)
        frame.refcount -= 1
        if frame.refcount == 0:
            # the scrub is deferred to a later zero-allocation of this
            # number (see ``_stale``)
            self._stale.add(number)
            del self._frames[number]
            self._free.append(number)
            self._counters.add("frames_freed")
            if self._obs.enabled:
                self._obs.count("hw.phys.frames_freed")
                self._obs.gauge_set("hw.phys.allocated_frames",
                                    len(self._frames))
        elif frame.refcount < 0:  # pragma: no cover - invariant guard
            raise AssertionError(f"frame {number} refcount underflow")

    def decref_many(self, numbers: Sequence[int]) -> None:
        """:meth:`decref` for a batch, in order (fork teardown's path).

        Identical refcount/free-list evolution; the freed-frame counter
        and gauge updates are batched into sum-equal / last-value-equal
        updates.  When :meth:`decref` has been overridden (fault
        injection, instrumented subclasses) the batch defers to it
        per number so the override observes every release.
        """
        if type(self).decref is not _BASE_DECREF:
            for number in numbers:
                self.decref(number)
            return
        frames = self._frames
        free = self._free
        stale = self._stale
        freed = 0
        for number in numbers:
            frame = frames.get(number)
            if frame is None:
                raise KeyError(f"no such frame {number}")
            rc = frame.refcount - 1
            frame.refcount = rc
            if rc == 0:
                stale.add(number)
                del frames[number]
                free.append(number)
                freed += 1
            elif rc < 0:  # pragma: no cover - invariant guard
                raise AssertionError(f"frame {number} refcount underflow")
        if freed:
            self._counters.add("frames_freed", freed)
            if self._obs.enabled:
                self._obs.count("hw.phys.frames_freed", freed)
                self._obs.gauge_set("hw.phys.allocated_frames",
                                    len(frames))

    def refcount(self, number: int) -> int:
        return self.frame(number).refcount

    def free_frames(self) -> int:
        """Frames still allocatable before :class:`OutOfMemory`."""
        return self._capacity_frames - len(self._frames)

    # -- kernel copy -------------------------------------------------------

    def copy_frame(self, src: int, preserve_tags: bool = True,
                   charge: bool = True) -> int:
        """Allocate a new frame and copy ``src`` into it."""
        dst = self.alloc(zero=False, charge=False)
        self.frame(dst).copy_from(self.frame(src), preserve_tags)
        if charge:
            # pre-rounded in __init__; advance re-rounds idempotently,
            # so the charge is bit-equal to rounding page_copy_ns here
            self._clock.advance(self._page_copy_int, "page_copy")
        if preserve_tags and self.chaos.enabled and \
                self.chaos.should_fire("hw.phys.tag_clear"):
            self._recover_tag_clear(src, dst, charge)
        self._counters.add("frames_copied")
        if self._obs.enabled:
            self._obs.count("hw.phys.frames_copied")
        return dst

    def cow_copy(self, src: int) -> int:
        """:meth:`copy_frame` ``(src, preserve_tags=True)`` with the
        allocation inlined — the CoW-break fast path.  Identical
        accounting (capacity check, charge, counters, gauge); chaos
        falls back to the layered call so injected faults fire exactly
        as they would there.
        """
        if self.chaos.enabled:
            return self.copy_frame(src, preserve_tags=True)
        frames = self._frames
        if len(frames) >= self._capacity_frames:
            raise OutOfMemory("physical memory exhausted")
        free = self._free
        if free:
            number = free.pop()
        else:
            number = self._next_frame
            self._next_frame += 1
        frame = self._frame_pool.get(number)
        if frame is None:
            frame = self._make_frame(number)
        else:
            frame.refcount = 1
        frames[number] = frame
        frame.copy_from(frames[src], True)
        self._clock.advance(self._page_copy_int, "page_copy")
        counters = self._counters
        counters.add("frames_allocated")
        counters.add("frames_copied")
        if self._obs.enabled:
            self._obs.count("hw.phys.frames_allocated")
            self._obs.count("hw.phys.frames_copied")
            self._obs.gauge_set("hw.phys.allocated_frames", len(frames))
        return number

    def copy_frames(self, srcs: Sequence[int], preserve_tags: bool = True,
                    charge: bool = True) -> List[int]:
        """Bulk :meth:`copy_frame`: one accounting pass for a whole run.

        The copies, refcounts, capacity checks, clock charges and
        counter/observability totals are identical to calling
        :meth:`copy_frame` once per source; only the per-page Python
        accounting is hoisted out of the loop.  With chaos enabled it
        *is* that per-page loop, so injected alloc failures and
        tag-clear faults fire with exactly the per-page draw sequence.
        """
        if self.chaos.enabled:
            return [self.copy_frame(src, preserve_tags, charge)
                    for src in srcs]
        frames = self._frames
        capacity = self._capacity_frames
        free = self._free
        dsts: List[int] = []
        try:
            for src in srcs:
                if len(frames) >= capacity:
                    raise OutOfMemory("physical memory exhausted")
                if free:
                    number = free.pop()
                else:
                    number = self._next_frame
                    self._next_frame += 1
                dst_frame = self._make_frame(number)
                frames[number] = dst_frame
                dst_frame.copy_from(frames[src], preserve_tags)
                dsts.append(number)
        except OutOfMemory:
            # match the per-page sequence: the first k copies were
            # charged and counted before the (k+1)th alloc raised; the
            # caller never saw the k frames, so free them here (the
            # per-page caller's rollback would unmap-and-decref them)
            self._settle_bulk_copy(len(dsts), charge)
            for number in dsts:
                self.decref(number)
            raise
        self._settle_bulk_copy(len(dsts), charge)
        return dsts

    def _settle_bulk_copy(self, count: int, charge: bool) -> None:
        if count == 0:
            return
        if charge:
            self._clock.advance(self._page_copy_int * count, "page_copy")
        self._counters.add("frames_allocated", count)
        self._counters.add("frames_copied", count)
        if self._obs.enabled:
            self._obs.count("hw.phys.frames_allocated", count)
            self._obs.count("hw.phys.frames_copied", count)
            self._obs.gauge_set("hw.phys.allocated_frames",
                                len(self._frames))

    def _recover_tag_clear(self, src: int, dst: int, charge: bool) -> None:
        """Injected spurious tag loss on a tag-preserving copy: the copy
        engine dropped the validity bits.  The kernel's verify-after-copy
        compares tag vectors and redoes the copy when they differ (a
        frame with no tags loses nothing, so nothing to recover)."""
        dst_frame = self.frame(dst)
        dst_frame.version += 1
        for index in range(len(dst_frame.tags)):
            dst_frame.tags[index] = 0
        src_frame = self.frame(src)
        if bytes(dst_frame.tags) != bytes(src_frame.tags):
            dst_frame.copy_from(src_frame, preserve_tags=True)
            if charge:
                self._clock.advance(
                    self._costs.page_copy_ns(self._config.page_size),
                    "page_copy"
                )
            self.chaos.note_recovery("hw.phys.tag_clear")

    # -- narrow iteration/scan interface --------------------------------------

    def frames_items(self) -> Iterator[Tuple[int, Frame]]:
        """Stable (frame-number-sorted) iteration over allocated frames.

        The sanctioned way for auditors (:mod:`repro.conform.invariants`)
        to sweep physical memory — callers must not touch ``_frames``.
        """
        return iter(sorted(self._frames.items()))

    def scan_tagged(self, number: int) -> List[int]:
        """Offsets of tagged granules in frame ``number`` (bulk scan)."""
        return self.frame(number).tagged_granules()

    def clear_tags_range(self, number: int, lo_offset: int,
                         hi_offset: int) -> None:
        """Clear the tags of granules overlapping [lo, hi) of a frame."""
        self.frame(number).clear_tags_range(lo_offset, hi_offset)

    # -- accounting -----------------------------------------------------------

    @property
    def allocated_frames(self) -> int:
        return len(self._frames)

    @property
    def allocated_bytes(self) -> int:
        return len(self._frames) * self._config.page_size

    def contains(self, number: int) -> bool:
        return number in self._frames


# the pristine release routine: batch paths compare against this to
# detect overridden/monkeypatched ``decref`` and fall back per-number
_BASE_DECREF = PhysicalMemory.decref
