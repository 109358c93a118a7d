"""The vectorized memory engine against a dict reference model.

Hypothesis drives random sequences of the narrow memory API —
``map_run``/``unmap_range``/``protect_run``/``replace_frame``/
``privatize_page``/``set_cow``/``set_note_many``/``write``/``write_run``/
``store_cap``/``copy_frames``/``decref_many`` plus reads, frame
allocation and TLB flushes — through a real :class:`Machine` and
through :class:`tests.mem_oracle.MemOracle`, and compares the two after
every operation: the mapping list, the single-slot ``entry``/
``frame_of``/``note_of`` reads of every vpn in the window (mapped or
not), frame numbers, refcounts, page bytes and tagged granules.  Every mapped page is also read back
through :meth:`AddressSpace.read` (unprivileged where the permissions
allow, which fills the walk cache before the next operation), so the
walk cache, the deferred scrub and the pooled frame views are all on
the compared path.

The vpn window straddles a page-table chunk boundary, so the chunked
PTE arrays are exercised at their seams.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cheri.capability import Capability, Perm
from repro.hw.paging import CHUNK, AddressSpace, PagePerm
from repro.machine import Machine
from tests.mem_oracle import MemOracle

PAGE = 4096
#: vpn window [BASE, BASE + SPAN) straddles the chunk boundary at CHUNK
BASE = CHUNK - 5
SPAN = 10

PERMS = [
    PagePerm.READ | PagePerm.WRITE | PagePerm.LOAD_CAP,
    PagePerm.READ | PagePerm.LOAD_CAP,
    PagePerm.READ | PagePerm.WRITE,
    PagePerm.READ,
    PagePerm.WRITE,
    PagePerm.NONE,
]
NOTES = [None, "share", 7]
CAPS = [
    Capability(base=0x1000, length=0x100, cursor=0x1010,
               perms=Perm.data_rw()),
    Capability(base=0x2000, length=0x40, cursor=0x2000,
               perms=Perm.data_ro()),
    Capability(base=0x1000, length=0x100, cursor=0x1080,
               perms=Perm.data_rw()),
    Capability(base=0, length=0, cursor=0x33, perms=Perm.NONE,
               valid=False),
]

_vpn = st.integers(BASE - 1, BASE + SPAN)
_perm = st.integers(0, len(PERMS) - 1)
_offset = st.one_of(st.integers(0, 96), st.integers(PAGE - 96, PAGE - 1))
_addr = st.tuples(_vpn, _offset).map(lambda t: t[0] * PAGE + t[1])
_size = st.integers(1, 48)
#: capability granules where the byte stores above land, so tag clears
#: are exercised against real tags
_granule = st.one_of(st.integers(0, 6), st.integers(250, 255))

_op = st.one_of(
    st.tuples(st.just("alloc")),
    st.tuples(st.just("map_loose"), _vpn, st.integers(1, 4), _perm,
              st.booleans(), st.integers(0, len(NOTES) - 1)),
    st.tuples(st.just("map_shared"), _vpn, st.integers(1, 3), _perm,
              st.integers(0, 7)),
    st.tuples(st.just("unmap_range"), _vpn, st.integers(0, 5)),
    st.tuples(st.just("protect_run"), _vpn, st.integers(1, 4), _perm),
    st.tuples(st.just("replace_frame"), _vpn, st.booleans()),
    st.tuples(st.just("privatize_page"), _vpn, _perm, st.booleans()),
    st.tuples(st.just("set_cow"), _vpn, st.booleans()),
    st.tuples(st.just("set_note_many"), st.lists(_vpn, max_size=4),
              st.integers(0, len(NOTES) - 1)),
    st.tuples(st.just("write"), _addr, _size, st.integers(0, 255),
              st.booleans()),
    st.tuples(st.just("write_run"), st.lists(_addr, max_size=6), _size,
              st.integers(0, 255), st.booleans()),
    st.tuples(st.just("store_cap"), _vpn, _granule,
              st.booleans(), st.integers(0, len(CAPS) - 1),
              st.booleans()),
    st.tuples(st.just("read"), _addr, _size, st.booleans()),
    st.tuples(st.just("copy_frames"), st.lists(st.integers(0, 15),
                                               min_size=1, max_size=4),
              st.booleans()),
    st.tuples(st.just("decref_many"), st.integers(1, 3)),
    st.tuples(st.just("flush")),
)


class _Pair:
    """One real address space and the model, plus the frames the test
    itself holds one reference to (``loose``)."""

    def __init__(self):
        self.machine = Machine()
        self.phys = self.machine.phys
        self.space = AddressSpace(self.machine, "oracle")
        self.model = MemOracle(self.machine.config.page_size)
        self.loose = []

    def both(self, real, model):
        """Run ``real()`` and ``model()``; they must agree on the
        result or on the error class and message."""
        try:
            got = ("ok", real())
        except Exception as exc:  # noqa: BLE001 - compared below
            got = ("error", type(exc).__name__, str(exc))
        try:
            want = ("ok", model())
        except Exception as exc:  # noqa: BLE001 - compared below
            want = ("error", type(exc).__name__, str(exc))
        assert got == want
        return got

    def alloc(self):
        number = self.phys.alloc()
        assert number == self.model.alloc()
        self.loose.append(number)
        return number

    def mapped_frames(self):
        return [item[1] for item in self.model.mapped_items()]

    def run_unmapped(self, start, count):
        return all(vpn not in self.model.ptes
                   for vpn in range(start, start + count))

    def apply(self, op):
        kind, args = op[0], op[1:]
        space, model = self.space, self.model
        if kind == "alloc":
            self.alloc()
        elif kind == "map_loose":
            start, count, perm, cow, note = args
            if not self.run_unmapped(start, count):
                return
            while len(self.loose) < count:
                self.alloc()
            frames = self.loose[:count]
            del self.loose[:count]
            self.both(
                lambda: space.map_run(start, frames, PERMS[perm], cow=cow,
                                      note=NOTES[note]),
                lambda: model.map_run(start, frames, PERMS[perm], cow=cow,
                                      note=NOTES[note]))
        elif kind == "map_shared":
            start, count, perm, pick = args
            mapped = self.mapped_frames()
            if not mapped or not self.run_unmapped(start, count):
                return
            frames = [mapped[(pick + index) % len(mapped)]
                      for index in range(count)]
            self.both(
                lambda: space.map_run(start, frames, PERMS[perm],
                                      incref=True),
                lambda: model.map_run(start, frames, PERMS[perm],
                                      incref=True))
        elif kind == "unmap_range":
            lo, width = args
            self.both(lambda: space.unmap_range(lo, lo + width),
                      lambda: model.unmap_range(lo, lo + width))
        elif kind == "protect_run":
            start, count, perm = args
            self.both(lambda: space.protect_run(start, count, PERMS[perm]),
                      lambda: model.protect_run(start, count, PERMS[perm]))
        elif kind == "replace_frame":
            vpn, decref_old = args
            frame = self.loose[-1] if self.loose else self.alloc()
            old = model.ptes[vpn][0] if vpn in model.ptes else None
            got = self.both(
                lambda: space.replace_frame(vpn, frame, decref_old),
                lambda: model.replace_frame(vpn, frame, decref_old))
            if got[0] == "ok":
                self.loose.remove(frame)
                if not decref_old:
                    # the displaced mapping's reference passes to the test
                    self.loose.append(old)
        elif kind == "privatize_page":
            vpn, perm, with_new = args
            frame = None
            if with_new:
                frame = self.loose[-1] if self.loose else self.alloc()
            got = self.both(
                lambda: space.privatize_page(vpn, PERMS[perm], frame),
                lambda: model.privatize_page(vpn, PERMS[perm], frame))
            if got[0] == "ok" and frame is not None:
                self.loose.remove(frame)
        elif kind == "set_cow":
            vpn, cow = args
            self.both(lambda: space.set_cow(vpn, cow),
                      lambda: model.set_cow(vpn, cow))
        elif kind == "set_note_many":
            vpns, note = args
            self.both(lambda: space.set_note_many(vpns, NOTES[note]),
                      lambda: model.set_note_many(vpns, NOTES[note]))
        elif kind == "write":
            addr, size, byte, privileged = args
            data = bytes([byte]) * size
            self.both(lambda: space.write(addr, data, privileged),
                      lambda: model.write(addr, data, privileged))
        elif kind == "write_run":
            addrs, size, byte, privileged = args
            data = bytes([byte]) * size
            self.both(lambda: space.write_run(addrs, data, privileged),
                      lambda: model.write_run(addrs, data, privileged))
        elif kind == "store_cap":
            vpn, granule, misalign, cap, privileged = args
            addr = vpn * PAGE + granule * 16 + (8 if misalign else 0)
            self.both(
                lambda: space.store_cap(addr, CAPS[cap], privileged),
                lambda: model.store_cap(addr, CAPS[cap], privileged))
        elif kind == "read":
            addr, size, privileged = args
            self.both(lambda: space.read(addr, size, privileged),
                      lambda: model.read(addr, size, privileged))
        elif kind == "copy_frames":
            picks, preserve = args
            pool = self.mapped_frames() + self.loose
            if not pool:
                return
            srcs = [pool[pick % len(pool)] for pick in picks]
            got = self.both(
                lambda: self.phys.copy_frames(srcs, preserve),
                lambda: model.copy_frames(srcs, preserve))
            self.loose.extend(got[1])
        elif kind == "decref_many":
            (count,) = args
            batch = self.loose[:count]
            del self.loose[:count]
            self.both(lambda: self.phys.decref_many(batch),
                      lambda: model.decref_many(batch))
        elif kind == "flush":
            self.machine.cores[0].tlb.flush()

    def check(self):
        space, model, phys = self.space, self.model, self.phys
        assert space.mapped_items(0, BASE + SPAN + CHUNK) == \
            model.mapped_items()
        for vpn in range(BASE - 1, BASE + SPAN + 1):
            assert space.entry(vpn) == model.entry(vpn)
            assert space.frame_of(vpn) == model.frame_of(vpn)
            assert space.note_of(vpn) == model.note_of(vpn)
        assert phys.allocated_frames == len(model.refcount)
        for number in model.live_frames():
            assert phys.refcount(number) == model.refcount[number]
            assert phys.frame(number).read(0, PAGE) == \
                bytes(model.data[number])
            assert phys.scan_tagged(number) == \
                model.tagged_granules(number)
        for vpn, frame, perms, _cow, _note in model.mapped_items():
            # a permitted user read fills the walk cache, so the next
            # operation always runs against cached translations
            privileged = not perms & PagePerm.READ
            assert space.read(vpn * PAGE, PAGE, privileged=privileged,
                              charge=False) == bytes(model.data[frame])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, max_size=40))
def test_engine_matches_reference_model(ops):
    pair = _Pair()
    # start from a populated window so most operations hit mappings
    pair.apply(("map_loose", BASE, SPAN // 2, 0, False, 0))
    pair.apply(("map_loose", BASE + SPAN // 2, SPAN // 2, 0, False, 1))
    for op in ops:
        pair.apply(op)
        pair.check()


def test_reallocated_frame_reads_zero_and_untagged():
    """The deferred scrub: a freed frame's stale bytes and tags never
    reach the next zeroing allocation of the same number."""
    pair = _Pair()
    pair.apply(("alloc",))
    pair.apply(("map_loose", BASE, 1, 0, False, 0))
    pair.apply(("store_cap", BASE, 3, False, 0, False))
    pair.apply(("write", BASE * PAGE + 200, 40, 0xEE, False))
    pair.check()
    pair.apply(("unmap_range", BASE, 1))
    pair.apply(("alloc",))
    pair.check()
    (number,) = pair.loose
    assert pair.phys.frame(number).read(0, PAGE) == bytes(PAGE)
    assert pair.phys.scan_tagged(number) == []


def test_walk_cache_follows_protect_and_unmap():
    """A cached translation never outlives the permission or mapping
    that produced it."""
    pair = _Pair()
    pair.apply(("alloc",))
    pair.apply(("map_loose", BASE, 1, 0, False, 0))
    pair.apply(("read", BASE * PAGE, 8, False))
    pair.apply(("protect_run", BASE, 1, 5))
    got = pair.both(lambda: pair.space.read(BASE * PAGE, 8),
                    lambda: pair.model.read(BASE * PAGE, 8))
    assert got[:2] == ("error", "ProtectionError")
    pair.apply(("protect_run", BASE, 1, 0))
    pair.apply(("read", BASE * PAGE, 8, False))
    pair.apply(("unmap_range", BASE, 1))
    got = pair.both(lambda: pair.space.read(BASE * PAGE, 8, True),
                    lambda: pair.model.read(BASE * PAGE, 8, True))
    assert got[:2] == ("error", "UnmappedAddressError")
    pair.check()


def test_batched_stores_clear_tags_like_single_stores():
    """``write_run``'s inlined tag clear covers every overlapped
    granule, including a run's last partial granule and a store that
    straddles a page boundary."""
    pair = _Pair()
    pair.apply(("map_loose", BASE, 2, 0, False, 0))
    for vpn in (BASE, BASE + 1):
        for granule in (0, 1, 2, 3, 255):
            pair.apply(("store_cap", vpn, granule, False, 0, False))
    pair.check()
    pair.apply(("write_run", [BASE * PAGE + 8, BASE * PAGE + 40,
                              BASE * PAGE + PAGE - 4], 9, 0x11, False))
    pair.check()
    first, second = (pair.model.ptes[vpn][0] for vpn in (BASE, BASE + 1))
    assert pair.phys.scan_tagged(first) == []
    assert pair.phys.scan_tagged(second) == [16, 32, 48, PAGE - 16]
