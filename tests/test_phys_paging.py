"""Tests for physical memory (frames + tags) and paging (faults, CoW hooks)."""

import pytest
from hypothesis import given, strategies as st

from repro.cheri.capability import Capability, Perm
from repro.cheri.codec import CAP_SIZE, CapabilityCodec
from repro.errors import (
    AlignmentFault,
    OutOfMemory,
    ProtectionError,
    UnmappedAddressError,
)
from repro.hw.paging import AccessKind, AddressSpace, PagePerm
from repro.hw.phys import Frame
from repro.machine import Machine


class TestFrame:
    def make_frame(self):
        return Frame(4096, 256)

    def test_read_write_roundtrip(self):
        frame = self.make_frame()
        frame.write(100, b"hello")
        assert frame.read(100, 5) == b"hello"

    def test_write_clears_overlapping_tags(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        frame.store_cap(32, cap, codec)
        assert frame.tags[2] == 1
        frame.write(40, b"x")  # inside granule 2
        assert frame.tags[2] == 0

    def test_write_spanning_granules_clears_all(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        frame.store_cap(0, cap, codec)
        frame.store_cap(16, cap, codec)
        frame.store_cap(32, cap, codec)
        frame.write(8, bytes(20))  # touches granules 0 and 1
        assert list(frame.tags[:3]) == [0, 0, 1]

    def test_cap_store_load_roundtrip(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0x2000, length=0x40, cursor=0x2010,
                         perms=Perm.data_ro())
        frame.store_cap(48, cap, codec)
        loaded = frame.load_cap(48, codec)
        assert loaded == cap

    def test_unaligned_cap_access_faults(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        with pytest.raises(AlignmentFault):
            frame.store_cap(8, cap, codec)
        with pytest.raises(AlignmentFault):
            frame.load_cap(8, codec)

    def test_load_untagged_granule_gives_invalid_cap(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        loaded = frame.load_cap(0, codec)
        assert not loaded.valid

    def test_tagged_granules(self):
        frame = self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        frame.store_cap(0, cap, codec)
        frame.store_cap(4080, cap, codec)
        assert frame.tagged_granules() == [0, 4080]

    def test_copy_preserving_tags(self):
        src, dst = self.make_frame(), self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        src.store_cap(16, cap, codec)
        src.write(200, b"abc")
        dst.copy_from(src, preserve_tags=True)
        assert dst.load_cap(16, codec).valid
        assert dst.read(200, 3) == b"abc"

    def test_copy_without_tags(self):
        src, dst = self.make_frame(), self.make_frame()
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        src.store_cap(16, cap, codec)
        dst.copy_from(src, preserve_tags=False)
        assert not dst.load_cap(16, codec).valid
        # bytes still copied: cursor readable as data
        assert dst.read(16, CAP_SIZE) == src.read(16, CAP_SIZE)

    @given(offset=st.integers(0, 4095), size=st.integers(1, 64))
    def test_prop_any_byte_write_untags_its_granules(self, offset, size):
        frame = Frame(4096, 256)
        codec = CapabilityCodec()
        cap = Capability(base=0, length=16, cursor=0, perms=Perm.data_rw())
        for granule_offset in range(0, 4096, CAP_SIZE):
            frame.store_cap(granule_offset, cap, codec)
        size = min(size, 4096 - offset)
        frame.write(offset, bytes(size))
        first = offset // CAP_SIZE
        last = (offset + size - 1) // CAP_SIZE
        for granule in range(256):
            expected = 0 if first <= granule <= last else 1
            assert frame.tags[granule] == expected


class TestPhysicalMemory:
    def test_alloc_returns_distinct_frames(self, machine):
        a = machine.phys.alloc()
        b = machine.phys.alloc()
        assert a != b
        assert machine.phys.allocated_frames == 2

    def test_refcounting_frees_at_zero(self, machine):
        fn = machine.phys.alloc()
        machine.phys.incref(fn)
        machine.phys.decref(fn)
        assert machine.phys.contains(fn)
        machine.phys.decref(fn)
        assert not machine.phys.contains(fn)

    def test_frame_numbers_recycled(self, machine):
        fn = machine.phys.alloc()
        machine.phys.decref(fn)
        assert machine.phys.alloc() == fn

    def test_out_of_memory(self, small_machine):
        with pytest.raises(OutOfMemory):
            for _ in range(100):
                small_machine.phys.alloc()

    def test_copy_frame_charges_time(self, machine):
        fn = machine.phys.alloc()
        machine.phys.frame(fn).write(0, b"data")
        before = machine.clock.now_ns
        dst = machine.phys.copy_frame(fn)
        assert machine.clock.now_ns > before
        assert machine.phys.frame(dst).read(0, 4) == b"data"

    def test_allocation_charges_zeroing(self, machine):
        before = machine.clock.now_ns
        machine.phys.alloc(zero=True)
        assert machine.clock.now_ns - before == int(machine.costs.page_zero_ns)


class TestFrameNumberChurn:
    """Frame numbers are never double-issued, whatever the free/alloc
    interleaving — a regression net over the free list, the deferred
    scrub set and the frame-object pool, which all key on numbers.

    ``layered`` attaches a chaos engine that never fires: ``cow_copy``
    and ``copy_frames`` then take the per-page ``copy_frame``/``alloc``
    fallback instead of their inlined fast paths, so both allocation
    paths are churned."""

    @pytest.mark.parametrize("layered", [False, True])
    def test_heavy_churn_never_double_issues(self, layered):
        import random

        from repro.chaos.engine import ChaosEngine

        machine = Machine(seed=1)
        if layered:
            ChaosEngine(seed=1).attach(machine)
        phys = machine.phys
        rng = random.Random(20250808)
        live = {}  # number -> remaining references we hold
        for step in range(2000):
            action = rng.randrange(6)
            if action <= 1 or not live:
                number = phys.alloc(zero=bool(step % 2), charge=False)
                assert number not in live, \
                    f"step {step}: frame {number} double-issued"
                live[number] = 1
            elif action == 2:
                src = rng.choice(list(live))
                dst = phys.cow_copy(src)
                assert dst not in live, \
                    f"step {step}: cow_copy double-issued {dst}"
                live[dst] = 1
            elif action == 3:
                srcs = rng.sample(list(live), min(len(live), 4))
                dsts = phys.copy_frames(srcs, preserve_tags=True,
                                        charge=False)
                for dst in dsts:
                    assert dst not in live, \
                        f"step {step}: copy_frames double-issued {dst}"
                    live[dst] = 1
            elif action == 4:
                number = rng.choice(list(live))
                if rng.randrange(2):
                    phys.incref(number)
                    live[number] += 1
                else:
                    phys.decref(number)
                    live[number] -= 1
                    if not live[number]:
                        del live[number]
            else:
                batch = rng.sample(list(live), min(len(live), 8))
                phys.decref_many(batch)
                for number in batch:
                    live[number] -= 1
                    if not live[number]:
                        del live[number]
            # the live view and the pool agree at every step
            assert set(live) == {
                number for number in live if phys.contains(number)}
        assert phys.allocated_frames == len(live)


class TestAddressSpace:
    PAGE = 4096

    def make_space(self, machine, pages=4, perms=PagePerm.rwc(), base_vpn=16):
        space = AddressSpace(machine, "test")
        for index in range(pages):
            frame = machine.phys.alloc()
            space.map_page(base_vpn + index, frame, perms)
        return space, base_vpn * self.PAGE

    def test_read_write_roundtrip(self, machine):
        space, base = self.make_space(machine)
        space.write(base + 10, b"hello world")
        assert space.read(base + 10, 11) == b"hello world"

    def test_cross_page_write_and_read(self, machine):
        space, base = self.make_space(machine)
        data = bytes(range(256)) * 20  # 5120 bytes, crosses a page
        space.write(base + 4000, data)
        assert space.read(base + 4000, len(data)) == data

    def test_unmapped_access_raises(self, machine):
        space, base = self.make_space(machine)
        with pytest.raises(UnmappedAddressError):
            space.read(base - self.PAGE, 1)

    def test_write_to_readonly_raises(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        with pytest.raises(ProtectionError):
            space.write(base, b"x")

    def test_fault_handler_can_resolve(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        vpn = base // self.PAGE

        def handler(spc, vaddr, kind):
            if kind is AccessKind.WRITE:
                spc.protect_page(vpn, PagePerm.rwc())
                return True
            return False

        space.fault_handler = handler
        space.write(base, b"ok")
        assert space.read(base, 2) == b"ok"
        assert machine.counters.get("fault_write") == 1

    def test_fault_handler_failure_raises(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.fault_handler = lambda spc, vaddr, kind: False
        with pytest.raises(ProtectionError):
            space.write(base, b"x")

    def test_fault_charges_time(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.fault_handler = lambda spc, vaddr, kind: False
        before = machine.clock.now_ns
        with pytest.raises(ProtectionError):
            space.write(base, b"x")
        assert machine.clock.now_ns - before >= machine.costs.page_fault_ns

    def test_privileged_bypasses_perms(self, machine):
        space, base = self.make_space(machine, perms=PagePerm.read_only())
        space.write(base, b"kernel", privileged=True)
        assert space.read(base, 6) == b"kernel"

    def test_cap_load_requires_load_cap_perm(self, machine):
        space, base = self.make_space(
            machine, perms=PagePerm.READ | PagePerm.WRITE
        )
        cap = Capability(base=base, length=64, cursor=base,
                         perms=Perm.data_rw())
        space.store_cap(base, cap)
        with pytest.raises(ProtectionError):
            space.load_cap(base)
        # plain data read of the same granule is fine (CoPA property)
        assert len(space.read(base, CAP_SIZE)) == CAP_SIZE

    def test_cap_store_load_roundtrip(self, machine):
        space, base = self.make_space(machine)
        cap = Capability(base=base, length=128, cursor=base + 16,
                         perms=Perm.data_ro())
        space.store_cap(base + 32, cap)
        assert space.load_cap(base + 32) == cap

    def test_byte_write_untags_in_space(self, machine):
        space, base = self.make_space(machine)
        cap = Capability(base=base, length=64, cursor=base,
                         perms=Perm.data_rw())
        space.store_cap(base, cap)
        space.write(base + 4, b"\x00")
        assert not space.load_cap(base).valid

    def test_replace_frame(self, machine):
        space, base = self.make_space(machine, pages=1)
        space.write(base, b"old")
        vpn = base // self.PAGE
        new_frame = machine.phys.alloc()
        space.replace_frame(vpn, new_frame)
        assert space.read(base, 3) == b"\x00\x00\x00"

    def test_double_map_rejected(self, machine):
        space, base = self.make_space(machine, pages=1)
        frame = machine.phys.alloc()
        with pytest.raises(ValueError):
            space.map_page(base // self.PAGE, frame, PagePerm.rwc())

    def test_resident_bytes_proportional(self, machine):
        space_a = AddressSpace(machine, "a")
        space_b = AddressSpace(machine, "b")
        frame = machine.phys.alloc()
        space_a.map_page(1, frame, PagePerm.rwc())
        space_b.map_page(2, frame, PagePerm.read_only(), incref=True)
        assert space_a.resident_bytes(0, 10 * self.PAGE) == self.PAGE / 2
        assert space_b.resident_bytes(0, 10 * self.PAGE) == self.PAGE / 2
        assert space_a.resident_bytes(0, 10 * self.PAGE,
                                      proportional=False) == self.PAGE

    def test_mapped_pages_range(self, machine):
        space, base = self.make_space(machine, pages=3)
        assert space.mapped_pages(base, base + 3 * self.PAGE) == 3
        assert space.mapped_pages(base, base + self.PAGE) == 1
        assert space.mapped_pages(0, base) == 0

    def test_unmap_decrefs(self, machine):
        space, base = self.make_space(machine, pages=1)
        frame = space.page_table.get(base // self.PAGE).frame
        space.unmap_page(base // self.PAGE)
        assert not machine.phys.contains(frame)
