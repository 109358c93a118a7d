"""Unit + property tests for capability relocation (paper §4.2) — the
mechanism that makes μFork's single-address-space fork sound."""

import pytest
from hypothesis import given, strategies as st

from repro.cheri.capability import Capability, OTYPE_SENTRY, Perm
from repro.cheri.regfile import RegisterFile
from repro.core.relocate import (
    RegionPair,
    find_unrelocated,
    relocate_cap,
    relocate_frame,
    relocate_registers,
)
from repro.machine import Machine

PARENT = RegionPair(
    parent_base=0x10_0000, parent_top=0x20_0000,
    child_base=0x50_0000, child_top=0x60_0000,
)


def cap_at(base, length=0x100, cursor=None, perms=None, otype=None):
    cap = Capability(
        base=base, length=length,
        cursor=base if cursor is None else cursor,
        perms=Perm.data_rw() if perms is None else perms,
    )
    if otype is not None:
        cap = cap.sealed(otype)
    return cap


class TestRelocateCap:
    def test_parent_cap_rebased_by_delta(self):
        cap = cap_at(0x10_1000, cursor=0x10_1040)
        moved = relocate_cap(cap, PARENT)
        assert moved.base == 0x50_1000
        assert moved.cursor == 0x50_1040
        assert moved.length == cap.length
        assert moved.perms == cap.perms

    def test_child_cap_untouched(self):
        cap = cap_at(0x50_1000)
        assert relocate_cap(cap, PARENT) is cap

    def test_invalid_cap_untouched(self):
        cap = cap_at(0x10_1000).invalidated()
        assert relocate_cap(cap, PARENT) is cap

    def test_sentry_preserved(self):
        gate = cap_at(0x9_0000, perms=Perm.code(), otype=OTYPE_SENTRY)
        assert relocate_cap(gate, PARENT) is gate

    def test_foreign_cap_invalidated(self):
        """A capability pointing outside both regions (e.g. another
        μprocess) must not survive into the child (§4.3)."""
        foreign = cap_at(0x90_0000)
        moved = relocate_cap(foreign, PARENT)
        assert not moved.valid

    def test_bounds_clamped_to_child_region(self):
        # bounds straddling the end of the parent region get clamped
        cap = cap_at(0x1F_FF00, length=0x1000)
        moved = relocate_cap(cap, PARENT)
        assert moved.base >= PARENT.child_base
        assert moved.top <= PARENT.child_top

    def test_relocated_never_grants_parent_access(self):
        cap = cap_at(0x10_8000, length=0x4000)
        moved = relocate_cap(cap, PARENT)
        assert not PARENT.in_parent(moved.base)
        assert not PARENT.in_parent(moved.top - 1)

    @given(
        offset=st.integers(0, 0xF_0000),
        length=st.integers(0, 0x1_0000),
        cursor_off=st.integers(0, 0x1_0000),
    )
    def test_prop_relocation_preserves_region_offset(self, offset, length,
                                                     cursor_off):
        """The child's view is the parent's, shifted by exactly delta."""
        base = PARENT.parent_base + offset
        cap = Capability(base=base, length=length,
                         cursor=base + cursor_off, perms=Perm.data_rw())
        moved = relocate_cap(cap, PARENT)
        if moved.valid and not moved.is_sentry:
            # offset within the child region mirrors the parent offset,
            # modulo clamping at the region edge
            if cap.top <= PARENT.parent_top:
                assert moved.base - PARENT.child_base == \
                    cap.base - PARENT.parent_base
                assert moved.cursor - moved.base == cap.cursor - cap.base

    @given(
        base=st.integers(0, 2**30),
        length=st.integers(0, 2**16),
    )
    def test_prop_no_result_ever_reaches_into_parent(self, base, length):
        cap = Capability(base=base, length=length, cursor=base,
                         perms=Perm.data_rw())
        moved = relocate_cap(cap, PARENT)
        if moved.valid and not moved.is_sentry and moved.length > 0:
            overlap_lo = max(moved.base, PARENT.parent_base)
            overlap_hi = min(moved.top, PARENT.parent_top)
            assert overlap_lo >= overlap_hi, (
                f"relocated cap {moved} still overlaps the parent region"
            )


class TestRelocateFrame:
    def make_frame(self, machine):
        fn = machine.phys.alloc()
        return machine.phys.frame(fn)

    def test_all_tagged_granules_relocated(self, machine):
        frame = self.make_frame(machine)
        for index in range(5):
            frame.store_cap(index * 16, cap_at(0x10_1000 + index * 0x100),
                            machine.codec)
        count = relocate_frame(machine, frame, PARENT)
        assert count == 5
        assert find_unrelocated(machine, frame, PARENT) == []

    def test_untagged_data_untouched(self, machine):
        frame = self.make_frame(machine)
        # raw bytes that *look* like a parent pointer but carry no tag
        import struct
        frame.write(0, struct.pack("<QQ", 0x10_1000, 7))
        count = relocate_frame(machine, frame, PARENT)
        assert count == 0
        assert frame.read(0, 8) == struct.pack("<Q", 0x10_1000)

    def test_scan_charges_time(self, machine):
        frame = self.make_frame(machine)
        before = machine.clock.now_ns
        relocate_frame(machine, frame, PARENT)
        expected = machine.costs.page_scan_ns(
            machine.config.page_size, machine.config.granule
        )
        assert machine.clock.now_ns - before >= int(expected)

    def test_relocation_charges_per_cap(self, machine):
        frame = self.make_frame(machine)
        frame.store_cap(0, cap_at(0x10_1000), machine.codec)
        scan_only = machine.costs.page_scan_ns(
            machine.config.page_size, machine.config.granule
        )
        before = machine.clock.now_ns
        relocate_frame(machine, frame, PARENT)
        assert machine.clock.now_ns - before >= \
            int(scan_only + machine.costs.cap_relocate_ns)

    def test_counter_updated(self, machine):
        frame = self.make_frame(machine)
        frame.store_cap(16, cap_at(0x10_2000), machine.codec)
        relocate_frame(machine, frame, PARENT)
        assert machine.counters.get("caps_relocated") == 1


class TestRelocateRegisters:
    def test_cap_registers_relocated_ints_untouched(self, machine):
        regs = RegisterFile()
        regs.set("c1", cap_at(0x10_4000))
        regs.set("x1", 0x10_4000)  # an integer that looks like a pointer
        moved = relocate_registers(machine, regs, PARENT)
        assert moved == 1
        assert regs.get_cap("c1").base == 0x50_4000
        assert regs.get("x1") == 0x10_4000  # integers are not pointers

    def test_invalid_register_cap_untouched(self, machine):
        regs = RegisterFile()
        regs.set("c1", cap_at(0x10_4000).invalidated())
        assert relocate_registers(machine, regs, PARENT) == 0


class TestContentMemo:
    """Fork's whole-page content memo (``relocate_copied_frames``) is
    keyed on the source frame's version.  A tag-only change — no byte
    written, one granule's tag cleared — must still miss it: a memo
    that replayed the old page would resurrect a capability the parent
    revoked (the cache-keyed-on-version pitfall of CHERI VM code)."""

    def _fork_after_tag_clear(self, clear_memo):
        from repro.apps.guest import GuestContext
        from repro.apps.hello import hello_world_image
        from repro.core import CopyStrategy, UForkOS

        os_ = UForkOS(machine=Machine(),
                      copy_strategy=CopyStrategy.FULL_COPY)
        machine = os_.machine
        page = machine.config.page_size
        parent = GuestContext(os_, os_.spawn(hello_world_image(), "memo"))
        slot = parent.malloc(64)
        parent.store_cap(slot, parent.malloc(32))
        vpn, offset = divmod(slot.cursor, page)
        src = os_.space.frame_of(vpn)

        first = parent.fork()
        cached = [entry for key, entry in machine._page_memo.items()
                  if key[1] == src]
        assert cached and cached[0] != 0, "source page not memoised"
        first.exit(0)
        parent.wait(first.pid)

        machine.phys.clear_tags_range(src, offset, offset + 16)
        if clear_memo:
            machine._page_memo.clear()
        second = parent.fork()
        # the first child's region was released and is reused, so the
        # memo key differs only by the source frame's version
        assert second.proc.region_base == first.proc.region_base
        delta = second.proc.region_base - parent.proc.region_base
        probe = second.reg("ddc").set_bounds(slot.base + delta, 64) \
            .with_cursor(slot.cursor + delta)
        number = os_.space.frame_of(vpn + delta // page)
        return (second.load_cap(probe).valid,
                machine.phys.frame(number).read(0, page),
                machine.phys.scan_tagged(number))

    def test_tag_only_change_misses_the_memo(self):
        memoised = self._fork_after_tag_clear(clear_memo=False)
        fresh = self._fork_after_tag_clear(clear_memo=True)
        assert memoised[0] is False
        assert memoised == fresh
