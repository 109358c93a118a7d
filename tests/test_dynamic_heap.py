"""Tests for dynamic (demand-paged) heaps — the §4.2/R4 alternative to
the paper's default fully-mapped static heap."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.redis import MiniRedis
from repro.core import CopyStrategy, UForkOS
from repro.machine import Machine
from repro.mem.layout import KiB, MiB, ProgramImage
from repro.sec.auditor import audit_cap_flow


def dyn_image(heap=4 * MiB, initial=64 * KiB):
    return ProgramImage("dyn", heap_size=heap, heap_initial=initial)


def static_image(heap=4 * MiB):
    return ProgramImage("static", heap_size=heap)


def boot(**kwargs):
    return UForkOS(machine=Machine(), **kwargs)


class TestDemandPaging:
    def test_load_maps_only_the_prefix(self):
        os_ = boot()
        frames_before = os_.machine.phys.allocated_frames
        os_.spawn(dyn_image(), "dyn")
        dyn_frames = os_.machine.phys.allocated_frames - frames_before

        os2 = boot()
        frames_before = os2.machine.phys.allocated_frames
        os2.spawn(static_image(), "static")
        static_frames = os2.machine.phys.allocated_frames - frames_before
        assert dyn_frames < static_frames / 4

    def test_heap_tail_usable_via_demand_zero(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(dyn_image(), "dyn"))
        # allocate far beyond the initially mapped prefix
        blocks = [ctx.malloc(64 * KiB) for _ in range(16)]  # 1 MiB
        for index, block in enumerate(blocks):
            ctx.store(block, bytes([index]) * 128)
        for index, block in enumerate(blocks):
            assert ctx.load(block, 128) == bytes([index]) * 128
        assert os_.machine.counters.get("demand_zero_pages") > 0

    def test_demand_pages_arrive_zeroed(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(dyn_image(), "dyn"))
        block = ctx.malloc(256 * KiB)
        assert ctx.load(block, 64, 128 * KiB) == b"\x00" * 64

    def test_access_outside_any_range_still_faults(self):
        from repro.errors import UnmappedAddressError
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(dyn_image(), "dyn"))
        mmap_base = ctx.proc.layout.base("mmap")
        with pytest.raises(UnmappedAddressError):
            os_.space.read(mmap_base, 8)

    def test_fork_with_dynamic_heap(self):
        os_ = boot(copy_strategy=CopyStrategy.COPA)
        parent = GuestContext(os_, os_.spawn(dyn_image(), "dyn"))
        big = parent.malloc(512 * KiB)
        parent.store(big, b"deep-heap-data", 300 * KiB)
        parent.set_reg("c9", big)

        child = parent.fork()
        child_big = child.reg("c9")
        assert child.load(child_big, 14, 300 * KiB) == b"deep-heap-data"
        # the child can also demand-grow its own heap tail
        fresh = child.malloc(512 * KiB)
        child.store(fresh, b"child-growth", 400 * KiB)
        assert child.load(fresh, 12, 400 * KiB) == b"child-growth"
        assert audit_cap_flow(os_) == []

    def test_untouched_tail_never_materializes(self):
        os_ = boot()
        ctx = GuestContext(os_, os_.spawn(dyn_image(heap=16 * MiB), "dyn"))
        ctx.malloc(1 * KiB)
        page = os_.machine.config.page_size
        mapped = os_.space.mapped_pages(ctx.proc.region_base,
                                        ctx.proc.region_top)
        total_region_pages = ctx.proc.region_size // page
        assert mapped < total_region_pages / 8

    def test_exit_unregisters_demand_range(self):
        os_ = boot()
        parent = GuestContext(os_, os_.spawn(dyn_image(), "p"))
        child = parent.fork()
        assert child.proc.pid in os_._demand_zero
        child.exit(0)
        parent.wait(child.pid)
        assert child.proc.pid not in os_._demand_zero

    def test_full_copy_fork_cheaper_with_dynamic_heap(self):
        """The static-heap design makes full-copy forks pay for the
        whole heap (the paper's 144 MB / 23 ms point); dynamic heaps
        shrink that to the touched pages."""
        latencies = {}
        for name, image in (("static", static_image()),
                            ("dynamic", dyn_image())):
            os_ = boot(copy_strategy=CopyStrategy.FULL_COPY)
            ctx = GuestContext(os_, os_.spawn(image, name))
            ctx.malloc(64 * KiB)
            with os_.machine.clock.measure() as watch:
                ctx.fork()
            latencies[name] = watch.elapsed_ns
        assert latencies["dynamic"] < latencies["static"] / 3
