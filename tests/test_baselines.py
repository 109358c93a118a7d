"""Tests for the CheriBSD-like monolithic and Nephele-like VM-clone
baselines, including the cross-OS transparency property: the same app
code runs on every OS."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import GREETING, hello_world_image, run_hello
from repro.baselines import MonolithicOS, VMCloneOS
from repro.core import UForkOS
from repro.machine import Machine

ALL_OS = [UForkOS, MonolithicOS, VMCloneOS]


def boot(os_cls):
    return os_cls(machine=Machine())


def spawn_hello(os_):
    return GuestContext(os_, os_.spawn(hello_world_image(), "hello"))


class TestTransparency:
    """(R2): unmodified app code runs on every OS."""

    @pytest.mark.parametrize("os_cls", ALL_OS)
    def test_hello_runs(self, os_cls):
        ctx = spawn_hello(boot(os_cls))
        assert run_hello(ctx) == GREETING

    @pytest.mark.parametrize("os_cls", ALL_OS)
    def test_fork_snapshot_semantics(self, os_cls):
        os_ = boot(os_cls)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"pre-fork")
        parent.set_reg("c9", buf)
        child = parent.fork()
        child_buf = child.reg("c9")
        assert child.load(child_buf, 8) == b"pre-fork"
        parent.store(buf, b"mutated!")
        assert child.load(child_buf, 8) == b"pre-fork"

    @pytest.mark.parametrize("os_cls", ALL_OS)
    def test_fork_exit_wait(self, os_cls):
        os_ = boot(os_cls)
        parent = spawn_hello(os_)
        child = parent.fork()
        child.exit(3)
        assert parent.wait(child.pid) == (child.pid, 3)

    @pytest.mark.parametrize("os_cls", ALL_OS)
    def test_file_io(self, os_cls):
        from repro.kernel.vfs import O_CREAT, O_RDONLY, O_WRONLY
        os_ = boot(os_cls)
        ctx = spawn_hello(os_)
        fd = ctx.syscall("open", "/data", O_CREAT | O_WRONLY)
        ctx.write_bytes(fd, b"persisted bytes")
        ctx.syscall("close", fd)
        fd = ctx.syscall("open", "/data", O_RDONLY)
        assert ctx.read_bytes(fd, 100) == b"persisted bytes"
        ctx.syscall("close", fd)


class TestMonolithic:
    def test_same_base_address_for_all_processes(self):
        os_ = boot(MonolithicOS)
        a = spawn_hello(os_)
        b = spawn_hello(os_)
        assert a.proc.region_base == b.proc.region_base
        assert a.proc.space is not b.proc.space

    def test_fork_does_not_relocate_registers(self):
        os_ = boot(MonolithicOS)
        parent = spawn_hello(os_)
        child = parent.fork()
        from repro.cheri.regfile import CSP, DDC
        assert child.reg(DDC).base == parent.reg(DDC).base
        assert child.reg(CSP).cursor == parent.reg(CSP).cursor

    def test_cow_breaks_on_write(self):
        os_ = boot(MonolithicOS)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"original")
        child = parent.fork()
        child._pending_allocator_touch = False  # isolate the CoW test
        child.proc._pending_allocator_touch = False
        before = os_.machine.counters.get("cow_page_copies")
        child_ctx_buf = child.reg("c9") if "c9" in child.registers else buf
        child.store(buf, b"childnew")
        assert os_.machine.counters.get("cow_page_copies") > before
        assert parent.load(buf, 8) == b"original"

    def test_child_plain_read_never_copies(self):
        """Classic CoW: reads stay shared (μFork can't do this without
        CoPA's tag-awareness — here no relocation is needed)."""
        os_ = boot(MonolithicOS)
        parent = spawn_hello(os_)
        buf = parent.malloc(32)
        parent.store(buf, b"shared")
        child = parent.fork()
        before = os_.machine.counters.get("cow_page_copies")
        assert child.load(buf, 6) == b"shared"
        assert os_.machine.counters.get("cow_page_copies") == before

    def test_fork_cost_scales_with_mapped_pages(self):
        from repro.apps.redis import redis_image
        from repro.mem.layout import MiB
        os_ = boot(MonolithicOS)
        small = GuestContext(os_, os_.spawn(hello_world_image(), "s"))
        with os_.machine.clock.measure() as watch_small:
            small.fork()
        big = GuestContext(os_, os_.spawn(redis_image(8 * MiB), "b"))
        with os_.machine.clock.measure() as watch_big:
            big.fork()
        assert watch_big.elapsed_ns > watch_small.elapsed_ns

    def test_trap_syscalls_cost_more_than_sealed(self):
        mono = boot(MonolithicOS)
        sasos = boot(UForkOS)
        ctx_m = spawn_hello(mono)
        ctx_u = spawn_hello(sasos)
        with mono.machine.clock.measure() as watch_m:
            ctx_m.syscall("getpid")
        with sasos.machine.clock.measure() as watch_u:
            ctx_u.syscall("getpid")
        assert watch_m.elapsed_ns > watch_u.elapsed_ns

    def test_shared_library_frames_shared(self):
        os_ = boot(MonolithicOS)
        a = spawn_hello(os_)
        frames_after_one = os_.machine.phys.allocated_frames
        b = spawn_hello(os_)
        added = os_.machine.phys.allocated_frames - frames_after_one
        # the second process added fewer frames than its full mapping
        # because library text frames are shared
        assert added < len(b.proc.space.page_table)

    def test_allocator_touch_breaks_cow_lazily(self):
        os_ = boot(MonolithicOS)
        parent = spawn_hello(os_)
        block = parent.malloc(8 * 4096)
        parent.store(block, b"z" * (8 * 4096))
        child = parent.fork()
        assert child.proc._pending_allocator_touch
        before = os_.machine.counters.get("cow_page_copies")
        child.syscall("getpid")  # first kernel entry triggers the touch
        assert os_.machine.counters.get("cow_page_copies") > before
        assert not child.proc._pending_allocator_touch


class TestVMClone:
    def test_fork_copies_whole_guest(self):
        os_ = boot(VMCloneOS)
        parent = spawn_hello(os_)
        mapped = len(parent.proc.space.page_table)
        frames_before = os_.machine.phys.allocated_frames
        parent.fork()
        assert os_.machine.phys.allocated_frames - frames_before == mapped

    def test_fork_pays_domain_creation(self):
        os_ = boot(VMCloneOS)
        parent = spawn_hello(os_)
        with os_.machine.clock.measure() as watch:
            parent.fork()
        assert watch.elapsed_ns >= os_.machine.costs.vm_clone_fixed_ns

    def test_guest_kernel_pages_cloned_too(self):
        from repro.baselines.vmclone import GUEST_KERNEL_BYTES
        os_ = boot(VMCloneOS)
        parent = spawn_hello(os_)
        child = parent.fork()
        page = os_.machine.config.page_size
        # the clone's private memory exceeds the app image alone
        # (the mmap demand window is unmapped until used)
        image = hello_world_image()
        app_bytes = image.region_size(page) - image.mmap_size
        assert os_.private_bytes(child.proc) >= app_bytes + \
            (GUEST_KERNEL_BYTES // page) * page - page

    def test_no_sharing_between_vms(self):
        os_ = boot(VMCloneOS)
        parent = spawn_hello(os_)
        child = parent.fork()
        page = os_.machine.config.page_size
        mapped = len(child.proc.space.page_table)
        assert os_.private_bytes(child.proc) == mapped * page

    def test_clone_memory_metric_about_1_6mb(self):
        os_ = boot(VMCloneOS)
        parent = spawn_hello(os_)
        child = parent.fork()
        mem_mb = os_.memory_of(child.proc) / (1024 * 1024)
        assert 1.0 < mem_mb < 2.5  # paper: 1.6 MB


class TestForkLatencyOrdering:
    def test_paper_headline_ordering(self):
        """μFork < CheriBSD < Nephele on hello-world fork latency."""
        latencies = {}
        for os_cls in ALL_OS:
            os_ = boot(os_cls)
            ctx = spawn_hello(os_)
            with os_.machine.clock.measure() as watch:
                ctx.fork()
            latencies[os_.kind] = watch.elapsed_ns
        assert latencies["ufork"] < latencies["cheribsd"] \
            < latencies["nephele"]
        # orders of magnitude, as the paper reports
        assert latencies["nephele"] > 50 * latencies["ufork"]
