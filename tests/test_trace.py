"""Kernel events as ``trace.<event>`` observability counters.

Forks, faults, CoW breaks, relocations, syscalls, exits and migrations
are counted through :mod:`repro.obs`; these tests pin that each kernel
event lands on its counter under ``Session(obs=True)``.
"""

from repro.api import Session
from repro.apps.hello import hello_world_image


def boot_observed(strategy="copa"):
    sim = Session(strategy=strategy, obs=True).boot()
    return sim, sim.spawn(name="app")


def counters(sim):
    return sim.machine.obs.registry.counters()


class TestTraceLog:
    """Trace counters record exactly while observation is on."""

    def test_no_tracer_is_noop(self):
        """No machine carries a tracer, and an unobserved run records
        no trace counters."""
        sim = Session().boot()
        assert sim.machine.tracer is None
        ctx = sim.spawn(name="app")
        ctx.fork()
        assert counters(sim) == {}

    def test_detach(self):
        sim, ctx = boot_observed()
        ctx.fork()
        sim.machine.obs.disable()
        ctx.fork()
        assert counters(sim)["trace.fork"] == 1


class TestKernelTracing:
    def test_fork_traced(self):
        sim, ctx = boot_observed()
        ctx.fork()
        seen = counters(sim)
        assert seen["trace.fork"] == 1
        assert seen["core.ufork.forks"] == 1

    def test_cow_breaks_traced_with_roles(self):
        sim, ctx = boot_observed()
        buf = ctx.malloc(32)
        ctx.store(buf, b"x" * 32)
        ctx.set_reg("c9", buf)
        child = ctx.fork()
        child.store(child.reg("c9"), b"y")   # child write break
        ctx.store(buf, b"z")                 # parent write break
        seen = counters(sim)
        assert seen["core.strategies.copa.break.child.write"] >= 1
        assert seen["core.strategies.copa.break.parent.write"] >= 1
        assert seen["trace.cow_break"] >= 2

    def test_syscalls_and_exit_traced(self):
        sim, ctx = boot_observed()
        child = ctx.fork()
        before = counters(sim)["trace.syscall"]
        child.syscall("getpid")
        child.exit(4)
        seen = counters(sim)
        assert seen["trace.syscall"] >= before + 2  # getpid, exit
        assert sim.machine.counters.get("syscall_getpid") == 1
        assert seen["trace.exit"] == 1

    def test_eager_copies_distinguished(self):
        sim, ctx = boot_observed()
        ctx.fork()
        seen = counters(sim)
        assert seen["core.strategies.eager_page_copies"] > 0  # GOT etc.
        assert "core.strategies.fault_page_copies" not in seen

    def test_summarize_reads_like_a_profile(self):
        sim, ctx = boot_observed(strategy="full")
        child = ctx.fork()
        child.exit(0)
        ctx.wait(child.pid)
        seen = counters(sim)
        assert seen["trace.fork"] == 1
        assert seen["trace.exit"] == 1
        assert seen["trace.syscall"] >= 3  # fork, exit, waitpid

    def test_migration_traced(self):
        sim, ctx = boot_observed()
        sim.spawn(hello_world_image(), name="filler")
        old_base = ctx.proc.region_base
        sim.os.migrate(ctx.proc)
        assert counters(sim)["trace.migrate"] == 1
        assert ctx.proc.region_base != old_base
