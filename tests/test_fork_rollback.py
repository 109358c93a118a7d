"""Transactional-fork tier: for every copy strategy, kill fork at every
phase boundary and prove the kernel is exactly as it was — no leaked
frames, stale PTEs, dangling PIDs or half-populated fd tables."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.chaos import ChaosEngine, FaultMix, InjectedForkFailure
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.core.strategies import ShareNote
from repro.machine import Machine

ABORT_POINTS = [
    "core.ufork.abort.reserve",
    "core.ufork.abort.copy_pages",
    "core.ufork.abort.registers",
    "core.ufork.abort.allocator",
]
STRATEGIES = [CopyStrategy.FULL_COPY, CopyStrategy.COA, CopyStrategy.COPA]


def boot(strategy, spec="default=0.0", seed=7):
    machine = Machine(seed=seed)
    machine.obs.enable()
    engine = ChaosEngine(seed=seed, mix=FaultMix.parse(spec))
    engine.attach(machine)
    with engine.paused():
        os_ = UForkOS(machine=machine, copy_strategy=strategy,
                      isolation=IsolationConfig.fault())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "parent"))
        # give the image some state worth rolling back: live heap data,
        # a stored capability, and an open file
        cap = ctx.malloc(256)
        ctx.store(cap, b"precious parent state")
        ctx.store_cap(cap, cap, offset=32)
        from repro.kernel.vfs import O_CREAT, O_RDWR
        fd = ctx.syscall("open", "/keep", O_CREAT | O_RDWR)
    return os_, ctx, engine, cap, fd


def kernel_snapshot(os_, ctx):
    """Everything a leaky fork could perturb, deep-copied for compare."""
    machine = os_.machine
    ptes = {
        vpn: (frame, perms, type(note).__name__,
              machine.phys.refcount(frame))
        for vpn, frame, perms, _cow, note
        in os_.space.mapped_items(0, machine.config.va_pages)
    }
    descs = {fd: desc.refcount
             for fd, desc in ctx.proc.fdtable._slots.items()}
    return {
        "frames": machine.phys.allocated_frames,
        "ptes": ptes,
        "reserved": sorted(os_.vspace.reserved_areas()),
        "alive_pids": sorted(p.pid for p in os_.procs.alive()),
        "children": [c.pid for c in ctx.proc.children],
        "fd_refcounts": descs,
    }


@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: s.value)
@pytest.mark.parametrize("point", ABORT_POINTS,
                         ids=lambda p: p.rsplit(".", 1)[-1])
def test_abort_at_every_boundary_leaks_nothing(strategy, point):
    os_, ctx, engine, cap, fd = boot(strategy, spec=f"{point}=1.0")
    before = kernel_snapshot(os_, ctx)

    with pytest.raises(InjectedForkFailure):
        os_.fork(ctx.proc)

    assert kernel_snapshot(os_, ctx) == before
    assert os_.machine.counters.snapshot().get("fork_rollbacks") == 1
    counters = os_.machine.obs.registry.counters()
    assert counters["core.ufork.fork_rollbacks"] == 1
    assert engine.recovered.get(point) == 1
    # no page in the whole table may still carry a fork-sharing note
    # pointing at a child that never came to be
    for _vpn, note in os_.space.noted_items():
        assert not isinstance(note, ShareNote)

    # parent is fully functional: its state is intact and, with the
    # chaos cleared, the very same fork now succeeds
    assert ctx.load(cap, 21) == b"precious parent state"
    engine.disable()
    child = ctx.fork()
    child_cap = cap.rebased(child.proc.region_base - ctx.proc.region_base)
    assert child.load(child_cap, 21) == b"precious parent state"
    assert child.load_cap(child_cap, offset=32).base == child_cap.base
    child.exit(0)
    ctx.wait(child.pid)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_alloc_failure_mid_copy_rolls_back(strategy):
    """An injected frame-exhaustion *inside* the copy loop (not at a
    phase boundary) must also roll back completely, and surfaces as the
    retriable InjectedForkFailure."""
    os_, ctx, engine, cap, fd = boot(strategy)
    before = kernel_snapshot(os_, ctx)
    # arm alloc failure only now, so boot/spawn allocations stay clean
    engine.mix = FaultMix.parse("hw.phys.alloc_fail=1.0")

    with pytest.raises(InjectedForkFailure) as excinfo:
        os_.fork(ctx.proc)
    assert excinfo.value.__cause__ is not None      # wraps the alloc fault

    engine.mix = FaultMix.parse("default=0.0")
    assert kernel_snapshot(os_, ctx) == before


def test_fork_failure_is_retried_transparently():
    """End to end: abort faults at a survivable rate are absorbed by
    rollback + the syscall retry loop — the guest just sees fork work."""
    os_, ctx, engine, cap, fd = boot(
        CopyStrategy.COPA, spec="core.ufork.abort.reserve=0.25")
    made = 0
    for _ in range(12):
        child = ctx.fork()          # retry absorbs this seed's injections
        made += 1
        with engine.paused():
            child.exit(0)
            ctx.wait(child.pid)
    assert made == 12
    assert engine.fired.get("core.ufork.abort.reserve", 0) > 0
    counters = os_.machine.obs.registry.counters()
    assert counters["core.ufork.fork_rollbacks"] > 0
    assert counters["chaos.retry.successes"] > 0
    assert counters["core.ufork.forks"] == made


def test_disabled_chaos_forks_bit_identically():
    """Acceptance: with injection disabled the instrumented fork path
    must be byte-identical to a run on a chaos-free machine."""
    def run(attach_engine):
        machine = Machine(seed=7)
        machine.obs.enable()
        if attach_engine:
            ChaosEngine(seed=7, mix=FaultMix.parse("default=0.5"),
                        enabled=False).attach(machine)
        os_ = UForkOS(machine=machine, copy_strategy=CopyStrategy.COPA,
                      isolation=IsolationConfig.fault())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
        for _ in range(3):
            child = ctx.fork()
            child.exit(0)
            ctx.wait(child.pid)
        from repro.obs import to_json
        return to_json(machine.obs.export())

    assert run(attach_engine=False) == run(attach_engine=True)
