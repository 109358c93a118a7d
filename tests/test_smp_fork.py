"""Cross-core fork tier: the fork transaction stays leak-free when a
fork is aborted mid-flight on one CPU while sibling μprocesses are
actively running on the other CPUs — for every copy strategy × abort
boundary (mirrors tests/test_fork_rollback.py at ``num_cpus=4``)."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.chaos import ChaosEngine, FaultMix, InjectedForkFailure
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.core.strategies import ShareNote
from repro.machine import Machine
from repro.smp.exec import SmpExecutor

ABORT_POINTS = [
    "core.ufork.abort.reserve",
    "core.ufork.abort.copy_pages",
    "core.ufork.abort.registers",
    "core.ufork.abort.allocator",
]
STRATEGIES = [CopyStrategy.FULL_COPY, CopyStrategy.COA, CopyStrategy.COPA]
NUM_CPUS = 4


def boot_smp(strategy, spec="default=0.0", seed=7, siblings=3):
    """An SMP machine with one fork-target parent plus ``siblings``
    independent μprocesses to keep the other CPUs busy."""
    machine = Machine(seed=seed, num_cpus=NUM_CPUS)
    machine.obs.enable()
    engine = ChaosEngine(seed=seed, mix=FaultMix.parse(spec))
    engine.attach(machine)
    with engine.paused():
        os_ = UForkOS(machine=machine, copy_strategy=strategy,
                      isolation=IsolationConfig.fault())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "parent"))
        cap = ctx.malloc(256)
        ctx.store(cap, b"precious parent state")
        ctx.store_cap(cap, cap, offset=32)
        others = [
            GuestContext(os_, os_.spawn(hello_world_image(), f"sib{i}"))
            for i in range(siblings)
        ]
    return os_, ctx, engine, cap, others


def kernel_snapshot(os_, ctx):
    """Everything a leaky fork could perturb (sibling steps below are
    pure compute, so this must be invariant across the executor run
    except for the aborted fork's own rollback)."""
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
def test_abort_with_siblings_running_leaks_nothing(strategy, point):
    os_, ctx, engine, cap, others = boot_smp(strategy, spec=f"{point}=1.0")
    machine = os_.machine
    before = kernel_snapshot(os_, ctx)
    outcome = {}

    ex = SmpExecutor(os_)
    # siblings: pure compute, several rounds each, spread across CPUs
    def make_sibling(sib, rounds=3):
        def step():
            sib.compute(40_000)
            if rounds > step.__dict__.setdefault("done", 0) + 1:
                step.done += 1
                ex.submit(sib.proc.main_task(), step)
            return None
        return step

    def fork_step():
        try:
            os_.fork(ctx.proc)
        except InjectedForkFailure as exc:
            outcome["failure"] = exc
        return None

    for sib in others:
        ex.submit(sib.proc.main_task(), make_sibling(sib))
    ex.submit(ctx.proc.main_task(), fork_step)
    ex.run()

    assert isinstance(outcome.get("failure"), InjectedForkFailure)
    # siblings genuinely ran elsewhere while the fork died
    assert sum(1 for cpu in machine.cpus if cpu.steps > 0) > 1

    assert kernel_snapshot(os_, ctx) == before
    assert machine.counters.snapshot().get("fork_rollbacks") == 1
    assert machine.obs.registry.counters()["core.ufork.fork_rollbacks"] == 1
    assert engine.recovered.get(point) == 1
    for _vpn, note in os_.space.noted_items():
        assert not isinstance(note, ShareNote)

    # the spinlocks are all released and the parent still forks fine
    assert machine.irq_depth == 0
    assert os_.machine.locks.fork.owner is None
    assert ctx.load(cap, 21) == b"precious parent state"
    engine.disable()
    child = ctx.fork()
    child_cap = cap.rebased(child.proc.region_base - ctx.proc.region_base)
    assert child.load(child_cap, 21) == b"precious parent state"
    assert child.load_cap(child_cap, offset=32).base == child_cap.base
    child.exit(0)
    ctx.wait(child.pid)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
def test_cross_core_fork_succeeds_with_siblings(strategy):
    """The happy path at 4 CPUs: fork runs on one core while siblings
    compute on others; the child is correctly relocated and reaped."""
    os_, ctx, engine, cap, others = boot_smp(strategy)
    ex = SmpExecutor(os_)
    result = {}

    def fork_step():
        child = ctx.fork()
        child_cap = cap.rebased(child.proc.region_base
                                - ctx.proc.region_base)
        result["data"] = child.load(child_cap, 21)
        result["cap_ok"] = (child.load_cap(child_cap, offset=32).base
                            == child_cap.base)
        child.exit(0)
        ctx.wait(child.pid)
        return None

    for sib in others:
        ex.submit(sib.proc.main_task(), lambda s=sib: s.compute(80_000))
    ex.submit(ctx.proc.main_task(), fork_step)
    ex.run()

    assert result["data"] == b"precious parent state"
    assert result["cap_ok"]
    assert os_.machine.counters.get("fork") == 1


def test_footprint_shootdown_covers_migrated_threads():
    """A parent whose threads ran on several CPUs has a wider TLB
    footprint — μFork's fork must interrupt exactly those CPUs (minus
    the initiator), still never the full broadcast."""
    os_, ctx, engine, cap, others = boot_smp(CopyStrategy.COPA)
    machine = os_.machine
    # simulate a second parent thread that last ran on CPU 2
    extra = ctx.proc.add_task()
    extra.registers.copy_from(ctx.proc.main_task().registers)
    extra.last_cpu = 2
    assert ctx.proc.cpu_footprint() == {0, 2}

    before = machine.counters.get("tlb_shootdown_ipis")
    child = ctx.fork()          # initiator is CPU 0
    assert machine.counters.get("tlb_shootdown_ipis") - before == 1
    child.exit(0)
    ctx.wait(child.pid)
