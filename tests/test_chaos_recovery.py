"""Recovery-path tier: every survival mechanism has a dedicated test,
and every registered injection point demonstrably fires at its real
site."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.chaos import (
    INJECTION_POINTS,
    ChaosEngine,
    FaultMix,
    InjectedInterrupt,
    retry_syscall,
)
from repro.chaos.recovery import RETRY_MAX_ATTEMPTS
from repro.core import CopyStrategy, IsolationConfig, UForkOS
from repro.errors import Interrupted, InvalidArgument
from repro.machine import Machine


def chaos_os(spec, seed=7, **os_kwargs):
    machine = Machine(seed=seed)
    machine.obs.enable()
    engine = ChaosEngine(seed=seed, mix=FaultMix.parse(spec))
    engine.attach(machine)
    with engine.paused():
        os_ = UForkOS(machine=machine,
                      isolation=IsolationConfig.fault(), **os_kwargs)
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "victim"))
    return os_, ctx, engine


# ----------------------------------------------------------------------
# Bounded retry
# ----------------------------------------------------------------------

class TestRetry:
    def test_transient_injection_retried_to_success(self):
        machine = Machine()
        machine.obs.enable()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedInterrupt("injected")
            return "ok"

        assert retry_syscall(machine, flaky) == "ok"
        assert len(attempts) == 3
        counters = machine.obs.registry.counters()
        assert counters["chaos.retry.attempts"] == 2
        assert counters["chaos.retry.successes"] == 1

    def test_backoff_charged_to_chaos_bucket(self):
        machine = Machine()
        before = machine.clock.now_ns
        calls = []

        def once():
            if not calls:
                calls.append(1)
                raise InjectedInterrupt("injected")
            return 1

        retry_syscall(machine, once)
        assert machine.clock.buckets.get("chaos_backoff", 0) > 0
        assert machine.clock.now_ns > before

    def test_budget_exhaustion_reraises(self):
        machine = Machine()
        machine.obs.enable()
        with pytest.raises(InjectedInterrupt):
            retry_syscall(machine, lambda: (_ for _ in ()).throw(
                InjectedInterrupt("always")))
        counters = machine.obs.registry.counters()
        assert counters["chaos.retry.attempts"] == RETRY_MAX_ATTEMPTS - 1
        assert counters["chaos.retry.exhausted"] == 1

    def test_genuine_faults_never_retried(self):
        machine = Machine()
        attempts = []

        def genuine():
            attempts.append(1)
            raise Interrupted("a real EINTR")

        with pytest.raises(Interrupted):
            retry_syscall(machine, genuine)
        assert len(attempts) == 1               # no blind retry of real faults

    def test_syscall_entry_faults_invisible_to_guest(self):
        os_, ctx, engine = chaos_os("kernel.syscall.eintr=0.2")
        for _ in range(40):
            assert ctx.syscall("getpid") == ctx.pid
        assert engine.fired["kernel.syscall.eintr"] > 0
        counters = os_.machine.obs.registry.counters()
        assert counters["chaos.retry.successes"] > 0


# ----------------------------------------------------------------------
# Hardware-layer recovery
# ----------------------------------------------------------------------

class TestHardwareRecovery:
    def test_tag_clear_detected_and_recopied(self):
        machine = Machine()
        machine.obs.enable()
        engine = ChaosEngine(seed=7,
                             mix=FaultMix.parse("hw.phys.tag_clear=1.0"))
        engine.attach(machine)
        src = machine.phys.alloc()
        from repro.cheri.capability import Capability, Perm
        cap = Capability(base=0, length=64, cursor=0, perms=Perm.data_rw())
        machine.phys.frame(src).store_cap(0, cap, machine.codec)
        dst = machine.phys.copy_frame(src, preserve_tags=True)
        # despite the injected tag loss, the verify-after-copy restored them
        assert machine.phys.frame(dst).tagged_granules() == \
            machine.phys.frame(src).tagged_granules()
        assert engine.fired["hw.phys.tag_clear"] == 1
        assert engine.recovered["hw.phys.tag_clear"] == 1

    def test_lost_tlb_shootdown_reissued(self):
        machine = Machine()
        engine = ChaosEngine(
            seed=7, mix=FaultMix.parse("hw.tlb.shootdown_loss=1.0"))
        engine.attach(machine)
        tlb = machine.cores[0].tlb
        before = tlb.flush_count
        tlb.flush()
        assert tlb.flush_count == before + 2   # flush + re-issue
        assert engine.recovered["hw.tlb.shootdown_loss"] == 1


# ----------------------------------------------------------------------
# Short I/O survival (POSIX caller loops)
# ----------------------------------------------------------------------

class TestShortIO:
    def test_pipe_round_trip_survives_short_writes(self):
        os_, ctx, engine = chaos_os("kernel.ipc.short_write=1.0")
        read_fd, write_fd = ctx.syscall("pipe")
        payload = bytes(range(256)) * 8
        assert ctx.write_bytes(write_fd, payload) == len(payload)
        assert ctx.read_bytes(read_fd, len(payload)) == payload
        assert engine.fired["kernel.ipc.short_write"] > 1   # halved repeatedly

    def test_socket_round_trip_survives_short_sends(self):
        os_, ctx, engine = chaos_os("kernel.net.short_send=1.0")
        listen_fd = ctx.syscall("listen", 80)
        client_fd = ctx.syscall("connect", 80)
        server_fd = ctx.syscall("accept", listen_fd)
        payload = b"chaos!" * 64
        assert ctx.send_bytes(client_fd, payload) == len(payload)
        got = b""
        while len(got) < len(payload):
            got += ctx.recv_bytes(server_fd, len(payload) - len(got))
        assert got == payload
        assert engine.fired["kernel.net.short_send"] > 1


# ----------------------------------------------------------------------
# Forced preemption
# ----------------------------------------------------------------------

class TestPreemption:
    def test_preempt_switches_and_workload_survives(self):
        os_, ctx, engine = chaos_os("kernel.sched.preempt=1.0")
        with engine.paused():
            other = ctx.fork()
        switches_before = os_.sched.switches
        assert ctx.syscall("getpid") == ctx.pid
        assert other.syscall("getpid") == other.pid
        assert engine.fired["kernel.sched.preempt"] >= 2
        assert os_.sched.switches > switches_before
        with engine.paused():
            other.exit(0)
            ctx.wait(other.pid)


# ----------------------------------------------------------------------
# Degradation ladder (CoPA → CoA → eager copy)
# ----------------------------------------------------------------------

class TestDegradation:
    def _storm(self, ctx, engine):
        """One fork + child capability load, which under CoPA faults and
        (at rate 1.0) is hit by an injected storm."""
        cap = ctx.malloc(64)
        ctx.store_cap(cap, cap)
        child = ctx.fork()
        child_cap = cap.rebased(child.proc.region_base
                                - ctx.proc.region_base)
        child.load_cap(child_cap)          # CAP_LOAD break → storm point
        with engine.paused():
            child.exit(0)
            ctx.wait(child.pid)
        ctx.free(cap)

    def test_storms_degrade_copa_to_coa_then_eager(self):
        os_, ctx, engine = chaos_os(
            "core.strategies.cap_fault_storm=1.0",
            copy_strategy=CopyStrategy.COPA, eager_copy=False)
        engine.degrade_after = 2
        machine = os_.machine
        assert os_._effective_strategy(engine) is CopyStrategy.COPA
        while engine.degrade_tiers() < 1:
            self._storm(ctx, engine)
        assert os_._effective_strategy(engine) is CopyStrategy.COA
        while engine.degrade_tiers() < 2:
            self._storm(ctx, engine)
        assert os_._effective_strategy(engine) is CopyStrategy.FULL_COPY
        counters = machine.obs.registry.counters()
        assert counters["core.ufork.degraded_forks"] >= 1
        assert counters["core.strategies.cap_fault_storm_repeats"] >= 3
        assert engine.recovered["core.strategies.cap_fault_storm"] >= 2
        # a degraded (eager) fork still works and needs no lazy faults
        child = ctx.fork()
        with engine.paused():
            child.exit(0)
            ctx.wait(child.pid)

    def test_degradation_never_climbs_past_ladder_end(self):
        os_, ctx, engine = chaos_os(
            "default=0.0", copy_strategy=CopyStrategy.FULL_COPY)
        engine.fired["core.strategies.cap_fault_storm"] = 100
        assert os_._effective_strategy(engine) is CopyStrategy.FULL_COPY


# ----------------------------------------------------------------------
# Acceptance: every registered point fires at its real site
# ----------------------------------------------------------------------

def _exercise_smp(point):
    """SMP points need a multi-CPU machine, not a full OS."""
    machine = Machine(seed=7, num_cpus=2)
    machine.obs.enable()
    engine = ChaosEngine(seed=7, mix=FaultMix.parse(f"{point}=1.0"))
    engine.attach(machine)
    if point == "smp.ipi.drop":
        machine.ipi.send(0, 1, "resched")
    elif point == "smp.tlb.stale_storm":
        machine.tlb_shootdown([0, 1])
    elif point == "smp.steal.abort":
        from repro.kernel.sched import Scheduler
        sched = Scheduler(machine, True)
        assert sched.steal_into(1) is None
    else:  # pragma: no cover - catalog grew without a coverage driver
        raise AssertionError(f"no exercise driver for {point}")
    assert engine.fired.get(point, 0) >= 1, \
        f"{point} never fired at its instrumentation site"


def _exercise_sec(point):
    """sec.* points fire inside the security-matrix runner's cells."""
    from repro.sec.attacks import ATTACKS
    from repro.sec.runner import run_cell
    attack_name = ("snapshot_magic_tamper"
                   if point == "sec.snapshot.bitflip" else "bounds_widen")
    attack, body = ATTACKS[attack_name]
    cell = run_cell(attack, body, "copa", 1, "chaos", 7,
                    f"default=0.0,{point}=1.0")
    assert cell["verdict"] == "defeated"
    if point == "sec.attack.replay":
        assert cell["replayed"]
    assert cell["chaos_fired"].get(point, 0) >= 1, \
        f"{point} never fired at its instrumentation site"


def _exercise(point):
    """Drive the one workload fragment that hits ``point``'s site."""
    if point.startswith("smp."):
        _exercise_smp(point)
        return
    if point.startswith("sec."):
        _exercise_sec(point)
        return
    os_, ctx, engine = chaos_os(f"{point}=1.0", eager_copy=False)
    if point == "hw.phys.alloc_fail":
        with pytest.raises(Exception):
            os_.machine.phys.alloc()
    elif point == "hw.phys.tag_clear":
        src = os_.machine.phys.alloc()
        os_.machine.phys.copy_frame(src, preserve_tags=True)
    elif point == "hw.tlb.shootdown_loss":
        os_.machine.cores[0].tlb.flush()
    elif point.startswith("kernel.syscall."):
        with pytest.raises(Exception):
            ctx.syscall("getpid")              # rate 1.0: budget exhausts
    elif point == "kernel.sched.preempt":
        ctx.syscall("getpid")
    elif point == "kernel.ipc.short_write":
        read_fd, write_fd = ctx.syscall("pipe")
        ctx.write_bytes(write_fd, b"pings" * 10)
    elif point == "kernel.net.short_send":
        listen_fd = ctx.syscall("listen", 80)
        client_fd = ctx.syscall("connect", 80)
        ctx.send_bytes(client_fd, b"pings" * 10)
    elif point.startswith("core.ufork.abort."):
        with pytest.raises(Exception):
            os_.fork(ctx.proc)
    elif point.startswith("core.snapshot.abort."):
        from repro.snapshot import checkpoint, restore
        with engine.paused():
            blob = checkpoint(os_, ctx.proc)
        with pytest.raises(Exception):
            restore(os_, blob)
    elif point == "core.strategies.cap_fault_storm":
        cap = ctx.malloc(64)
        ctx.store_cap(cap, cap)
        child = ctx.fork()
        child.load_cap(cap.rebased(child.proc.region_base
                                   - ctx.proc.region_base))
    else:  # pragma: no cover - catalog grew without a coverage driver
        raise AssertionError(f"no exercise driver for {point}")
    assert engine.fired.get(point, 0) >= 1, \
        f"{point} never fired at its instrumentation site"


@pytest.mark.parametrize("point", sorted(INJECTION_POINTS))
def test_every_registered_point_fires_at_its_site(point):
    _exercise(point)
