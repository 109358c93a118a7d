"""Tests for the capability-flow isolation auditor, and audits of the
system after every kind of workload the suite exercises."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.apps.redis import MiniRedis, populate, redis_image
from repro.core import CopyStrategy, UForkOS
from repro.machine import Machine
from repro.mem.layout import KiB, MiB
from repro.sec.auditor import audit_cap_flow


def boot(**kwargs):
    return UForkOS(machine=Machine(), **kwargs)


def spawn(os_, name="app"):
    return GuestContext(os_, os_.spawn(hello_world_image(), name))


class TestAuditor:
    def test_fresh_system_clean(self):
        os_ = boot()
        spawn(os_)
        spawn(os_)
        assert audit_cap_flow(os_) == []

    def test_detects_planted_memory_leak(self):
        """The auditor actually catches violations: plant a capability
        to μprocess A inside μprocess B via a privileged write."""
        os_ = boot()
        a = spawn(os_, "a")
        b = spawn(os_, "b")
        evil = a.reg("csp")  # a's stack capability
        os_.space.store_cap(b.proc.layout.base("data") + 64, evil,
                            privileged=True)
        violations = audit_cap_flow(os_)
        assert len(violations) == 1
        assert violations[0].startswith(f"pid {b.pid} @ vpn ")
        assert "escapes the μprocess region" in violations[0]

    def test_detects_planted_register_leak(self):
        os_ = boot()
        a = spawn(os_, "a")
        b = spawn(os_, "b")
        b.set_reg("c15", a.reg("csp"))
        violations = audit_cap_flow(os_)
        assert any(v.startswith(f"pid {b.pid} @ register c15:")
                   for v in violations)

    def test_sentry_gates_are_not_violations(self):
        os_ = boot()
        ctx = spawn(os_)
        holder = ctx.malloc(16)
        # user code stores its (kernel-pointing, sealed) gate in memory
        os_.space.store_cap(holder.base, ctx.proc.syscall_gate,
                            privileged=True)
        assert audit_cap_flow(os_) == []


class TestWorkloadsLeaveSystemClean:
    @pytest.mark.parametrize("strategy", list(CopyStrategy))
    def test_after_fork_tree(self, strategy):
        os_ = boot(copy_strategy=strategy)
        root = spawn(os_)
        buf = root.malloc(64)
        root.store_cap(buf, root.malloc(16))
        root.set_reg("c9", buf)
        child = root.fork()
        grandchild = child.fork()
        # touch everything so lazy copies resolve
        for ctx in (child, grandchild):
            ctx.load_cap(ctx.reg("c9"))
        assert audit_cap_flow(os_) == []

    def test_after_redis_snapshot(self):
        os_ = boot()
        proc = os_.spawn(redis_image(1 * MiB), "redis")
        store = MiniRedis(GuestContext(os_, proc), nbuckets=64)
        populate(store, 256 * KiB, value_size=32 * KiB)
        store.bgsave("/d.rdb")
        assert audit_cap_flow(os_) == []

    def test_after_migration_and_compaction(self):
        os_ = boot()
        contexts = [spawn(os_, f"p{i}") for i in range(5)]
        for ctx in contexts:
            block = ctx.malloc(32)
            ctx.store_cap(block, ctx.malloc(16))
            ctx.set_reg("c9", block)
        contexts[1].exit(0)
        contexts[3].exit(0)
        os_.compact()
        assert audit_cap_flow(os_) == []

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_prop_random_fork_workload_stays_clean(self, seed):
        import random
        rng = random.Random(seed)
        os_ = boot(copy_strategy=rng.choice(list(CopyStrategy)))
        root = spawn(os_)
        live = [root]
        for _ in range(rng.randrange(2, 10)):
            actor = rng.choice(live)
            action = rng.randrange(3)
            if action == 0:
                block = actor.malloc(rng.choice([16, 48, 96]))
                actor.store_cap(block, actor.malloc(16))
                actor.set_reg("c9", block)
            elif action == 1:
                live.append(actor.fork())
            elif len(live) > 1 and actor is not root:
                live.remove(actor)
                actor.exit(0)
        assert audit_cap_flow(os_) == []
