"""Tests for the CPU core and TLB cost models."""

from repro.baselines.monolithic import MonolithicOS
from repro.core.ufork import UForkOS
from repro.kernel.task import Process


class TestCore:
    def switch(self, os_):
        """Dispatch a fresh task through the kernel scheduler; returns
        (clock delta, ctx_switch bucket delta, core-0 TLB flushes)."""
        machine = os_.machine
        task = Process(1, "p").add_task()
        os_.sched.add(task)
        tlb = machine.cores[0].tlb
        flushes = tlb.flush_count
        before = machine.clock.now_ns
        ctx_before = machine.clock.buckets.get("ctx_switch", 0)
        os_.sched.switch_to(task, cpu=0)
        return (machine.clock.now_ns - before,
                machine.clock.buckets["ctx_switch"] - ctx_before,
                tlb.flush_count - flushes)

    def test_switch_same_space_cost(self, machine):
        elapsed, ctx, flushes = self.switch(UForkOS(machine))
        assert ctx == elapsed == int(machine.costs.context_switch_sas_ns)
        assert flushes == 0

    def test_switch_cross_space_cost(self, machine):
        elapsed, ctx, flushes = self.switch(MonolithicOS(machine))
        assert ctx == int(machine.costs.context_switch_mas_ns)
        assert flushes == 1
        assert elapsed == ctx + int(machine.costs.tlb_flush_ns)

    def test_machine_has_configured_core_count(self, machine):
        assert len(machine.cores) == machine.config.cores
        assert [core.core_id for core in machine.cores] == [0, 1, 2, 3]


class TestTLB:
    def test_flush_charges_and_counts(self, machine):
        before = machine.clock.now_ns
        tlb = machine.cores[0].tlb
        tlb.flush()
        tlb.flush()
        assert tlb.flush_count == 2
        assert machine.counters.get("tlb_flush") == 2
        assert machine.clock.now_ns - before == \
            2 * int(machine.costs.tlb_flush_ns)
