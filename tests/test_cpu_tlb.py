"""Tests for the CPU core and TLB cost models."""

import pytest

from repro.hw.cpu import Core
from repro.kernel.task import Process


class TestCore:
    def make_task(self):
        return Process(1, "p").add_task()

    def test_switch_same_space_cost(self, machine):
        core = machine.cores[0]
        before = machine.clock.now_ns
        core.switch_to(self.make_task(), same_address_space=True)
        assert machine.clock.now_ns - before == \
            int(machine.costs.context_switch_sas_ns)
        assert core.domain_switches == 1

    def test_switch_cross_space_cost(self, machine):
        core = machine.cores[0]
        before = machine.clock.now_ns
        core.switch_to(self.make_task(), same_address_space=False)
        assert machine.clock.now_ns - before == \
            int(machine.costs.context_switch_mas_ns)

    def test_registers_of_current_task(self, machine):
        core = machine.cores[0]
        task = self.make_task()
        core.switch_to(task, same_address_space=True)
        assert core.registers is task.registers

    def test_idle_core_has_no_registers(self, machine):
        with pytest.raises(RuntimeError):
            machine.cores[1].registers

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
