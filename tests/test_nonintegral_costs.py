"""Batched charges stay exact under non-integral cost constants.

The clock rounds every charge (``SimClock.advance`` adds
``int(round(ns))``), so a batch of ``n`` equal charges is
``int(round(cost)) * n`` whatever the cost.  The bulk fork copy, the
bulk CoW break and batched relocation therefore charge exactly what
the per-op loop charges, with no integral-cost precondition.  This
module runs a Redis workload on a calibration whose fork-path
constants are all non-integral, once on the batched paths and once on
the per-op paths (forced by an armed chaos engine that never fires),
and requires the two runs to agree on every simulated observable.
"""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.redis import MiniRedis, redis_image
from repro.chaos.engine import ChaosEngine, FaultMix
from repro.core import CopyStrategy, UForkOS
from repro.machine import Machine
from repro.mem.layout import MiB
from repro.params import CostModel

COSTS = CostModel.morello().scaled(
    page_fault_ns=550.5, pte_bulk_share_ns=5.5, pte_protect_ns=1.5,
    pte_coa_extra_ns=0.5, cap_relocate_ns=12.5,
    tag_scan_ns_per_granule=1.3)

#: end clocks of the per-op runs, recorded while every batched path
#: still required integral costs (and so fell back to per-op here)
EXPECTED_NOW_NS = {
    CopyStrategy.FULL_COPY: 1_642_726,
    CopyStrategy.COA: 237_557,
    CopyStrategy.COPA: 237_557,
}


def run_redis(strategy, per_op):
    machine = Machine(costs=COSTS)
    if per_op:
        # armed but never firing: every batched path takes its
        # per-op fallback
        ChaosEngine(seed=0, mix=FaultMix.parse("default=0")).attach(machine)
    os_ = UForkOS(machine=machine, copy_strategy=strategy)
    store = MiniRedis(GuestContext(os_, os_.spawn(redis_image(2 * MiB),
                                                  "redis")),
                      nbuckets=256)
    store.bgsave("/one.rdb")
    for index in range(20):
        store.set(b"key-%02d" % index, bytes([index]) * 300)
    store.bgsave("/two.rdb")
    clock = machine.clock
    return clock.now_ns, dict(clock.buckets), machine.counters.snapshot()


@pytest.mark.parametrize("strategy", list(CopyStrategy))
def test_bulk_equals_per_op_under_non_integral_costs(strategy, monkeypatch):
    taken = []
    bulk = UForkOS._copy_pages_bulk

    def spy(self, *args, **kwargs):
        result = bulk(self, *args, **kwargs)
        taken.append(result)
        return result

    monkeypatch.setattr(UForkOS, "_copy_pages_bulk", spy)
    batched = run_redis(strategy, per_op=False)
    assert taken and all(taken)       # both forks took the bulk copy
    taken.clear()
    per_op = run_redis(strategy, per_op=True)
    assert not any(taken)             # chaos forced the per-page loop
    assert batched[0] == per_op[0] == EXPECTED_NOW_NS[strategy]
    assert batched[1] == per_op[1]
    assert batched[2] == per_op[2]
