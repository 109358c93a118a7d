"""The inter-processor-interrupt bus and the TLB-shootdown protocol.

Cross-core coherence is where multi-address-space forks get expensive
on real multiprocessors: write-protecting the parent's pages for CoW
invalidates every other core's cached translations, and the kernel must
interrupt each of them and wait for acknowledgements before the fork
may proceed.  The paper's lightweightness argument (§2.2) rests on
μFork *avoiding* that broadcast — a single-address-space fork maps the
child onto fresh virtual addresses, so only CPUs that actually ran the
parent μprocess can hold stale entries, and a single-threaded parent
that never migrated needs no IPIs at all.

The protocol modeled here is the classic ack-based one:

1. the initiator sends one IPI per recipient CPU
   (``ipi_send_ns`` each);
2. each recipient invalidates its private TLB
   (``tlb_flush_ns``, charged per recipient);
3. each recipient acknowledges; the initiator spins until every ack
   arrives (``ipi_ack_ns`` each).

Total broadcast cost is therefore ``R × (ipi_send_ns + tlb_flush_ns +
ipi_ack_ns)`` for R recipients — see :meth:`CostModel.shootdown_ns`
and docs/COSTMODEL.md.  Zero recipients cost zero, which is what keeps
1-CPU machines bit-identical to the pre-SMP model.

Chaos: the ``smp.ipi.drop`` point loses an IPI in the interconnect;
the initiator's ack timeout detects the miss (``ipi_timeout_ns``) and
re-sends, so correctness never depends on the first interrupt landing
— the same recovery contract as ``hw.tlb.shootdown_loss``.  The
``smp.tlb.stale_storm`` point hits a recipient with a storm of
stale-entry faults before the invalidation sticks, forcing it to
re-run the invalidation.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class IpiBus:
    """Delivers IPIs between cores, with the ack handshake and costs.

    Observable as the ``smp.ipi.sent`` / ``smp.ipi.acked`` /
    ``smp.ipi.dropped`` / ``smp.ipi.resent`` counters (plus a
    ``smp.ipi.<kind>`` counter per interrupt kind).
    """

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        self.sent = 0
        self.acked = 0
        self.dropped = 0
        self.resent = 0

    def send(self, src: int, dst: int, kind: str) -> int:
        """Send one IPI from ``src`` to ``dst`` and wait for the ack.

        Returns the number of send attempts (1, or 2 after a chaos
        drop + timeout + re-send).
        """
        machine = self.machine
        machine.charge(machine.costs.ipi_send_ns, "ipi")
        self.sent += 1
        machine.obs.count("smp.ipi.sent")
        machine.obs.count(f"smp.ipi.{kind}")
        machine.counters.add("ipi_sent")
        attempts = 1
        chaos = machine.chaos
        if chaos.enabled and chaos.should_fire("smp.ipi.drop"):
            # lost in the interconnect: the initiator's ack timeout
            # detects the miss and re-sends (the re-send models a
            # transient loss, not a dead core, so it always lands)
            self.dropped += 1
            machine.obs.count("smp.ipi.dropped")
            machine.charge(machine.costs.ipi_timeout_ns, "ipi")
            machine.charge(machine.costs.ipi_send_ns, "ipi")
            self.sent += 1
            self.resent += 1
            machine.obs.count("smp.ipi.sent")
            machine.obs.count("smp.ipi.resent")
            machine.counters.add("ipi_sent")
            chaos.note_recovery("smp.ipi.drop")
            attempts += 1
        machine.charge(machine.costs.ipi_ack_ns, "ipi")
        self.acked += 1
        machine.obs.count("smp.ipi.acked")
        machine.counters.add("ipi_acked")
        return attempts


def tlb_shootdown(machine: Any, targets: Iterable[int],
                  initiator: Optional[int] = None,
                  reason: str = "shootdown") -> int:
    """Run the ack-based shootdown against every online CPU in
    ``targets`` other than the initiator; returns the recipient count.

    The cost is *per recipient* (send + remote invalidate + ack), so a
    broadcast scales with the number of online CPUs while an empty
    recipient set — always the case on a 1-CPU machine — is free and
    leaves no observable trace.
    """
    if initiator is None:
        initiator = machine.current_cpu
    online = machine.num_cpus
    recipients = sorted({cpu for cpu in targets
                         if 0 <= cpu < online and cpu != initiator})
    if not recipients:
        return 0
    machine.counters.add("tlb_shootdown_broadcast")
    machine.obs.count("smp.tlb.shootdowns")
    machine.obs.count("trace.tlb_shootdown")
    chaos = machine.chaos
    for cpu in recipients:
        machine.ipi.send(initiator, cpu, "tlb_shootdown")
        machine.cpus[cpu].tlb.remote_invalidate()
        if chaos.enabled and chaos.should_fire("smp.tlb.stale_storm"):
            # a storm of stale-entry faults hits the recipient before
            # the invalidation sticks; it re-runs the invalidation
            machine.cpus[cpu].tlb.remote_invalidate()
            machine.obs.count("smp.tlb.stale_storms")
            chaos.note_recovery("smp.tlb.stale_storm")
    machine.counters.add("tlb_shootdown_ipis", len(recipients))
    return len(recipients)
