"""repro.smp: the simulated multi-core machine.

Turns the single-CPU machine into an N-core SMP simulator:

* :mod:`repro.smp.ipi` — an explicit inter-processor-interrupt bus and
  the ack-based cross-core TLB-shootdown protocol whose cost scales
  with the number of online CPUs (the f(N) term the paper's
  lightweightness argument hinges on, §2.2);
* :mod:`repro.smp.locks` — the minimal kernel locking discipline
  (spinlocks + IRQ-disable guards) serializing fork, CoW fault
  handling, and the fd table;
* :mod:`repro.smp.exec` — the per-CPU-timeline executor that runs
  synchronous driver code as a parallel schedule over the kernel's
  per-CPU work-stealing scheduler (:mod:`repro.kernel.sched`, the one
  scheduler for every CPU count);
* :mod:`repro.smp.runner` — the FaaS / nginx-workers scaling workloads
  behind ``python -m repro.harness smp`` (imports the full OS stack,
  so it is intentionally *not* re-exported here).

Everything here is inert on a 1-CPU machine: ``Machine()`` defaults to
``num_cpus=1``, where spinlocks charge nothing, no IPI is ever sent,
and every shootdown has zero recipients — existing goldens stay
bit-identical.
"""

from repro.smp.exec import SmpExecutor
from repro.smp.ipi import IpiBus, tlb_shootdown
from repro.smp.locks import IrqGuard, KernelLocks, SpinLock

__all__ = [
    "IpiBus",
    "IrqGuard",
    "KernelLocks",
    "SmpExecutor",
    "SpinLock",
    "tlb_shootdown",
]
