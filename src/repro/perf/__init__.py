"""Host performance of the simulator's hot paths.

The reproduction reports *simulated* nanoseconds; host time is what it
costs to compute them.  The one memory engine (docs/ARCHITECTURE.md
"Vectorized engine") is built for host speed:

* the generation-stamped page-walk cache in
  :class:`repro.hw.paging.AddressSpace` (invalidated by PTE writes and
  TLB flushes/shootdowns);
* the memoised capability encode/decode in
  :class:`repro.cheri.codec.CapabilityCodec`;
* the banked frame store and batched granule-tag clear/scan in
  :mod:`repro.hw.phys`;
* the syscall dispatch table in :class:`repro.kernel.base.AbstractOS`.

None of these may change a simulated result: the golden digests in
``tests/golden/twin_corpus.json`` and the dict reference model in
``tests/mem_oracle.py`` pin that.  :mod:`repro.perf.bench` times the
hot paths in host-normalised units.
"""

from __future__ import annotations


def enabled() -> bool:
    """Always True (there is one engine); kept because
    ``perfbench/layers.py:engine_guards`` reads it."""
    return True


__all__ = ["enabled"]
