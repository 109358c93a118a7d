#!/usr/bin/env python3
"""Anatomy of a μFork: where the microseconds go.

Uses the simulated clock's attribution buckets and the observability
counters to break one fork down into its mechanism costs — the numbers
behind Figs 4 and 8 — at three database sizes.

Run:  python examples/fork_anatomy.py
"""

from repro.api import Session
from repro.apps.redis import MiniRedis, populate, redis_image
from repro.mem.layout import KiB, MiB

BUCKETS = (
    ("fork_fixed", "fixed path (VA reserve, task, PID, registers)"),
    ("fd_dup", "fd table duplication"),
    ("fork_map", "child page-table mapping (bulk share)"),
    ("fork_protect", "parent write-protection"),
    ("page_copy", "eager page copies (GOT + allocator metadata)"),
    ("reloc_scan", "tag scans of copied pages"),
    ("reloc_cap", "capability rewrites"),
    ("page_zero", "page zeroing"),
)


def dissect(db_bytes: int) -> None:
    session = Session(os="ufork", strategy="copa",
                      isolation="fault", seed=0, obs=True).boot()
    store = MiniRedis(
        session.spawn(redis_image(db_bytes), "redis"),
        nbuckets=max(64, db_bytes // (100 * KiB) * 2),
    )
    populate(store, db_bytes, value_size=100 * KiB)

    clock = session.machine.clock
    clock.reset_buckets()
    obs = session.machine.obs
    obs.reset()
    with clock.measure() as watch:
        child = store.ctx.fork()

    print(f"\nRedis database {db_bytes // KiB} KB — fork took "
          f"{watch.elapsed_us:.1f} us:")
    accounted = 0
    for bucket, label in BUCKETS:
        ns = clock.bucket_ns(bucket)
        accounted += ns
        if ns:
            share = 100 * ns / watch.elapsed_ns
            print(f"  {ns / 1000:9.1f} us  {share:5.1f}%  {label}")
    other = watch.elapsed_ns - accounted
    if other > 0:
        print(f"  {other / 1000:9.1f} us  {100 * other / watch.elapsed_ns:5.1f}%  (other)")
    counters = obs.registry.counters()
    eager = counters.get("core.strategies.eager_page_copies", 0)
    relocated = counters.get("core.relocate.caps_relocated", 0)
    print(f"  -> {eager} pages copied eagerly, "
          f"{relocated} capabilities relocated at fork time")

    child.exit(0)
    store.ctx.wait(child.pid)


def main() -> None:
    print("μFork cost anatomy (CoPA strategy).  The fixed path dominates"
          "\nsmall processes; bulk page-table mapping grows with the heap;"
          "\neager copies stay bounded to GOT + allocator metadata.")
    for size in (100 * KiB, 1 * MiB, 10 * MiB):
        dissect(size)


if __name__ == "__main__":
    main()
