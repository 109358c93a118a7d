"""Host-time microbenchmarks of the simulator's hot paths.

Each microbenchmark drives a fixed deterministic workload on fresh
machines: one untimed warm-up, then :data:`REPEATS` timed runs.  The
row's ``optimized_s`` is the fastest timed run.  Host speed is divided
out with a fixed pure-Python calibration kernel (:func:`calibration_kernel`)
timed in the same process, interleaved with the workload runs; the
row's ``units`` is ``optimized_s / calib_s``, a host-independent cost.

Every run of a workload must land on the same simulated result (its
``invariant``: the simulated clock, or a digest of the whole report);
the driver asserts that across the warm-up and the timed runs.

The report (``BENCH_hotpath.json``, schema ``repro.perf/v2``) keeps
every wall-clock-dependent field inside per-benchmark ``host`` objects
and the top-level ``host_meta`` object; everything else is a pure
function of the seed, so two runs are byte-identical modulo those
fields (tests/test_bench.py checks exactly this).

Gate (``bench --check BASELINE``, :func:`check_gate`): a row fails
when its ``invariant`` differs from the baseline's — a deterministic
check that cannot flake on a slower runner — or when its ``units``
exceed :data:`CROSS_RUN_RATIO` × the baseline's.  A baseline without
calibrated units (schema ``repro.perf/v1``) fails the gate outright.
"""

from __future__ import annotations

import gc
import heapq
import json
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: report schema identifier
SCHEMA = "repro.perf/v2"

#: timed runs per benchmark after the warm-up; the fastest is recorded
REPEATS = 3

#: cross-run bound for ``bench --check``: a row's calibrated ``units``
#: may not exceed ``CROSS_RUN_RATIO`` × the baseline report's
CROSS_RUN_RATIO = 1.5


# ---------------------------------------------------------------------------
# Workloads — each returns (simulated_ns, config_dict)
# ---------------------------------------------------------------------------

def _bench_fork_full_copy(forks: int = 12,
                          db_bytes: int = 512 * 1024
                          ) -> Tuple[int, Dict[str, Any]]:
    """Repeated FULL_COPY forks of a populated Redis image.

    Every fork copies and *relocates* the whole region: the per-page
    tag scan in :meth:`repro.hw.phys.Frame.tagged_granules` and the
    page-walk cache in :class:`repro.hw.paging.AddressSpace` are the
    hot paths exercised.
    """
    from repro.apps.guest import GuestContext
    from repro.apps.redis import MiniRedis, populate, redis_image
    from repro.core import CopyStrategy, IsolationConfig, UForkOS
    from repro.machine import Machine

    os_ = UForkOS(machine=Machine(),
                  copy_strategy=CopyStrategy.FULL_COPY,
                  isolation=IsolationConfig.fault())
    proc = os_.spawn(redis_image(db_bytes), "redis")
    store = MiniRedis(GuestContext(os_, proc), nbuckets=256)
    populate(store, db_bytes, value_size=4096)
    parent = GuestContext(os_, proc)
    for _ in range(forks):
        child = parent.fork()
        child.exit(0)
        parent.wait(child.pid)
    return os_.machine.clock.now_ns, {
        "forks": forks, "db_bytes": db_bytes, "strategy": "full",
    }


def _bench_fault_storm(rounds: int = 6, pages: int = 192,
                       rewrites: int = 8) -> Tuple[int, Dict[str, Any]]:
    """CoPA page-fault storm with post-break write bursts.

    Each round forks, then dirties every parent page — each first write
    faults: frame copy (batched tag clear), PTE replace and a re-walk —
    and then re-writes the now-private pages ``rewrites`` more times,
    the way a fork server keeps using the pages it just broke.  The
    fault handler's whole stack *and* the page-walk/TLB cache layer are
    both on the measured path.
    """
    from repro.apps.guest import GuestContext
    from repro.core import CopyStrategy, IsolationConfig, UForkOS
    from repro.machine import Machine
    from repro.mem.layout import ProgramImage

    os_ = UForkOS(machine=Machine(),
                  copy_strategy=CopyStrategy.COPA,
                  isolation=IsolationConfig.fault())
    page = os_.machine.config.page_size
    # right-sized image: the heap holds the storm buffer plus allocator
    # metadata, and nothing else inflates load time
    image = ProgramImage(name="storm", got_entries=64,
                         heap_size=(pages + 64) * page)
    proc = os_.spawn(image, "storm")
    parent = GuestContext(os_, proc)
    buf = parent.malloc(pages * page)
    seed_bytes = b"\xA5" * 64
    dirty_bytes = b"\x5A" * 64
    burst_bytes = b"\x3C" * 64
    # the driver uses the guest batch primitive (store_run) so the
    # measurement is the simulator's per-store cost, not the benchmark
    # harness's
    store_run = parent.store_run
    offsets = [index * page for index in range(pages)]
    store_run(buf, seed_bytes, offsets)
    for _ in range(rounds):
        child = parent.fork()
        store_run(buf, dirty_bytes, offsets)
        for _ in range(rewrites):
            store_run(buf, burst_bytes, offsets)
        child.exit(0)
        parent.wait(child.pid)
    return os_.machine.clock.now_ns, {
        "rounds": rounds, "pages": pages, "rewrites": rewrites,
        "strategy": "copa",
    }


def _bench_pipe_pingpong(transfers: int = 400, chunk: int = 4096
                         ) -> Tuple[int, Dict[str, Any]]:
    """4 KiB pipe round-trips through the full syscall path.

    Exercises syscall dispatch, entry accounting and the user-buffer
    copies that resolve every page through the address space.
    """
    from repro.apps.guest import GuestContext
    from repro.apps.hello import hello_world_image
    from repro.core import CopyStrategy, IsolationConfig, UForkOS
    from repro.machine import Machine

    os_ = UForkOS(machine=Machine(),
                  copy_strategy=CopyStrategy.COPA,
                  isolation=IsolationConfig.fault())
    proc = os_.spawn(hello_world_image(), "pingpong")
    guest = GuestContext(os_, proc)
    read_fd, write_fd = guest.syscall("pipe")
    payload = bytes(range(256)) * (chunk // 256)
    for _ in range(transfers):
        guest.write_bytes(write_fd, payload)
        guest.read_bytes(read_fd, chunk)
    return os_.machine.clock.now_ns, {
        "transfers": transfers, "chunk": chunk,
    }


def _bench_conform_explorer(budget: int = 24
                            ) -> Tuple[int, Dict[str, Any]]:
    """A slice of the differential conformance explorer (no host
    oracle): scheduler picks, syscall dispatch and fork/exit churn
    across many short simulated runs.  The invariant is a digest of
    the *whole* conformance report, so a change in any cell or
    explored schedule changes it."""
    import hashlib

    from repro.conform.runner import run_conform

    scenarios = ["pipe-hello", "wait-exit-status"]
    report = run_conform(seed=7, cpus=[1], strategies=["full", "copa"],
                         depth_bound=2, budget=budget,
                         scenario_names=scenarios, host=False)
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()
    return int(digest[:15], 16), {
        "budget": budget, "strategies": ["full", "copa"],
        "scenarios": scenarios,
    }


def _bench_snapshot_restore(cycles: int = 4
                            ) -> Tuple[int, Dict[str, Any]]:
    """The FaaS cold-start triathlon (:mod:`repro.apps.coldstart`):
    cold boot vs zygote fork vs snapshot restore, then ``cycles``
    further restores of the same blob hammering the checkpoint/restore
    hot paths (page serialization, tag scans, capability re-minting).
    The invariant folds every simulated interval and the blob length
    together, so a change anywhere in the snapshot engine changes it."""
    from repro.apps.coldstart import coldstart_comparison, make_zygote_blob
    from repro.apps.guest import GuestContext
    from repro.core import CopyStrategy, UForkOS
    from repro.machine import Machine
    from repro.snapshot import restore

    comparison = coldstart_comparison(seed=7)
    blob = make_zygote_blob(seed=7)
    os_ = UForkOS(machine=Machine(seed=9),
                  copy_strategy=CopyStrategy.COPA)
    for _ in range(cycles):
        GuestContext(os_, restore(os_, blob)).exit(0)
    simulated = (os_.machine.clock.now_ns
                 + comparison["cold_boot_ns"]
                 + comparison["zygote_fork_ns"]
                 + comparison["snapshot_restore_ns"]
                 + comparison["blob_bytes"])
    return simulated, {
        "cycles": cycles, "blob_pages": comparison["blob_pages"],
        "function": comparison["function"],
    }


#: benchmark registry: name → workload
BENCHMARKS: Dict[str, Callable[[], Tuple[int, Dict[str, Any]]]] = {
    "fork_full_copy": _bench_fork_full_copy,
    "fault_storm": _bench_fault_storm,
    "pipe_pingpong": _bench_pipe_pingpong,
    "conform_explorer": _bench_conform_explorer,
    "snapshot_restore": _bench_snapshot_restore,
}


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.links: list = []


def calibration_kernel() -> int:
    """A fixed ~16 ms of interpreter work of the kind the simulator
    does (dict and int arithmetic, small slotted objects, lists, a
    heap); returns a checksum.  Never change it: every recorded
    ``units`` value is relative to it.  It is the same kernel as the
    end-to-end benchmark's host-speed reference
    (``perfbench/hostspeed.py``), duplicated so the package does not
    depend on the benchmark harness."""
    acc, table, items = 0, {}, []
    for i in range(20_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i + table.get((i * 7) & 1023, 0)) & 0xFFFFFFFF
        if not i & 63:
            items.append(acc)
    items.sort()

    count = 12_000
    nodes = [_Node(i, i * 3) for i in range(count)]
    for i, node in enumerate(nodes):
        node.links.append(nodes[(i * 7919) % count])
    heap: list = []
    buckets: dict = {}
    for node in nodes:
        for link in node.links:
            acc = (acc + link.value) & 0xFFFFFFFF
        heapq.heappush(heap, ((node.key * 2654435761) & 0xFFFF, node.key))
        if len(heap) > 64:
            heapq.heappop(heap)
        buckets.setdefault(node.key & 255, []).append(node)
    return acc ^ len(buckets) ^ heap[0][1]


def _timed(work: Callable[[], Any]) -> Tuple[float, Any]:
    # start every sample from the same heap state: a previous run's
    # cyclic garbage (whole machines) is not collected on our clock
    gc.collect()
    started = time.perf_counter()
    result = work()
    return time.perf_counter() - started, result


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def run_benchmarks(names: List[str] = None,
                   verbose: bool = True) -> Dict[str, Any]:
    """Run each benchmark and build the report dict."""
    chosen = names or list(BENCHMARKS)
    unknown = [name for name in chosen if name not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmark(s): {unknown}; "
                       f"choose from {list(BENCHMARKS)}")
    rows = []
    for name in chosen:
        workload = BENCHMARKS[name]
        # untimed warm-up: pays one-time host costs (module imports,
        # bytecode compilation) so no timed run is charged for them
        invariant, config = workload()
        runs = []
        calib = []
        for _ in range(REPEATS):
            calib.append(_timed(calibration_kernel)[0])
            seconds, (simulated, _config) = _timed(workload)
            if simulated != invariant:
                raise AssertionError(
                    f"{name}: simulated result diverged across repeated "
                    f"runs ({invariant} then {simulated}) — host state "
                    f"leaked into the simulation")
            runs.append(seconds)
        calib.append(_timed(calibration_kernel)[0])
        optimized_s = min(runs)
        calib_s = min(calib)
        row = {
            "name": name,
            "config": config,
            #: deterministic integer digest of the run's *simulated*
            #: results — the simulated clock for machine benches, a
            #: report digest for the explorer
            "invariant": invariant,
            "host": {
                "calib_s": round(calib_s, 6),
                "optimized_s": round(optimized_s, 6),
                "units": round(optimized_s / calib_s, 4),
            },
        }
        rows.append(row)
        if verbose:
            print(f"  {name:<20} optimized {optimized_s:7.3f}s   "
                  f"calib {calib_s * 1e3:6.2f}ms   "
                  f"units {row['host']['units']:8.3f}")
    return {
        "schema": SCHEMA,
        "benchmarks": rows,
        "host_meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }


def strip_wallclock(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report with every wall-clock-dependent field removed — the
    part two runs of the same build must reproduce byte-for-byte."""
    stable = {key: value for key, value in report.items()
              if key != "host_meta"}
    stable["benchmarks"] = [
        {key: value for key, value in row.items() if key != "host"}
        for row in report["benchmarks"]
    ]
    return stable


def check_gate(report: Dict[str, Any], baseline: Dict[str, Any],
               ratio: float = CROSS_RUN_RATIO) -> List[str]:
    """Regression gate against a previous report; the failures list is
    empty when every row shared with ``baseline`` has the same
    ``invariant`` and at most ``ratio`` × its calibrated ``units``."""
    prior = {row["name"]: row for row in baseline.get("benchmarks", [])}
    if baseline.get("schema") != SCHEMA or any(
            "units" not in row.get("host", {}) for row in prior.values()):
        return [f"baseline has no calibrated units (schema "
                f"{baseline.get('schema')!r}, need {SCHEMA!r}); "
                f"regenerate it with `python -m repro.harness bench`"]
    failures = []
    for row in report["benchmarks"]:
        before = prior.get(row["name"])
        if before is None:
            continue
        if row["invariant"] != before["invariant"]:
            failures.append(
                f"{row['name']}: invariant {row['invariant']} differs "
                f"from the baseline's {before['invariant']} — a "
                f"simulated result changed")
        now = row["host"]["units"]
        then = before["host"]["units"]
        if now > then * ratio:
            failures.append(
                f"{row['name']}: {now:.3f} units regressed "
                f">{ratio}x vs the baseline's {then:.3f}")
    return failures


def diff_reports(before: Dict[str, Any],
                 after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-benchmark before/after host-time comparison of two reports.

    The CI bench job uploads this as its review artifact: for every
    benchmark present in either report it records both runs' host
    objects and, when both sides carry calibrated units, their ratio,
    so a PR's effect on the hot paths is readable without re-running
    anything.  Benchmarks present on only one side are kept with the
    other side ``None`` (added/removed benchmarks are part of the diff,
    not an error).
    """
    prior = {row["name"]: row for row in before.get("benchmarks", [])}
    current = {row["name"]: row for row in after.get("benchmarks", [])}
    names = list(dict.fromkeys([*prior, *current]))
    rows = []
    for name in names:
        old = prior.get(name)
        new = current.get(name)
        row: Dict[str, Any] = {
            "name": name,
            "before": None if old is None else dict(old["host"]),
            "after": None if new is None else dict(new["host"]),
        }
        if old is not None and new is not None and \
                "units" in old["host"] and "units" in new["host"]:
            row["units_ratio"] = round(
                new["host"]["units"] / old["host"]["units"], 3)
        rows.append(row)
    return {"schema": "repro.perf.diff/v2", "benchmarks": rows}


def write_report(report: Dict[str, Any], path: str) -> None:
    """Persist in the canonical harness report form (single shared
    writer: :mod:`repro.harness.reportio`)."""
    from repro.harness.reportio import write_report as _write
    _write(report, path)
