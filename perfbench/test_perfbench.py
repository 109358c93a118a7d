"""Tests of the benchmark itself: span arithmetic, the engine guards,
the reference checks and the command's refusal to run without sources.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

workloads.ensure_src()


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# -- span arithmetic -----------------------------------------------------

def test_self_times_telescope_through_nested_spans():
    trace = layers.LayerTrace()
    inner = trace.wrap("inner", lambda: _busy(0.01))

    def mid_body():
        _busy(0.01)
        inner()
        inner()

    mid = trace.wrap("mid", mid_body)
    outer = trace.wrap("outer", lambda: (_busy(0.01), mid()))
    outer()
    stats = trace.stats
    for span in ("outer", "mid", "inner"):
        assert stats[span][0] > 0
    # self = inclusive - direct children's inclusive
    assert stats["outer"][0] == stats["outer"][1] - stats["mid"][1]
    assert stats["mid"][0] == stats["mid"][1] - stats["inner"][1]
    assert stats["inner"][0] == stats["inner"][1]
    assert sum(acc[0] for acc in stats.values()) == trace.attributed_ns()
    assert trace.attributed_ns() == stats["outer"][1]
    assert trace.parents == {"outer": {layers.ROOT_SPAN: 1},
                             "mid": {"outer": 1}, "inner": {"mid": 2}}


def test_generator_spans_exclude_the_consumer():
    trace = layers.LayerTrace()

    def produce():
        for item in range(3):
            _busy(0.002)
            yield item

    produce = trace.wrap_generator("gen", produce, "items")
    consume = trace.wrap("consumer", lambda: [_busy(0.01) or item
                                              for item in produce()])
    assert consume() == [0, 1, 2]
    gen_self, gen_incl, gen_calls = trace.stats["gen"]
    assert gen_calls == 1 and trace.counters["items"] == 3
    assert gen_self == gen_incl < trace.stats["consumer"][0]
    assert (trace.stats["consumer"][0] + gen_incl
            == trace.stats["consumer"][1])


def test_install_restores_every_patched_name():
    from repro.core import ufork
    from repro.hw.phys import PhysicalMemory

    before = (ufork.handle_fork_write_run, PhysicalMemory.copy_frames,
              ufork.UForkOS.fork)
    trace = layers.LayerTrace()
    trace.install()
    try:
        assert ufork.handle_fork_write_run is not before[0]
        assert PhysicalMemory.copy_frames is not before[1]
        assert trace.guard_failures == []
    finally:
        trace.uninstall()
    assert (ufork.handle_fork_write_run, PhysicalMemory.copy_frames,
            ufork.UForkOS.fork) == before


def test_guards_catch_a_wrapped_decref(monkeypatch):
    from repro.hw.phys import PhysicalMemory

    original = PhysicalMemory.decref
    monkeypatch.setattr(PhysicalMemory, "decref",
                        lambda self, number: original(self, number))
    assert any("decref" in problem for problem in layers.engine_guards())


# -- per workload, on a tiny configuration --------------------------------

def _traced_tiny(name: str, seed: int = 3):
    workload = workloads.Workload(name, seed, tiny=True)
    trace = layers.LayerTrace()
    trace.install()
    try:
        start = time.perf_counter_ns()
        workload.run()
        wall_ns = time.perf_counter_ns() - start
    finally:
        trace.uninstall()
    return workload, trace, wall_ns


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_trace_adds_up_and_keeps_results(name):
    workload, trace, wall_ns = _traced_tiny(name)
    units = workload.units()
    assert workload.failed_units(units) == []
    assert trace.guard_failures == []

    # the same output untraced (and so the same engine decisions)
    plain = workloads.Workload(name, 3, tiny=True)
    plain.run()
    assert plain.units() == units

    summary = trace.summary(wall_ns)
    metrics = layers.layer_metrics(
        summary["stats"], summary["counters"], summary["attributed_ns"],
        wall_ns, wall_ns / 1e9)
    self_total = sum(acc[0] for acc in trace.stats.values())
    assert self_total == trace.attributed_ns()
    unattributed_ns = wall_ns - self_total
    assert unattributed_ns >= 0
    assert metrics["unattributed_s"][0] == pytest.approx(
        unattributed_ns / 1e9)
    seconds = [value for key, (value, unit) in metrics.items()
               if unit == "s" and key != "unattributed_s"]
    assert sum(seconds) + metrics["unattributed_s"][0] == pytest.approx(
        wall_ns / 1e9, rel=1e-9)

    parents = trace.parents
    if name == "figures":
        # the bulk fork path: copies and relocation inside fork
        assert parents["core.relocate"].get("core.fork", 0) > 0
        assert parents["hw.copy_frames"].get("core.fork", 0) > 0
        assert parents["core.fork"].get("kernel.syscall", 0) > 0
        assert metrics["sim.completions"][0] > 0
    else:
        assert metrics["sim.busy_s"][0] == 0
        assert metrics["sim.calls"][0] == 0
    if name == "cluster":
        assert metrics["cluster.records"][0] == 20_000
        assert parents["cluster.trace"] == {"cluster.loop": 1}
        assert metrics["cluster.batches"][0] == workload.result[
            "batches"]["count"]
    if name == "explore":
        assert parents["sec.audit"] == {
            "conform.invariants": metrics["conform.invariant_checks"][0]}
        assert metrics["conform.schedules"][0] == sum(
            entry["explorer"]["schedules"]
            for entry in workload.result["scenarios"].values())


def test_steps_are_timed_between_probes():
    import hostspeed

    calls = []

    def probe():
        calls.append(time.perf_counter())
        return hostspeed.sample()

    workload = workloads.Workload("explore", 3, tiny=True)
    workload.run(probe)
    steps = workload._scenarios
    assert list(workload.step_times) == steps
    assert len(workload.probe_times) == len(calls) == len(steps) + 1
    assert all(wall > 0 and cpu > 0
               for wall, cpu in workload.step_times.values())
    assert sorted(workload.result["scenarios"]) == sorted(steps)
    assert workload.failed_units(workload.units()) == []


# -- reference checks ----------------------------------------------------

def test_explore_check_fails_a_diverging_cell_and_scenario():
    workload = workloads.Workload("explore", 5, tiny=True)
    workload.run()
    assert workload.failed_units(workload.units()) == []
    scenario, entry = sorted(workload.result["scenarios"].items())[0]
    cell = sorted(entry["matrix"])[-1]
    entry["matrix"][cell]["verdict"] = "diff"
    entry["explorer"]["violations"].append({"kind": "leak"})
    assert sorted(workload.failed_units(workload.units())) == sorted([
        f"{scenario}/{cell}", f"{scenario}/explorer"])


def test_cluster_check_fails_a_short_report():
    workload = workloads.Workload("cluster", 5, tiny=True)
    workload.run()
    assert workload.failed_units(workload.units()) == []
    workload.result["requests"] -= 1
    assert workload.failed_units(workload.units()) == ["report"]


def test_every_figure_unit_has_a_reference():
    specs = {unit: filename
             for unit, _call, filename, _columns
             in workloads._figure_specs(tiny=False)}
    reference = json.loads(workloads.REFERENCE.read_text())["figures"]
    assert sorted(reference) == sorted(specs)
    for unit in workloads.ROW_CHECKED:
        assert (workloads.RESULTS / specs[unit]).is_file()


def test_row_check_needs_every_row_in_the_committed_table():
    from repro.harness.report import format_table

    committed = (workloads.RESULTS / "fig8_hello_fork.txt").read_text()
    header, rows = workloads.table_rows(committed)
    assert len(rows) == 3 and header[0] == "system"
    as_dicts = [dict(zip(header, row)) for row in rows]
    subset = format_table(as_dicts[1:], columns=header, title="t")
    assert workloads.rows_in_committed(subset, "fig8_hello_fork.txt")
    as_dicts[2][header[1]] = "0.1"
    changed = format_table(as_dicts, columns=header, title="t")
    assert not workloads.rows_in_committed(changed,
                                           "fig8_hello_fork.txt")


# -- the command ---------------------------------------------------------

def test_emitted_metrics_are_the_declared_ones():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    emitted = {name: unit for name, (_value, unit)
               in layers.layer_metrics({}, {}, 0, 1, 1.0).items()}
    emitted["failed_frac"] = "ratio"
    assert emitted == per_layer
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"]
                                    for m in declared["end_to_end"]}


def test_command_refuses_to_run_without_sources(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cluster",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
