"""Tests for the repro.perf bench harness and the shared report writer.

The full benchmark suite is slow; these tests run one small benchmark
end to end (pipe ping-pong with a tiny transfer count exercises the
same driver machinery) and unit-test the gate/determinism logic on
synthetic reports.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.harness import reportio
from repro.perf import bench


# ---------------------------------------------------------------------------
# reportio: the one canonical JSON writer
# ---------------------------------------------------------------------------

class TestReportIO:
    def test_canonical_form(self):
        text = reportio.dumps_report({"b": 1, "a": [2, 3]})
        # sorted keys, two-space indent, trailing newline — the exact
        # bytes every golden report in the repo was written with
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "report.json"
        doc = {"schema": "x/v1", "rows": [{"n": 1}]}
        reportio.write_report(doc, str(path))
        assert reportio.load_report(str(path)) == doc
        # parent directories are created on demand
        assert path.parent.is_dir()

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reportio.write_report({"z": 0, "a": 1}, str(a))
        reportio.write_report({"a": 1, "z": 0}, str(b))
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# the bench driver
# ---------------------------------------------------------------------------

def _tiny_pingpong():
    return bench._bench_pipe_pingpong(transfers=8, chunk=512)


class TestRunBenchmarks:
    @pytest.fixture(scope="class")
    def report(self):
        # run one real benchmark through the real driver, scaled down
        original = bench.BENCHMARKS["pipe_pingpong"]
        bench.BENCHMARKS["pipe_pingpong"] = _tiny_pingpong
        try:
            return bench.run_benchmarks(names=["pipe_pingpong"],
                                        verbose=False)
        finally:
            bench.BENCHMARKS["pipe_pingpong"] = original

    def test_schema_and_shape(self, report):
        assert report["schema"] == bench.SCHEMA == "repro.perf/v2"
        (row,) = report["benchmarks"]
        assert row["name"] == "pipe_pingpong"
        assert row["config"] == {"transfers": 8, "chunk": 512}
        assert row["invariant"] > 0
        host = row["host"]
        assert set(host) == {"calib_s", "optimized_s", "units"}
        assert host["calib_s"] > 0 and host["optimized_s"] > 0
        assert host["units"] == pytest.approx(
            host["optimized_s"] / host["calib_s"], rel=1e-3)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            bench.run_benchmarks(names=["nope"])

    def test_determinism_modulo_wallclock(self, report):
        # a second run must agree byte for byte once wall-clock fields
        # are stripped: the invariant digests the simulated results
        original = bench.BENCHMARKS["pipe_pingpong"]
        bench.BENCHMARKS["pipe_pingpong"] = _tiny_pingpong
        try:
            again = bench.run_benchmarks(names=["pipe_pingpong"],
                                         verbose=False)
        finally:
            bench.BENCHMARKS["pipe_pingpong"] = original
        first = reportio.dumps_report(bench.strip_wallclock(report))
        second = reportio.dumps_report(bench.strip_wallclock(again))
        assert first == second

    def test_strip_wallclock_drops_only_host_fields(self, report):
        stable = bench.strip_wallclock(report)
        assert "host_meta" not in stable
        assert all("host" not in row for row in stable["benchmarks"])
        assert [row["name"] for row in stable["benchmarks"]] == \
            [row["name"] for row in report["benchmarks"]]
        # json-serializable without help
        json.dumps(stable)

    def test_divergence_across_repeats_is_fatal(self, monkeypatch):
        # a "benchmark" whose simulated result leaks host state from
        # one run into the next must crash the driver, not report
        calls = []

        def _leaky():
            calls.append(None)
            return len(calls), {}

        monkeypatch.setitem(bench.BENCHMARKS, "diverge", _leaky)
        with pytest.raises(AssertionError, match="diverged"):
            bench.run_benchmarks(names=["diverge"], verbose=False)


class TestCalibration:
    def test_kernel_mirrors_the_end_to_end_reference(self):
        # the same fixed work as the end-to-end benchmark's host-speed
        # reference, so both tiers divide out the same host speed
        path = (pathlib.Path(__file__).parent.parent / "perfbench"
                / "hostspeed.py")
        spec = importlib.util.spec_from_file_location("_hostspeed", path)
        hostspeed = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(hostspeed)
        assert bench.calibration_kernel() == hostspeed.reference_kernel()


class TestCheckGate:
    @staticmethod
    def _report(units, invariant=1, name="synthetic",
                schema=bench.SCHEMA, calib_s=0.01):
        return {"schema": schema, "benchmarks": [{
            "name": name, "config": {}, "invariant": invariant,
            "host": {"calib_s": calib_s,
                     "optimized_s": units * calib_s,
                     "units": units},
        }]}

    def test_passes_within_ratio(self):
        baseline = self._report(10.0)
        assert bench.check_gate(self._report(10.0), baseline) == []
        assert bench.check_gate(self._report(14.9), baseline) == []
        assert bench.check_gate(self._report(3.0), baseline) == []

    def test_fails_beyond_ratio(self):
        failures = bench.check_gate(self._report(15.1), self._report(10.0))
        assert len(failures) == 1
        assert "synthetic" in failures[0] and "units" in failures[0]

    def test_custom_ratio(self):
        assert bench.check_gate(self._report(10.5), self._report(10.0),
                                ratio=1.01) != []

    def test_slower_host_does_not_fail(self):
        # twice the seconds on a host twice as slow: same units, pass
        slow = self._report(10.0, calib_s=0.02)
        assert slow["benchmarks"][0]["host"]["optimized_s"] == 0.2
        assert bench.check_gate(slow, self._report(10.0)) == []

    def test_invariant_change_fails(self):
        failures = bench.check_gate(self._report(10.0, invariant=2),
                                    self._report(10.0, invariant=1))
        assert len(failures) == 1
        assert "invariant" in failures[0]

    def test_v1_baseline_without_units_fails(self):
        v1 = {"schema": "repro.perf/v1", "benchmarks": [{
            "name": "synthetic", "config": {}, "invariant": 1,
            "host": {"baseline_s": 1.0, "optimized_s": 0.5,
                     "speedup": 2.0}}]}
        (failure,) = bench.check_gate(self._report(10.0), v1)
        assert "no calibrated units" in failure
        assert "repro.perf/v1" in failure

    def test_unmatched_rows_are_skipped(self):
        assert bench.check_gate(self._report(99.0, name="new"),
                                self._report(1.0, name="old")) == []


class TestDiffReports:
    @staticmethod
    def _report(name, units, calib_s=0.01):
        return {"schema": bench.SCHEMA, "benchmarks": [{
            "name": name, "config": {}, "invariant": 1,
            "host": {"calib_s": calib_s, "optimized_s": units * calib_s,
                     "units": units},
        }]}

    def test_pairs_by_name(self):
        diff = bench.diff_reports(self._report("a", 10.0),
                                  self._report("a", 5.0))
        assert diff["schema"] == "repro.perf.diff/v2"
        (row,) = diff["benchmarks"]
        assert row["name"] == "a"
        assert row["before"]["units"] == 10.0
        assert row["after"]["units"] == 5.0
        assert row["units_ratio"] == 0.5

    def test_added_and_removed_benchmarks_survive(self):
        diff = bench.diff_reports(self._report("old", 1.0),
                                  self._report("new", 1.0))
        rows = {row["name"]: row for row in diff["benchmarks"]}
        assert rows["old"]["after"] is None
        assert rows["new"]["before"] is None
        assert "units_ratio" not in rows["old"]


# ---------------------------------------------------------------------------
# the bench CLI
# ---------------------------------------------------------------------------

class TestBenchCli:
    def test_unknown_only_name_is_a_usage_error(self, capsys):
        from repro.harness.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--only", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        for name in bench.BENCHMARKS:
            assert name in err

    def test_check_against_v1_baseline_fails(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.harness.__main__ import main
        monkeypatch.setitem(bench.BENCHMARKS, "pipe_pingpong",
                            _tiny_pingpong)
        baseline = tmp_path / "v1.json"
        reportio.write_report({"schema": "repro.perf/v1", "benchmarks": [{
            "name": "pipe_pingpong", "config": {}, "invariant": 1,
            "host": {"baseline_s": 1.0, "optimized_s": 0.5,
                     "speedup": 2.0}}]}, str(baseline))
        code = main(["bench", "--only", "pipe_pingpong", "--check",
                     str(baseline), "--json", str(tmp_path / "out.json")])
        assert code == 1
        assert "no calibrated units" in capsys.readouterr().err

    def test_check_against_own_report_passes(self, tmp_path, monkeypatch):
        from repro.harness.__main__ import main
        monkeypatch.setitem(bench.BENCHMARKS, "pipe_pingpong",
                            _tiny_pingpong)
        first = tmp_path / "first.json"
        assert main(["bench", "--only", "pipe_pingpong",
                     "--json", str(first)]) == 0
        baseline = reportio.load_report(str(first))
        # a generous units bound: this gate is about the invariant and
        # the wiring, not this host's noise
        baseline["benchmarks"][0]["host"]["units"] *= 100
        reportio.write_report(baseline, str(first))
        assert main(["bench", "--only", "pipe_pingpong", "--check",
                     str(first), "--json",
                     str(tmp_path / "second.json")]) == 0
