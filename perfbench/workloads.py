"""The three benchmark workloads, their checked units and references.

Each workload calls public entry points of the reproduction's harness
and returns their simulated output, one timed step per call.  The
inputs (``BENCH_*`` below) are cut down from the harness defaults so
that a step takes well under a host second and a run holds many passes:
a step's fastest time in the run then shows the cost of its work rather
than how loaded the host was (README.md).  ``units`` splits the output
into the checked units behind ``failed_frac``: figure tables, the
cluster report, conform matrix cells and explored scenarios.  Every
unit is reduced to a SHA-256 digest of a canonical text, so two passes
(or a traced and an untraced pass) compare unit by unit.

References:

* ``figures`` units must equal the digests in ``reference.json``, and
  the rows of the tables run at their default parameters (table1,
  fig3-fig5 at their sizes, fig8) must each be a row of the committed
  ``benchmarks/results/*.txt`` table, cell for cell.
* ``cluster`` and ``explore`` compare against the digests in
  ``reference.json``, recorded at their harness default seeds (42 and
  7).  Any other seed is checked only for pass-to-pass identity, which
  leaves later claims a held-out seed.

Refresh ``reference.json`` (only when a change sets out to alter the
simulated results) with ``python3 perfbench/workloads.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("figures", "cluster", "explore")

#: harness default seeds; the references are recorded at these
DEFAULT_SEEDS = {"cluster": 42, "explore": 7}

#: ``figures``: Redis image sizes of fig3-fig5, simulated window of the
#: fig6/fig7 event models, fig9's measured share; the CoPA ablation
#: keeps its 10 MiB image
BENCH_DB_SIZES_KIB = (100, 1024)
BENCH_SIM_WINDOW_S = 2.0
BENCH_FIG9_FRACTION = 0.01
#: ``cluster``: requests served by the default 4 x 4 cluster
BENCH_REQUESTS = 100_000
#: ``explore``: every third scenario of the corpus, one conform run
#: each, and the explorer's budget per scenario
BENCH_SCENARIO_STRIDE = 3
BENCH_EXPLORE_BUDGET = 20
#: ``figures`` units whose rows must be rows of the committed tables
ROW_CHECKED = ("table1", "fig3", "fig4", "fig5", "fig8")


def ensure_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (no install needed)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no reproduction sources under "
                         f"{SRC} (run from the repository root)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- figures -----------------------------------------------------------

def _figure_specs(tiny: bool) -> List[Tuple[str, Callable[[], Any],
                                            str, Any]]:
    """(unit, experiment call, committed table file, columns) in the
    order ``python -m repro.harness figures`` runs them."""
    from repro.harness import experiments as ex
    from repro.harness.compat import matrix_rows
    from repro.harness.table1 import table1_rows
    from repro.mem.layout import KiB, MiB

    if tiny:
        sizes: Tuple[int, ...] = (100 * KiB,)
        fig6 = lambda: ex.fig6_faas_throughput(core_counts=(1,),  # noqa
                                              window_s=0.05)
        fig7 = lambda: ex.fig7_nginx_throughput(worker_counts=(1,),  # noqa
                                               window_s=0.05)
        fig8 = lambda: ex.fig8_hello_fork(samples=2)  # noqa: E731
        fig9 = lambda: ex.fig9_unixbench(  # noqa: E731
            spawn_iterations=100, context1_target=1_000,
            measured_fraction=0.1)
        ablation_db = 1 * MiB
    else:
        sizes = tuple(size * KiB for size in BENCH_DB_SIZES_KIB)
        fig6 = lambda: ex.fig6_faas_throughput(  # noqa: E731
            window_s=BENCH_SIM_WINDOW_S)
        fig7 = lambda: ex.fig7_nginx_throughput(  # noqa: E731
            window_s=BENCH_SIM_WINDOW_S)
        fig8 = ex.fig8_hello_fork
        fig9 = lambda: ex.fig9_unixbench(  # noqa: E731
            measured_fraction=BENCH_FIG9_FRACTION)
        ablation_db = 10 * MiB
    table1_columns = ["System", "SAS", "Isolation", "SC", "IPCs", "Seg",
                      "f+e only"]
    return [
        ("table1", table1_rows, "table1.txt", table1_columns),
        ("fig3", lambda: ex.fig3_redis_save(sizes=sizes),
         "fig3_redis_save.txt", None),
        ("fig4", lambda: ex.fig4_redis_fork_latency(sizes=sizes),
         "fig4_redis_fork_latency.txt", None),
        ("fig5", lambda: ex.fig5_redis_memory(sizes=sizes),
         "fig5_redis_memory.txt", None),
        ("fig6", fig6, "fig6_faas_throughput.txt", None),
        ("fig7", fig7, "fig7_nginx_throughput.txt", None),
        ("fig8", fig8, "fig8_hello_fork.txt", None),
        ("fig9", fig9, "fig9_unixbench.txt", None),
        ("ablation", lambda: ex.copa_ablation(db_bytes=ablation_db),
         "copa_ablation.txt", None),
        ("compat", matrix_rows, None, None),
    ]


def _figure_tables(specs, results: Dict[str, Any]) -> Dict[str, str]:
    """Render each experiment's rows the way the committed table does:
    the committed title line, then the aligned rows."""
    from repro.harness.report import format_table

    tables = {}
    for unit, _call, filename, columns in specs:
        rows = results[unit]
        if isinstance(rows, BaseException):
            continue
        title = unit
        if filename is not None and (RESULTS / filename).is_file():
            title = (RESULTS / filename).read_text().split("\n", 1)[0]
        tables[unit] = format_table(rows, columns=columns,
                                    title=title) + "\n"
    return tables


def table_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    """(header, rows) of a rendered table, each a list of its cells."""
    lines = text.rstrip("\n").split("\n")
    rule = next(i for i, line in enumerate(lines)
                if line and set(line) <= {"-", " "})
    split = lambda line: re.split(r"\s{2,}", line.strip())  # noqa: E731
    return split(lines[rule - 1]), [split(line) for line in lines[rule + 1:]]


def rows_in_committed(table: str, filename: str) -> bool:
    """Every row of ``table`` is a row of the committed table, under the
    same header."""
    header, rows = table_rows(table)
    committed_header, committed = table_rows(
        (RESULTS / filename).read_text())
    return header == committed_header and all(row in committed
                                               for row in rows)


# -- the workload interface --------------------------------------------

class Workload:
    """One prepared workload: ``run()`` is the timed call, ``units()``
    its checked units (unit name -> digest, or an exception text for a
    unit that raised).  ``run()`` is a sequence of steps (a figure
    experiment, the cluster run, one conform scenario), and
    ``step_times`` holds each step's wall and CPU seconds."""

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.result: Any = None
        self.step_times: Dict[str, Tuple[float, float]] = {}
        # entry points are looked up on their modules at call time, so
        # that a layer trace installed after set-up wraps them too
        if name == "figures":
            self._specs = _figure_specs(tiny)
        elif name == "cluster":
            from repro.cluster import runner
            self._runner = runner
        else:
            from repro.conform import runner
            from repro.conform.scenarios import corpus
            self._runner = runner
            scenarios = (corpus()[:3] if tiny
                         else corpus()[::BENCH_SCENARIO_STRIDE])
            self._scenarios = [scenario.name for scenario in scenarios]

    # the timed call -----------------------------------------------------

    def _steps(self) -> List[Tuple[str, Callable[[], Any]]]:
        if self.name == "figures":
            return [(unit, call) for unit, call, _file, _cols
                    in self._specs]
        if self.name == "cluster":
            if self.tiny:
                return [("report", lambda: self._runner.run_cluster(
                    seed=self.seed, shards=2, workers=2,
                    requests=20_000))]
            return [("report", lambda: self._runner.run_cluster(
                seed=self.seed, requests=BENCH_REQUESTS))]
        if self.tiny:
            options = dict(cpus=(1, 2), strategies=("full", "copa"),
                           budget=4)
        else:
            options = dict(budget=BENCH_EXPLORE_BUDGET)
        run_conform = self._runner.run_conform
        return [(name, lambda name=name: run_conform(
            seed=self.seed, scenario_names=[name], host=False, **options))
            for name in self._scenarios]

    def run(self, probe: Optional[Callable[[], float]] = None) -> None:
        """Run every step; with ``probe`` (the host-speed kernel), run it
        before each step and after the last, into ``probe_times``."""
        results: Dict[str, Any] = {}
        self.probe_times: List[float] = []
        for step, call in self._steps():
            if probe is not None:
                self.probe_times.append(probe())
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            if self.name == "figures":
                # one raising experiment fails its own unit, not the pass
                try:
                    results[step] = call()
                except Exception as exc:  # counted as a failed unit
                    results[step] = exc
            else:
                results[step] = call()
            self.step_times[step] = (
                (time.perf_counter_ns() - wall0) / 1e9,
                (time.process_time_ns() - cpu0) / 1e9)
        if probe is not None:
            self.probe_times.append(probe())
        if self.name == "figures":
            self.result = results
        elif self.name == "cluster":
            self.result = results["report"]
        else:
            self.result = {"scenarios": {
                name: entry for report in results.values()
                for name, entry in report["scenarios"].items()}}

    # the checked units ----------------------------------------------------

    def units(self) -> Dict[str, str]:
        if self.name == "figures":
            tables = _figure_tables(self._specs, self.result)
            out = {}
            for unit, value in self.result.items():
                if isinstance(value, BaseException):
                    out[unit] = f"raised {type(value).__name__}: {value}"
                else:
                    out[unit] = digest(tables[unit])
            return out
        if self.name == "cluster":
            return {"report": digest(canonical(self.result))}
        out = {}
        for scenario, entry in sorted(self.result["scenarios"].items()):
            for cell, value in sorted(entry["matrix"].items()):
                out[f"{scenario}/{cell}"] = digest(canonical(value))
            out[f"{scenario}/explorer"] = digest(
                canonical(entry["explorer"]))
        return out

    def failed_units(self, units: Dict[str, str]) -> List[str]:
        """Units whose output is wrong on its own terms or differs from
        the reference (committed table or recorded digest)."""
        failed = [unit for unit, value in units.items()
                  if value.startswith("raised ")]
        if self.name == "figures":
            if self.tiny:
                return failed
            tables = _figure_tables(self._specs, self.result)
            reference = _load_reference()["figures"]
            for unit, _call, filename, _columns in self._specs:
                if unit in failed:
                    continue
                ok = units[unit] == reference.get(unit)
                if ok and unit in ROW_CHECKED:
                    ok = rows_in_committed(tables[unit], filename)
                if not ok:
                    failed.append(unit)
            return failed
        if self.name == "cluster":
            report = self.result
            requests = 20_000 if self.tiny else BENCH_REQUESTS
            if (report.get("schema") != "repro.cluster/v1"
                    or report.get("requests") != requests
                    or sum(report["balancer"]["shard_load"]) != requests):
                failed.append("report")
        else:
            for scenario, entry in self.result["scenarios"].items():
                for cell, value in entry["matrix"].items():
                    if value["verdict"] not in ("ok", "reference"):
                        failed.append(f"{scenario}/{cell}")
                if entry["explorer"]["violations"]:
                    failed.append(f"{scenario}/explorer")
        if not self.tiny and self.seed == DEFAULT_SEEDS[self.name]:
            reference = _load_reference()[self.name]["units"]
            failed.extend(unit for unit, value in sorted(units.items())
                          if unit not in failed
                          and reference.get(unit) != value)
            failed.extend(unit for unit in sorted(reference)
                          if unit not in units)
        return failed


def _load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE.read_text())


def record_reference() -> Dict[str, Any]:
    """Run every workload at its reference seed; the digests that
    ``reference.json`` holds."""
    reference: Dict[str, Any] = {}
    figures = Workload("figures", 0)
    figures.run()
    reference["figures"] = figures.units()
    for name in ("cluster", "explore"):
        workload = Workload(name, DEFAULT_SEEDS[name])
        workload.run()
        reference[name] = {"seed": DEFAULT_SEEDS[name],
                           "units": workload.units()}
    reference["cluster"]["requests"] = BENCH_REQUESTS
    reference["explore"]["budget"] = BENCH_EXPLORE_BUDGET
    reference["explore"]["scenario_stride"] = BENCH_SCENARIO_STRIDE
    return reference


if __name__ == "__main__":
    ensure_src()
    REFERENCE.write_text(json.dumps(record_reference(), indent=1,
                                    sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
