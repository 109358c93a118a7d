"""Host-time benchmark of the μFork reproduction (see README.md).

Usage::

    python3 perfbench/run.py --workload {figures,cluster,explore}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One discarded warm-up pass (a tiny
configuration of the workload: bytecode, page cache) comes first.
``--trace 0`` then runs timed passes of a couple of seconds each, one
fresh interpreter at a time, until the next pass would take the
passes' total past ``--seconds`` (at least two, so every seed gets a
pass-to-pass identity check).  A pass is a sequence of steps (a
figure experiment, the cluster run, one conform scenario) with the
host-speed kernel (hostspeed.py) run before each.  ``wall_s`` and
``cpu_s`` add up each step's fastest time over the run's passes;
``setup_s`` is the median set-up (once per pass, topped up with
set-up-only interpreters); all three are scaled by the reference
kernel's time over its fastest in the run.  ``peak_rss_mb`` is the
median over the passes.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Every pass's simulated output
is checked (workloads.py); the last stdout line is the JSON result and
the exit code is non-zero when any checked unit failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import hostspeed
from workloads import ROOT, SRC, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent

#: set-up samples per run at least (each pass gives one; topped up
#: with set-up-only interpreters after the last pass)
SETUP_SAMPLES_MIN = 12
MIN_PASSES = 2
#: every run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}
#: end-to-end times scaled to the reference host speed (hostspeed.py)
SPEED_SCALED = ("wall_s", "cpu_s", "setup_s")
#: wall_s and cpu_s add up each step's fastest time over the passes,
#: index 0 (wall) or 1 (CPU) of a step's times
FASTEST_STEPS = {"wall_s": 0, "cpu_s": 1}


class PassFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, size: str,
              deadline: float) -> Dict[str, Any]:
    """One pass in a fresh interpreter; adds ``setup_s``."""
    env = dict(os.environ)
    env.pop("REPRO_PERF", None)   # the vectorized engine, always
    env.pop("PYTHONPATH", None)   # child.py puts src/ on the path
    # every pass hashes strings alike, so passes repeat the same work
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise PassFailed("run deadline reached")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             mode, size],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise PassFailed(f"{mode} pass exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def host_meta() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "calibration_ms": hostspeed.calibration_ms()}


def spread(values: List[float]) -> str:
    text = "samples " + " ".join(f"{v:.4g}" for v in values)
    if len(values) < 2:
        return text
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}; {text}"


def check_passes(passes: List[Dict[str, Any]]) -> None:
    """Pass-to-pass identity: a unit whose digest differs from the first
    pass's fails in that pass."""
    first = passes[0]["units"]
    for later in passes[1:]:
        for unit, value in later["units"].items():
            if first.get(unit) != value and unit not in later["failed"]:
                later["failed"].append(unit)


def timed_run(args, deadline: float) -> Dict[str, Any]:
    setups: List[float] = []
    passes: List[Dict[str, Any]] = []
    elapsed = 0.0
    while True:
        started = time.monotonic()
        passes.append(run_child(args.workload, args.seed, "pass", "bench",
                                deadline))
        elapsed += time.monotonic() - started
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes)
                > args.seconds):
            break
    check_passes(passes)
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES_MIN:
        setups.append(run_child(args.workload, args.seed, "setup", "bench",
                                deadline)["setup_s"])
    samples = {"wall_s": [p["wall_s"] for p in passes],
               "cpu_s": [p["cpu_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               "setup_s": setups}
    probe_s = min(p["probe_s"] for p in passes)
    speed = hostspeed.REFERENCE_S / probe_s
    print(f"host speed: reference kernel fastest {probe_s * 1e3:.4g} ms "
          f"over the passes; times below are scaled by "
          f"{hostspeed.REFERENCE_S * 1e3:g} / {probe_s * 1e3:.4g} = "
          f"{speed:.4f}")
    metrics = {}
    for name, values in samples.items():
        if name in FASTEST_STEPS:
            index = FASTEST_STEPS[name]
            value = sum(min(p["steps"][step][index] for p in passes)
                        for step in passes[0]["steps"])
            how = "sum of each step's fastest"
        else:
            value = statistics.median(values)
            how = "median"
        if name in SPEED_SCALED:
            value *= speed
            how += ", scaled"
        metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        print(f"{name:<12} {value:.6g} {END_TO_END_UNITS[name]} ({how}; "
              f"unscaled per pass: median {statistics.median(values):.6g}, "
              f"{spread(values)})")
    return {"passes": passes, "metrics": metrics}


def traced_run(args, deadline: float) -> Dict[str, Any]:
    import layers

    untraced = run_child(args.workload, args.seed, "pass", "bench",
                         deadline)
    traced = run_child(args.workload, args.seed, "traced", "bench",
                       deadline)
    passes = [untraced, traced]
    check_passes(passes)
    guards = traced["guard_failures"]
    if guards:
        traced["failed"].append("engine_guards")
        for problem in sorted(set(guards)):
            print(f"engine guard failed: {problem}")
    info = traced["trace"]
    metrics = layers.layer_metrics(info["stats"], info["counters"],
                                   info["attributed_ns"], info["wall_ns"],
                                   untraced["wall_s"])
    wall_ns = info["wall_ns"]
    print(f"untraced wall {untraced['wall_s']:.4f} s, traced wall "
          f"{wall_ns / 1e9:.4f} s")
    print(f"  {'span':<20} {'self_s':>9} {'incl_s':>9} {'incl%':>6} "
          f"{'calls':>9}  parents (calls)")
    for span, (self_ns, incl_ns, calls) in sorted(info["stats"].items()):
        if not calls:
            continue
        parents = ", ".join(f"{p} {n}" for p, n in
                            sorted(info["parents"].get(span, {}).items()))
        print(f"  {span:<20} {self_ns / 1e9:>9.3f} {incl_ns / 1e9:>9.3f} "
              f"{100 * incl_ns / wall_ns:>6.1f} {calls:>9}  {parents}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    return {"passes": passes,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "extra_attempted": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no reproduction sources under {SRC}; "
              f"run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    meta = host_meta()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host_meta " + json.dumps(meta, sort_keys=True))
    try:
        run_child(args.workload, args.seed, "pass", "tiny", deadline)
        if args.trace:
            run = traced_run(args, deadline)
        else:
            run = timed_run(args, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = (sum(len(p["units"]) for p in run["passes"])
                 + run.get("extra_attempted", 0))
    failed = sum(len(p["failed"]) for p in run["passes"])
    for index, p in enumerate(run["passes"]):
        for unit in p["failed"]:
            print(f"FAILED unit {unit} (pass {index})")
    metrics = run["metrics"]
    if args.trace:
        metrics["failed_frac"] = {"value": failed / attempted,
                                  "unit": "ratio"}
    print(f"units: {attempted} checked, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
