"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/child.py WORKLOAD SEED MODE SIZE`` where
MODE is ``pass`` (timed, untraced, with the host-speed kernel run
before every step), ``traced`` (timed under the layer trace) or
``setup`` (stop at the first workload call) and SIZE is ``bench``
(the benchmark's pass) or ``tiny``.  The last stdout line is a JSON
object; ``ready`` is the monotonic clock reading taken just before the
workload call, so the parent turns it into set-up time.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    name, seed, mode, size = argv[0], int(argv[1]), argv[2], argv[3]
    import workloads

    workloads.ensure_src()
    workload = workloads.Workload(name, seed, tiny=(size == "tiny"))
    trace = None
    if mode == "traced":
        import layers
        trace = layers.LayerTrace()
        trace.install()
    ready = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    probe = None
    if mode == "pass":
        import hostspeed
        probe = hostspeed.sample
    start = time.perf_counter_ns()
    workload.run(probe)
    wall_ns = time.perf_counter_ns() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace is not None:
        trace.uninstall()

    units = workload.units()
    out = {
        "ready": ready,
        "wall_s": sum(wall for wall, _cpu in workload.step_times.values()),
        "cpu_s": sum(cpu for _wall, cpu in workload.step_times.values()),
        "peak_rss_mb": peak_rss_mb,
        "steps": workload.step_times,
        "probe_s": min(workload.probe_times, default=None),
        "units": units,
        "failed": workload.failed_units(units),
    }
    if trace is not None:
        out["guard_failures"] = trace.guard_failures + layers.engine_guards()
        out["trace"] = trace.summary(wall_ns)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
