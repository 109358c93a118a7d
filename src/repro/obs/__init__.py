"""repro.obs — the unified observability layer.

One instrumented stack for everything the reproduction can measure: a
metrics **registry** (monotonic counters, gauges, fixed-log-bucket
histograms), **span**-based profiling that attributes simulated time
hierarchically, and a **JSON exporter** — replacing ad-hoc spelunking
through ``SimClock.buckets`` with one documented contract
(``docs/OBSERVABILITY.md``).  Kernel events (fork, fault, CoW break,
relocation, syscall, exit, ...) are ``trace.<event>`` counters.  The
engine takes the same paths whether or not a run is observed.

Every :class:`~repro.machine.Machine` carries a disabled-by-default
:class:`Observability` as ``machine.obs``; instrumentation points in
``hw``, ``kernel``, ``core`` and the baselines call it unconditionally
at one-attribute-check cost.  Nothing here ever advances the simulated
clock: enabling observability cannot change a simulated result.

Usage::

    from repro import Machine, UForkOS
    machine = Machine()
    machine.obs.enable()
    ... run a workload ...
    machine.obs.registry.counters()["hw.paging.fault.cap_load"]
    print(machine.obs.format_report())       # hierarchical breakdown

    from repro.obs import obs_session
    with obs_session() as session:           # observe a whole experiment
        rows = fig8_hello_fork()
    session.export()                         # merged JSON-ready dict

``python -m repro.harness obs-report`` prints the same breakdown for
the Figure 8 hello-fork workload from the command line.
"""

from repro.obs.export import (
    merge_exports,
    to_json,
    validate_export,
    write_export,
)
from repro.obs.facade import (
    NULL_OBS,
    SCHEMA,
    Observability,
    ObsSession,
    obs_session,
    session_adopt,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_metric_name,
)
from repro.obs.spans import SpanNode, SpanTree, format_span_tree

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS_NS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Observability",
    "ObsSession",
    "SCHEMA",
    "SpanNode",
    "SpanTree",
    "check_metric_name",
    "format_span_tree",
    "merge_exports",
    "obs_session",
    "session_adopt",
    "to_json",
    "validate_export",
    "write_export",
]
