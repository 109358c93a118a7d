"""The per-machine observability facade and the global session.

An :class:`Observability` instance hangs off every
:class:`~repro.machine.Machine` as ``machine.obs``.  It is **disabled by
default**: instrumentation points throughout the simulator call
``machine.obs.count/gauge_set/observe/span`` unconditionally, and while
disabled each call is a single attribute check that records nothing.
Nothing in this module ever advances the simulated clock, and no engine
path branches on whether it is enabled, so enabling observability
cannot change any simulated result.

When enabled, the facade installs itself as the clock's observer: every
``clock.advance(ns, bucket)`` is mirrored as a ``time.<bucket>`` counter
and attributed to the innermost open span, which is how the span tree's
total stays equal to the observed clock time.

Usage::

    machine = Machine()
    machine.obs.enable()
    ... run a workload ...
    machine.obs.registry.counters()["time.page_copy"]
    print(machine.obs.format_report())
    machine.obs.export()            # the JSON schema in docs/OBSERVABILITY.md

or, to observe every machine an experiment creates::

    with obs_session() as session:
        rows = fig8_hello_fork()
    session.export()                # merged across all machines
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanNode, SpanTree, format_span_tree

SCHEMA = "repro.obs/v1"


class _NullSpan:
    """The shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: opens a tree node on enter, records its simulated
    duration into the ``span.<path>`` histogram on exit."""

    __slots__ = ("_obs", "_name", "_node", "_start_ns")

    def __init__(self, obs: "Observability", name: str) -> None:
        self._obs = obs
        self._name = name

    def __enter__(self) -> "_Span":
        self._node = self._obs.span_tree.open(self._name)
        self._start_ns = self._obs.clock.now_ns
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = self._obs.clock.now_ns - self._start_ns
        self._obs.span_tree.close(self._node)
        self._obs.registry.histogram(f"span.{self._node.path}") \
            .observe(elapsed)


class Observability:
    """Metrics registry + span profiler for one machine.

    All recording methods are no-ops while ``enabled`` is False, and
    none of them ever charges simulated time.
    """

    def __init__(self, clock: Optional[Any] = None,
                 enabled: bool = False) -> None:
        self.clock = clock
        self.registry = MetricsRegistry()
        self.span_tree = SpanTree()
        self.enabled = False
        #: clock reading when observation started (export invariant:
        #: ``span tree total == clock_ns - enabled_at_ns``)
        self.enabled_at_ns = 0
        if enabled:
            self.enable()

    # -- switching -------------------------------------------------------

    def enable(self) -> "Observability":
        """Start observing (idempotent); hooks the clock observer."""
        if self.clock is None:
            raise RuntimeError("cannot enable an Observability built "
                               "without a clock")
        if not self.enabled:
            self.enabled = True
            self.enabled_at_ns = self.clock.now_ns
            self.clock.observer = self._on_advance
        return self

    def disable(self) -> None:
        """Stop observing; recorded data stays readable."""
        if self.enabled:
            self.enabled = False
            self.clock.observer = None

    # -- recording (all no-ops while disabled) ---------------------------

    def _on_advance(self, ns: int, bucket: Optional[str]) -> None:
        self.span_tree.attribute(ns)
        if bucket is not None:
            self.registry.counter(f"time.{bucket}").inc(ns)

    def span(self, name: str):
        """Open a profiling span; nanoseconds advanced inside are
        attributed to it (see :mod:`repro.obs.spans`)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the counter ``name`` by ``n``."""
        if self.enabled:
            self.registry.counter(name).inc(n)

    def gauge_set(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        if self.enabled:
            self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        if self.enabled:
            self.registry.histogram(name).observe(value)

    # -- reporting -------------------------------------------------------

    def export(self) -> Dict:
        """The machine's full observability state as a JSON-ready dict
        (schema documented in docs/OBSERVABILITY.md)."""
        clock_ns = self.clock.now_ns if self.clock is not None else 0
        return {
            "schema": SCHEMA,
            "clock_ns": clock_ns,
            "observed_ns": clock_ns - self.enabled_at_ns,
            "metrics": self.registry.export(),
            "spans": self.span_tree.root.export(),
        }

    def format_report(self) -> str:
        """Human-readable span breakdown plus counter/gauge listing."""
        lines = [format_span_tree(self.span_tree.root)]
        counters = self.registry.counters()
        if counters:
            lines.append("")
            width = max(len(name) for name in counters)
            lines.extend(f"{name:<{width}}  {value:,}"
                         for name, value in counters.items())
        gauges = self.registry.gauges()
        if gauges:
            lines.append("")
            width = max(len(name) for name in gauges)
            lines.extend(f"{name:<{width}}  {value:,}"
                         for name, value in gauges.items())
        return "\n".join(lines)

    def reset(self) -> None:
        """Discard all recorded data (observation state unchanged)."""
        self.registry.reset()
        self.span_tree.reset()
        if self.clock is not None:
            self.enabled_at_ns = self.clock.now_ns


#: the permanently disabled instance used where no machine exists yet
NULL_OBS = Observability(clock=None, enabled=False)


# ---------------------------------------------------------------------------
# Global sessions: observe every Machine created inside a with-block
# ---------------------------------------------------------------------------

_ACTIVE_SESSION: Optional["ObsSession"] = None


class ObsSession:
    """Collects (and auto-enables) the machines created while active.

    Experiments boot one hermetic machine per measured configuration;
    a session lets the harness observe all of them and export one
    merged per-figure sidecar (see :func:`merge_exports`).
    """

    def __init__(self) -> None:
        self.observabilities: List[Observability] = []

    def adopt(self, obs: Observability) -> None:
        obs.enable()
        self.observabilities.append(obs)

    def export(self) -> Dict:
        from repro.obs.export import merge_exports
        return merge_exports([obs.export() for obs in self.observabilities])


@contextmanager
def obs_session() -> Iterator[ObsSession]:
    """Observe every machine created inside the block."""
    global _ACTIVE_SESSION
    previous = _ACTIVE_SESSION
    session = ObsSession()
    _ACTIVE_SESSION = session
    try:
        yield session
    finally:
        _ACTIVE_SESSION = previous


def session_adopt(obs: Observability) -> None:
    """Machine construction hook: enlist in the active session, if any."""
    if _ACTIVE_SESSION is not None:
        _ACTIVE_SESSION.adopt(obs)
