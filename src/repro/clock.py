"""Deterministic simulated time.

Every latency the reproduction reports is *simulated* time, accumulated on
a :class:`SimClock` as the machine model charges costs for primitive
operations (traps, page copies, tag scans, ...).  Nothing in the core
library reads the wall clock, which keeps all experiments deterministic
and independent of host speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class SimClock:
    """A monotonically increasing nanosecond counter with attribution.

    ``advance`` optionally attributes the charged time to a named bucket
    (e.g. ``"fork"``, ``"page_copy"``) so experiments can break latency
    down the way the paper's figures do.

    ``observer`` is the hook the observability layer
    (:mod:`repro.obs`) installs while enabled: every advance is
    mirrored as ``observer(ns, bucket)``.  A ``None`` observer costs
    one attribute check per advance.  Batched engine paths that bump
    ``_now_ns`` directly call the observer once with their total.
    """

    def __init__(self) -> None:
        self._now_ns = 0
        self.buckets: Dict[str, int] = {}
        #: optional ``(ns, bucket)`` callback (see :mod:`repro.obs`)
        self.observer = None

    # -- reading ------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self._now_ns

    @property
    def now_us(self) -> float:
        return self._now_ns / NS_PER_US

    @property
    def now_ms(self) -> float:
        return self._now_ns / NS_PER_MS

    @property
    def now_s(self) -> float:
        return self._now_ns / NS_PER_S

    # -- advancing ----------------------------------------------------

    def advance(self, ns: float, bucket: str | None = None) -> None:
        """Advance simulated time by ``ns`` nanoseconds (>= 0)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        ns_int = int(round(ns))
        self._now_ns += ns_int
        if bucket is not None:
            self.buckets[bucket] = self.buckets.get(bucket, 0) + ns_int
        if self.observer is not None:
            self.observer(ns_int, bucket)

    def advance_to(self, ns: int) -> None:
        """Move the clock forward to an absolute time (no-op if in the past)."""
        if ns > self._now_ns:
            delta = ns - self._now_ns
            self._now_ns = ns
            if self.observer is not None:
                self.observer(delta, None)

    # -- measurement helpers -------------------------------------------

    @contextmanager
    def measure(self) -> Iterator["Stopwatch"]:
        """Measure simulated time elapsed inside a ``with`` block."""
        watch = Stopwatch(self)
        watch.start()
        try:
            yield watch
        finally:
            watch.stop()

    def bucket_ns(self, name: str) -> int:
        return self.buckets.get(name, 0)

    def reset_buckets(self) -> None:
        self.buckets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now_ns}ns)"


class Stopwatch:
    """Captures an interval of simulated time on a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: int | None = None
        self._elapsed = 0

    def start(self) -> None:
        self._start = self._clock.now_ns

    def stop(self) -> None:
        if self._start is not None:
            self._elapsed += self._clock.now_ns - self._start
            self._start = None

    @property
    def elapsed_ns(self) -> int:
        if self._start is not None:
            return self._elapsed + (self._clock.now_ns - self._start)
        return self._elapsed

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_ns / NS_PER_US

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / NS_PER_MS


class EventCounters:
    """Named event counters (page copies, faults, syscalls, ...).

    Used throughout the machine and kernels for the memory/behaviour
    metrics that the paper reports alongside latency.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventCounters({self._counts!r})"
