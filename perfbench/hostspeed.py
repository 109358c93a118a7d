"""A fixed pure-Python reference kernel that measures how fast the host
runs Python right now.

The benchmark's host runs other tenants' work: its speed swings up to
~2x, in bursts of seconds and in slow periods of minutes, and a whole
run can sit in one.  The reference kernel does the kind of work the
simulator does (dict and int arithmetic, small objects with slots,
lists, a heap) and never changes, so the ratio of a pass's time to the
kernel's time, both taken at their fastest in the same run, is the
program's cost with the host's speed divided out.  ``run.py`` reports
end-to-end times at the speed of a host on which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: the kernel's fastest time on the 2-vCPU x86-64 VM (Python 3.11) that
#: defined the benchmark; end-to-end times are scaled to this speed
REFERENCE_S = 0.0155


class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.links: list = []


def reference_kernel() -> int:
    """About 16 ms of interpreter work; returns a checksum."""
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


def sample() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def calibration_ms(repeats: int = 5) -> float:
    """Median kernel time in ms: shows how fast this runner is now."""
    return statistics.median(sample() for _ in range(repeats)) * 1e3


if __name__ == "__main__":
    samples = sorted(sample() for _ in range(400))
    print(f"fastest {samples[0]:.6f} s, median "
          f"{statistics.median(samples):.6f} s over {len(samples)} runs")
