"""Absolute-memory-reference relocation (paper §4.2).

When μFork copies a page from the parent's area into the child's, the
copy is scanned in 16-byte (capability-granule) steps.  Granules whose
validity tag is set hold capabilities; any capability that points into
the parent's region — or whose bounds would let the child reach outside
its own region — is rebased by ``child_base - parent_base`` and its
bounds clamped to the child's region.  Sealed sentry capabilities (the
trapless syscall gates) are the one sanctioned cross-region reference
and are preserved.  Anything else pointing outside both regions is
invalidated, which is how μFork guarantees capabilities never leak
across μprocesses (§4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.cheri.capability import Capability
from repro.cheri.codec import CAP_SIZE
from repro.cheri.regfile import RegisterFile
from repro.hw.phys import Frame

#: the per-machine raw-relocation memo is dropped wholesale at this size
_RELOC_MEMO_CAP = 65536

#: the per-machine whole-page content memo (fork's fused copy+relocate
#: path) is dropped wholesale at this size
_PAGE_MEMO_CAP = 4096

#: memo-miss sentinel (``None`` is a legitimate cached value)
_MISSING = object()


@dataclass(frozen=True)
class RegionPair:
    """Source (parent) and destination (child) region spans."""

    parent_base: int
    parent_top: int
    child_base: int
    child_top: int

    @property
    def delta(self) -> int:
        return self.child_base - self.parent_base

    def in_parent(self, addr: int) -> bool:
        return self.parent_base <= addr < self.parent_top

    def in_child(self, addr: int) -> bool:
        return self.child_base <= addr < self.child_top


def relocate_cap(cap: Capability, regions: RegionPair) -> Capability:
    """Return the relocated form of one capability (or ``cap`` itself
    when no change is needed).

    Rules, in order:

    1. invalid capabilities are left alone (no authority to leak);
    2. sealed sentries (syscall gates) are preserved — they are the
       sanctioned kernel entry point and cannot be modified anyway;
    3. capabilities already confined to the child's region are fine;
    4. capabilities pointing into the parent's region are rebased by
       the region delta and clamped to the child's region;
    5. anything else would leak authority outside the μprocess and is
       invalidated.
    """
    if not cap.valid:
        return cap
    if cap.is_sentry:
        return cap
    if regions.in_child(cap.base) and cap.top <= regions.child_top:
        return cap
    if regions.in_parent(cap.base) or regions.in_parent(cap.cursor):
        moved = cap.rebased(regions.delta)
        if moved.base < regions.child_base or moved.top > regions.child_top:
            moved = moved.clamped_to(regions.child_base, regions.child_top)
        return moved
    return cap.invalidated()


def relocate_frame(machine: Any, frame: Frame, regions: RegionPair) -> int:
    """Scan one (already copied) frame and relocate its capabilities.

    Charges the tag scan plus one relocation cost per rewritten
    capability; returns the number of capabilities relocated.
    """
    config = machine.config
    machine.charge(
        machine.costs.page_scan_ns(config.page_size, config.granule),
        "reloc_scan",
    )
    obs = machine.obs
    if obs.enabled:
        obs.count("core.relocate.frames_scanned")
        obs.count("hw.phys.tag_granules_scanned",
                  config.page_size // config.granule)
    relocated = _relocate_frame_memoised(machine, frame, regions)
    if relocated:
        machine.counters.add("caps_relocated", relocated)
        obs.count("core.relocate.caps_relocated", relocated)
        obs.count("trace.relocate_frame")
    return relocated


def relocate_frames(machine: Any, frames: List[Frame],
                    regions: RegionPair) -> int:
    """Relocate a batch of already-copied frames (fork's bulk path).

    Simulated-identical to calling :func:`relocate_frame` once per
    frame: the per-frame page-scan charge and sweep counts are batched
    into single sum-equal updates (the clock rounds every charge, so
    the batch charges the per-frame rounded cost times the count, and
    counters/metrics record pure sums).
    """
    count = len(frames)
    if count == 0:
        return 0
    config = machine.config
    scan_ns = machine.costs.page_scan_ns(config.page_size, config.granule)
    machine.charge(int(round(scan_ns)) * count, "reloc_scan")
    obs = machine.obs
    obs_enabled = obs.enabled
    if obs_enabled:
        obs.count("core.relocate.frames_scanned", count)
        obs.count("hw.phys.tag_granules_scanned",
                  (config.page_size // config.granule) * count)
    counters = machine.counters
    total = 0
    for frame in frames:
        relocated = _relocate_frame_memoised(machine, frame, regions)
        if relocated:
            counters.add("caps_relocated", relocated)
            if obs_enabled:
                obs.count("core.relocate.caps_relocated", relocated)
                obs.count("trace.relocate_frame")
            total += relocated
    return total


def relocate_copied_frames(machine: Any, phys: Any, srcs: List[int],
                           dsts: List[int], regions: RegionPair) -> int:
    """Relocate fork-copied frames through a whole-page content memo.

    ``dsts[i]`` holds a fresh tag-preserving copy of ``srcs[i]``.
    Simulated-identical to :func:`relocate_frames` over the destination
    frames; the extra lever is a memo keyed on the *source* frame's
    ``(number, version)`` plus the region pair.  A source page that has
    not been written since the last fork over the same region pair
    relocates to exactly the same destination bytes, so the memo replays
    the post-relocation page content (data + tags) instead of rescanning
    granules — the common case for a fork server whose image is stable
    across forks.

    Charge/counter parity: the per-frame scan charge and sweep counts
    are batched exactly as in :func:`relocate_frames`; memo-hit frames
    batch their per-capability rounded ``cap_relocate_ns`` charges into
    one sum-equal advance.
    """
    count = len(dsts)
    if count == 0:
        return 0
    config = machine.config
    scan_ns = machine.costs.page_scan_ns(config.page_size, config.granule)
    per_cap = int(round(machine.costs.cap_relocate_ns))
    memo = getattr(machine, "_page_memo", None)
    if memo is None:
        memo = machine._page_memo = {}
    region_key = (regions.parent_base, regions.parent_top,
                  regions.child_base, regions.child_top)
    machine.charge(int(round(scan_ns)) * count, "reloc_scan")
    obs = machine.obs
    obs_enabled = obs.enabled
    if obs_enabled:
        obs.count("core.relocate.frames_scanned", count)
        obs.count("hw.phys.tag_granules_scanned",
                  (config.page_size // config.granule) * count)
    counters = machine.counters
    frame_of = phys.frame
    total = 0
    caps_batched = 0
    for src, dst in zip(srcs, dsts):
        src_frame = frame_of(src)
        dst_frame = frame_of(dst)
        key = (region_key, src, src_frame.version)
        entry = memo.get(key, _MISSING)
        if entry is _MISSING:
            relocated = _relocate_frame_memoised(machine, dst_frame, regions)
            if len(memo) >= _PAGE_MEMO_CAP:
                memo.clear()
            if relocated:
                memo[key] = (*dst_frame.snapshot_content(), relocated)
            else:
                memo[key] = 0
        elif entry != 0:
            data_bytes, tags_bytes, relocated = entry
            dst_frame.restore_content(data_bytes, tags_bytes)
            caps_batched += relocated
        else:
            relocated = 0
        if relocated:
            counters.add("caps_relocated", relocated)
            if obs_enabled:
                obs.count("core.relocate.caps_relocated", relocated)
                obs.count("trace.relocate_frame")
            total += relocated
    if caps_batched:
        machine.charge(per_cap * caps_batched, "reloc_cap")
    return total


def _relocate_frame_memoised(machine: Any, frame: Frame,
                             regions: RegionPair) -> int:
    """The relocation scan, memoising relocation at the raw-bytes
    level so repeated forks over a stable region pair skip the
    decode → relocate → encode chain per capability.

    Soundness: a granule's 16 raw bytes plus the region pair fully
    determine the relocation outcome — decode is a pure lookup in the
    codec's append-only intern table, :func:`relocate_cap` is a pure
    function, and encode of an interned capability is stable.  The one
    unstable case (raw bytes naming a not-yet-interned meta id, which
    decodes invalid today but could decode valid after more interning)
    is never memoised; it cannot occur for *tagged* granules anyway,
    since only a legitimate ``store_cap`` sets a tag.

    The simulated charge is one rounded ``cap_relocate_ns`` per
    rewritten capability, batched into a single sum-equal ``advance``
    (the observability layer records pure sums).
    """
    memo = machine._reloc_memo
    region_key = (regions.parent_base, regions.parent_top,
                  regions.child_base, regions.child_top)
    codec = machine.codec
    data = frame.data
    relocated = 0
    for offset in frame.tagged_granules():
        raw = bytes(data[offset:offset + CAP_SIZE])
        key = (region_key, raw)
        entry = memo.get(key, _MISSING)
        if entry is _MISSING:
            cap = codec.decode(raw, True)
            moved = relocate_cap(cap, regions)
            if moved is cap:
                entry = None
            else:
                entry = (codec.encode(moved),
                         1 if moved.valid else 0)
            if cap.valid:
                if len(memo) >= _RELOC_MEMO_CAP:
                    memo.clear()
                memo[key] = entry
        if entry is not None:
            new_raw, new_tag = entry
            frame.write_granule(offset, new_raw, new_tag)
            relocated += 1
    if relocated:
        machine.charge(int(round(machine.costs.cap_relocate_ns)) * relocated,
                       "reloc_cap")
    return relocated


def relocate_registers(machine: Any, registers: RegisterFile,
                       regions: RegionPair) -> int:
    """Relocate capability-valued registers for the child (§3.5 step 2).

    Tags extend to register values, so integers are left untouched.
    """
    relocated = 0
    for name, cap in list(registers.cap_registers()):
        moved = relocate_cap(cap, regions)
        if moved is not cap:
            registers.set(name, moved)
            machine.charge(machine.costs.cap_relocate_ns, "reloc_reg")
            relocated += 1
    if relocated:
        machine.obs.count("core.relocate.registers_relocated", relocated)
    return relocated


# ---------------------------------------------------------------------------
# Capability-flow provenance log
# ---------------------------------------------------------------------------
#
# Every event that mints or re-mints a μprocess's region authority —
# spawn, fork (one relocate_cap sweep per strategy), migrate/compact,
# snapshot restore — records a compact provenance tuple here.  The
# security auditor (repro.sec.auditor) uses the log to attribute a
# leaked capability to the μprocess it was minted for and to print the
# derivation chain that produced that μprocess's authority.

#: bounded history: old entries age out once a machine has seen this
#: many authority events (reaped μprocesses stop being attributable,
#: which is fine — their authority is dead too)
_FLOW_LOG_CAP = 1024

FlowEvent = Tuple[str, int, int, int, int, str]


def record_flow(machine: Any, event: str, src_pid: int, dst_pid: int,
                region_base: int, region_top: int, detail: str = "") -> None:
    """Append one authority event to the machine's capability-flow log.

    ``event`` is one of ``spawn``/``fork``/``migrate``/``restore``;
    ``src_pid`` is the μprocess the authority derives from (0 for the
    kernel root) and ``dst_pid`` the μprocess it was minted for.
    """
    log = getattr(machine, "_capflow", None)
    if log is None:
        log = deque(maxlen=_FLOW_LOG_CAP)
        machine._capflow = log
    log.append((event, src_pid, dst_pid, region_base, region_top, detail))


def flow_log(machine: Any) -> List[FlowEvent]:
    """The machine's authority events, oldest first."""
    return list(getattr(machine, "_capflow", ()))


def derivation_chain(machine: Any, pid: int, limit: int = 8) -> str:
    """Human-readable derivation chain for one μprocess's authority.

    Walks the flow log newest-first following ``src_pid`` links, e.g.
    ``spawn[0->1] -> fork:copa[1->3]`` — the relocate_cap sweeps that
    produced pid 3's region authority.
    """
    links = []
    cursor = pid
    events = flow_log(machine)
    for _ in range(limit):
        hit = next((e for e in reversed(events) if e[2] == cursor), None)
        if hit is None:
            break
        event, src, dst, _base, _top, detail = hit
        tag = f"{event}:{detail}" if detail else event
        links.append(f"{tag}[{src}->{dst}]")
        if src == 0 or src == cursor:
            break
        cursor = src
    if not links:
        return "unknown provenance"
    return " -> ".join(reversed(links))


def find_unrelocated(machine: Any, frame: Frame,
                     regions: RegionPair) -> list:
    """Debug/verification helper: capabilities in a frame that still
    point into the parent region (should be empty after relocation)."""
    leaks = []
    for offset in frame.tagged_granules():
        cap = frame.load_cap(offset, machine.codec)
        if cap.valid and not cap.is_sentry and regions.in_parent(cap.base):
            leaks.append((offset, cap))
    return leaks
