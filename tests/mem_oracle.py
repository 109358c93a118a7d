"""A small dict reference model of the narrow memory API.

The model is what the vectorized engine (chunked PTE arrays, banked
frame arenas, the walk cache, the deferred free-time scrub, the codec
memos) must be indistinguishable from, written as plainly as possible:

* a page table ``vpn -> [frame, perms, cow, note]``;
* per frame a refcount, ``PAGE`` data bytes and one tag bit per
  16-byte granule;
* a LIFO free list of frame numbers (the next fresh number is handed
  out only when the list is empty);
* a capability-metadata intern table numbered in first-seen order.

Every method mirrors the :class:`repro.hw.paging.AddressSpace` /
:class:`repro.hw.phys.PhysicalMemory` call of the same name, including
which error it raises and how much state it has changed by then.
Simulated time is not modelled: the model pins *state*, the golden
digests pin charges.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    AlignmentFault,
    ProtectionError,
    UnmappedAddressError,
)

GRANULE = 16
_READ = 1
_WRITE = 2
_META = struct.Struct("<QQ")


class MemOracle:
    """Reference model of one address space over its physical memory."""

    def __init__(self, page_size: int = 4096) -> None:
        self.page = page_size
        self.granules = page_size // GRANULE
        self.ptes: Dict[int, List[Any]] = {}
        self.refcount: Dict[int, int] = {}
        self.data: Dict[int, bytearray] = {}
        self.tags: Dict[int, bytearray] = {}
        self.free: List[int] = []
        self.next_frame = 1
        self.meta_ids: Dict[Tuple[int, int, int, int], int] = {}

    # -- physical memory ---------------------------------------------------

    def alloc(self, zero: bool = True) -> int:
        number = self.free.pop() if self.free else self._fresh()
        self.refcount[number] = 1
        if zero or number not in self.data:
            self.data[number] = bytearray(self.page)
            self.tags[number] = bytearray(self.granules)
        return number

    def _fresh(self) -> int:
        number = self.next_frame
        self.next_frame += 1
        return number

    def incref(self, number: int) -> None:
        self.refcount[number] += 1

    def decref(self, number: int) -> None:
        if number not in self.refcount:
            raise KeyError(f"no such frame {number}")
        self.refcount[number] -= 1
        if self.refcount[number] == 0:
            del self.refcount[number]
            self.free.append(number)

    def decref_many(self, numbers: Sequence[int]) -> None:
        for number in numbers:
            self.decref(number)

    def copy_frames(self, srcs: Sequence[int],
                    preserve_tags: bool = True) -> List[int]:
        dsts = []
        for src in srcs:
            dst = self.alloc(zero=False)
            self.data[dst][:] = self.data[src]
            self.tags[dst][:] = self.tags[src] if preserve_tags \
                else bytes(self.granules)
            dsts.append(dst)
        return dsts

    def live_frames(self) -> List[int]:
        return sorted(self.refcount)

    def tagged_granules(self, number: int) -> List[int]:
        return [index * GRANULE
                for index, tag in enumerate(self.tags[number]) if tag]

    # -- page table ----------------------------------------------------------

    def _require(self, vpn: int) -> List[Any]:
        pte = self.ptes.get(vpn)
        if pte is None:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        return pte

    def map_run(self, start_vpn: int, frames: Sequence[int], perms: int,
                incref: bool = False, cow: bool = False,
                note: Any = None) -> None:
        for offset, frame in enumerate(frames):
            vpn = start_vpn + offset
            if vpn in self.ptes:
                raise ValueError(f"vpn {vpn:#x} already mapped")
            if incref:
                self.incref(frame)
            self.ptes[vpn] = [frame, int(perms), bool(cow), note]

    def unmap_range(self, lo_vpn: int, hi_vpn: int,
                    decref: bool = True) -> int:
        gone = [vpn for vpn in sorted(self.ptes) if lo_vpn <= vpn < hi_vpn]
        frames = [self.ptes.pop(vpn)[0] for vpn in gone]
        if decref:
            self.decref_many(frames)
        return len(gone)

    def protect_run(self, start_vpn: int, count: int, perms: int) -> None:
        ptes = [self._require(vpn)
                for vpn in range(start_vpn, start_vpn + count)]
        for pte in ptes:
            pte[1] = int(perms)

    def replace_frame(self, vpn: int, frame: int,
                      decref_old: bool = True) -> None:
        pte = self._require(vpn)
        if decref_old:
            self.decref(pte[0])
        pte[0] = frame

    def privatize_page(self, vpn: int, perms: int,
                       new_frame: Optional[int] = None,
                       decref_old: bool = True) -> None:
        pte = self._require(vpn)
        if new_frame is not None:
            if decref_old:
                self.decref(pte[0])
            pte[0] = new_frame
        pte[1] = int(perms)
        pte[3] = None

    def set_cow(self, vpn: int, cow: bool) -> None:
        self._require(vpn)[2] = bool(cow)

    def set_note_many(self, vpns: Sequence[int], note: Any) -> None:
        ptes = [self._require(vpn) for vpn in vpns]
        for pte in ptes:
            pte[3] = note

    def mapped_items(self) -> List[Tuple[int, int, int, bool, Any]]:
        return [(vpn, *self.ptes[vpn]) for vpn in sorted(self.ptes)]

    def entry(self, vpn: int) -> Optional[Tuple[int, int, bool, Any]]:
        pte = self.ptes.get(vpn)
        return None if pte is None else tuple(pte)

    def frame_of(self, vpn: int) -> Optional[int]:
        pte = self.ptes.get(vpn)
        return None if pte is None else pte[0]

    def note_of(self, vpn: int) -> Any:
        pte = self.ptes.get(vpn)
        return None if pte is None else pte[3]

    # -- access ------------------------------------------------------------------

    def _resolve(self, vaddr: int, bits: int, privileged: bool,
                 kind: str) -> Tuple[int, int]:
        vpn, offset = divmod(vaddr, self.page)
        pte = self.ptes.get(vpn)
        if pte is None:
            raise UnmappedAddressError(vaddr, kind)
        if not privileged and (pte[1] & bits) != bits:
            raise ProtectionError(vaddr, kind)
        return pte[0], offset

    def _pieces(self, vaddr: int, size: int):
        """(page-chunk vaddr, start in buffer, length), in address order."""
        done = 0
        while done < size:
            addr = vaddr + done
            take = min(size - done, self.page - addr % self.page)
            yield addr, done, take
            done += take

    def read(self, vaddr: int, size: int,
             privileged: bool = False) -> bytes:
        out = bytearray()
        for addr, _start, take in self._pieces(vaddr, size):
            frame, offset = self._resolve(addr, _READ, privileged, "read")
            out += self.data[frame][offset:offset + take]
        return bytes(out)

    def write(self, vaddr: int, data: bytes,
              privileged: bool = False) -> None:
        for addr, start, take in self._pieces(vaddr, len(data)):
            frame, offset = self._resolve(addr, _WRITE, privileged, "write")
            self.data[frame][offset:offset + take] = data[start:start + take]
            first = offset // GRANULE
            last = (offset + take - 1) // GRANULE
            self.tags[frame][first:last + 1] = bytes(last + 1 - first)

    def write_run(self, vaddrs: Sequence[int], data: bytes,
                  privileged: bool = False) -> None:
        for vaddr in vaddrs:
            self.write(vaddr, data, privileged)

    def store_cap(self, vaddr: int, cap: Any,
                  privileged: bool = False) -> None:
        frame, offset = self._resolve(vaddr, _WRITE, privileged, "write")
        if offset % GRANULE:
            raise AlignmentFault(f"capability store at offset {offset:#x}")
        key = (cap.base, cap.length, int(cap.perms), cap.otype)
        meta_id = self.meta_ids.setdefault(key, len(self.meta_ids) + 1)
        self.data[frame][offset:offset + GRANULE] = _META.pack(
            cap.cursor & (2**64 - 1), meta_id)
        self.tags[frame][offset // GRANULE] = 1 if cap.valid else 0
