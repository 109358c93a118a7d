"""In-memory encoding of capabilities.

Real CHERI compresses a capability's bounds and permissions into 128
bits next to the 64-bit address.  The simulation keeps memory honest —
a capability stored to memory occupies exactly one 16-byte granule whose
first 8 bytes are the little-endian cursor (so integer loads of a
pointer's bytes observe its address, as on hardware) — and interns the
metadata half (bounds, permissions, otype) in a table indexed by the
second 8 bytes.

The *authority* to dereference never comes from these bytes alone: the
granule's validity tag (held in :mod:`repro.hw.phys`) is authoritative,
so overwriting a capability's bytes or forging a metadata index yields
an untagged, powerless value — the CHERI unforgeability property.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.cheri.capability import Capability, Perm, _fast_cap

#: a capability occupies one granule
CAP_SIZE = 16

_META_STRUCT = struct.Struct("<QQ")


#: memo tables are dropped wholesale once they reach this many entries
#: (they are per-machine; real workloads stay far below the cap)
_MEMO_CAP = 65536


class CapabilityCodec:
    """Interns capability metadata and packs/unpacks 16-byte granules.

    Encode and decode are memoised.  Both memos are sound by construction: a metadata tuple, once
    interned, never changes, so a ``(cursor, meta_id, valid)`` triple
    always decodes to an equal :class:`Capability`.  The one case that
    is *not* cacheable — raw bytes naming a meta id that does not exist
    yet (a forged capability) — is deliberately left uncached, because
    interning could later create that id and change the decode result.
    """

    def __init__(self) -> None:
        self._meta_to_id: Dict[Tuple[int, int, int, int], int] = {}
        self._id_to_meta: Dict[int, Tuple[int, int, int, int]] = {}
        self._encode_memo: Dict[Tuple[int, int, int, int, int], bytes] = {}
        self._decode_memo: Dict[Tuple[bytes, bool], Capability] = {}

    def _meta_id(self, cap: Capability) -> int:
        key = (cap.base, cap.length, int(cap.perms), cap.otype)
        meta_id = self._meta_to_id.get(key)
        if meta_id is None:
            meta_id = len(self._meta_to_id) + 1
            self._meta_to_id[key] = meta_id
            self._id_to_meta[meta_id] = key
        return meta_id

    def encode(self, cap: Capability) -> bytes:
        """Pack a capability into its 16-byte memory representation."""
        key = (cap.cursor, cap.base, cap.length, int(cap.perms), cap.otype)
        raw = self._encode_memo.get(key)
        if raw is not None:
            return raw
        raw = _META_STRUCT.pack(cap.cursor & (2**64 - 1), self._meta_id(cap))
        if len(self._encode_memo) >= _MEMO_CAP:
            self._encode_memo.clear()
        self._encode_memo[key] = raw
        return raw

    def decode(self, raw: bytes, valid: bool) -> Capability:
        """Unpack a 16-byte granule.

        ``valid`` is the granule's tag bit: an untagged granule decodes
        to an *invalid* capability (unusable), mirroring hardware where
        loading untagged bytes into a capability register yields a value
        that faults on use.
        """
        memo_key = (raw, valid)
        cached = self._decode_memo.get(memo_key)
        if cached is not None:
            return cached
        if len(raw) != CAP_SIZE:
            raise ValueError(f"capability granule must be {CAP_SIZE} bytes")
        cursor, meta_id = _META_STRUCT.unpack(raw)
        meta = self._id_to_meta.get(meta_id)
        if meta is None:
            # Forged / garbage metadata: an invalid null-ish capability.
            # NOT memoised — interning could later claim this meta id.
            return Capability(
                base=0, length=0, cursor=cursor, perms=Perm.NONE, valid=False
            )
        base, length, perms, otype = meta
        cap = _fast_cap(base, length, cursor, Perm(perms), otype, valid)
        if len(self._decode_memo) >= _MEMO_CAP:
            self._decode_memo.clear()
        self._decode_memo[memo_key] = cap
        return cap
