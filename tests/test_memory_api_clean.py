"""The memory API boundary is enforced, not aspirational.

The vectorized engine (docs/ARCHITECTURE.md "Vectorized engine") keeps
its storage representation behind one narrow surface on
:class:`~repro.hw.paging.FlatPageTable`/:class:`~repro.hw.paging.AddressSpace`
and :class:`~repro.hw.phys.PhysicalMemory`/:class:`~repro.hw.phys.Frame`.
That only stays true if no caller outside ``repro.hw`` (and the
layout-owning ``repro.mem``) reaches into the representation: the
chunked PTE arrays and the banked frame arenas must be a private
detail.

This test greps the source tree for the representation attributes;
anything it finds must either move to the public bulk interface
(``mapped_items``/``map_run``/``unmap_range``/``copy_frames``/
``privatize_page``/``tagged_granules``/``snapshot_content``/...) or be
added to the hw/mem layers themselves.
"""

import pathlib
import re

REPO_SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: attribute accesses that couple a caller to the storage representation
_FORBIDDEN = re.compile(
    r"\.(_entries\b|_frames\b|_perms\b|_cow\b|tags\b(?!\w))")

#: the layers that own the representations
_ALLOWED_PREFIXES = ("hw/", "mem/")


def _violations():
    found = []
    for path in sorted(REPO_SRC.rglob("*.py")):
        rel = path.relative_to(REPO_SRC).as_posix()
        if rel.startswith(_ALLOWED_PREFIXES):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            stripped = line.split("#", 1)[0]
            if _FORBIDDEN.search(stripped):
                found.append(f"src/repro/{rel}:{lineno}: {line.strip()}")
    return found


def test_no_representation_access_outside_hw_and_mem():
    violations = _violations()
    assert not violations, (
        "storage-representation attributes reached from outside "
        "repro.hw/repro.mem — use the public bulk interface instead:\n"
        + "\n".join(violations))
