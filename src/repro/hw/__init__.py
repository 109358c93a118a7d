"""Simulated hardware: tagged physical memory, MMU, TLB, CPU cores."""

from repro.hw.phys import Frame, PhysicalMemory
from repro.hw.paging import (
    AccessKind,
    AddressSpace,
    PagePerm,
)
from repro.hw.tlb import TLB
from repro.hw.cpu import Core

__all__ = [
    "Frame",
    "PhysicalMemory",
    "AccessKind",
    "AddressSpace",
    "PagePerm",
    "TLB",
    "Core",
]
