"""Machine configuration and the simulated-time cost model.

The cost model is the calibration surface of the reproduction: each
constant is the simulated cost of one primitive hardware or kernel
operation.  Aggregate latencies (fork latency, BGSAVE time, request
throughput) are *emergent* — they fall out of how many primitives a
workload performs — so the shape of every figure follows from mechanism,
while the constants are calibrated so headline numbers land near the
paper's Morello measurements (μFork hello-world fork 54 μs, CheriBSD
197 μs, Nephele 10.7 ms, Unixbench Context1 245 vs 419 ms, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class MachineConfig:
    """Physical parameters of the simulated Morello-like machine."""

    page_size: int = 4096
    #: CHERI capability granule: capabilities are 16 bytes and 16-byte
    #: aligned; one validity tag per granule.
    granule: int = 16
    cores: int = 4
    dram_bytes: int = 16 * GiB
    va_bits: int = 48  # usable virtual address bits (of a 64-bit space)

    @property
    def granules_per_page(self) -> int:
        return self.page_size // self.granule

    @property
    def va_size(self) -> int:
        return 1 << self.va_bits

    @property
    def va_pages(self) -> int:
        return self.va_size // self.page_size

    def page_of(self, vaddr: int) -> int:
        return vaddr // self.page_size

    def page_base(self, vaddr: int) -> int:
        return vaddr - (vaddr % self.page_size)


@dataclass(frozen=True)
class CostModel:
    """Simulated nanosecond costs of primitive operations.

    ``morello()`` returns the default calibration used by all
    experiments.  All values are ns unless the name says otherwise.
    """

    # -- raw memory ----------------------------------------------------
    #: bulk memcpy cost per byte (DRAM bandwidth bound)
    memcpy_ns_per_byte: float = 0.0625
    #: scanning one 16-byte granule of a freshly copied page for a valid
    #: capability tag (the μFork relocation scan, §4.2)
    tag_scan_ns_per_granule: float = 1.5
    #: rewriting one identified capability (rebase + re-bound)
    cap_relocate_ns: float = 12.0
    #: zero-filling a page on demand
    page_zero_ns: float = 180.0

    # -- MMU -----------------------------------------------------------
    #: copying/installing one PTE individually (monolithic fork path)
    pte_copy_ns: float = 55.0
    #: sharing one PTE via the SASOS bulk region-mapping path.  μFork
    #: maps the child onto parent frames in large strides, which is why
    #: its fork latency grows so slowly with the database size (Fig 4).
    pte_bulk_share_ns: float = 5.0
    #: changing the permissions of one PTE (write-protect for CoW/CoPA)
    pte_protect_ns: float = 1.0
    #: extra per-page cost of marking pages fully inaccessible for CoA
    pte_coa_extra_ns: float = 1.0
    #: taking + handling a page fault (trap, walk, handler dispatch)
    page_fault_ns: float = 550.0
    #: full TLB flush (paid on address-space switch in the monolithic OS)
    tlb_flush_ns: float = 400.0

    # -- security-domain transitions ------------------------------------
    #: sealed-capability trapless syscall entry+exit (SASOS, §4.4)
    sealed_syscall_ns: float = 120.0
    #: trap-based syscall entry+exit on the monolithic OS (includes
    #: kernel-crossing mitigation costs)
    trap_syscall_ns: float = 460.0
    #: hypercall from guest to hypervisor (Nephele path)
    hypercall_ns: float = 1_200.0
    #: context switch between threads in one address space (SASOS)
    context_switch_sas_ns: float = 800.0
    #: context switch across address spaces, excluding the TLB flush
    context_switch_mas_ns: float = 450.0

    # -- syscall-layer isolation costs (parameterizable, §3.6/§4.4) -----
    #: validating one syscall argument (range/capability checks)
    syscall_validate_ns: float = 30.0
    #: fixed cost of setting up a TOCTTOU double copy for one buffer
    tocttou_setup_ns: float = 80.0
    #: per-byte cost of copying user buffers into kernel memory and back
    tocttou_copy_ns_per_byte: float = 0.25
    #: TOCTTOU double-copies are paid on *control structures* passed by
    #: reference (paths, iovecs, stat buffers) — bulk I/O payloads are
    #: copied into the kernel exactly once regardless, so the per-buffer
    #: double copy is capped (keeps the Redis cost at the paper's ~2.6%)
    tocttou_max_copy_bytes: int = 4096

    # -- fork machinery --------------------------------------------------
    #: μFork fixed path: reserve child VA, allocate task struct + stack,
    #: generate PID, duplicate fd table, relocate register file, insert
    #: into scheduler.  Calibrated so hello-world fork lands near 54 μs.
    ufork_fixed_ns: float = 50_000.0
    #: duplicating one fd table entry
    fd_dup_ns: float = 120.0
    #: monolithic fork fixed path: proc struct, vmspace/pmap creation,
    #: copying credentials, signal state...  (CheriBSD hello ≈ 197 μs.)
    monolithic_fork_fixed_ns: float = 186_000.0
    #: Iso-Unik-like fixed fork path: lighter task state than a full
    #: monolithic kernel, but page tables must still be created
    isounik_fork_fixed_ns: float = 95_000.0
    #: Nephele fixed path: Xen domain creation + console/device plumbing
    vm_clone_fixed_ns: float = 10_550_000.0
    #: Nephele per-page guest-memory duplication cost
    vm_clone_page_ns: float = 320.0
    #: terminating a μprocess (uFork)
    uexit_ns: float = 1_800.0
    #: fixed path of a μprocess checkpoint: quiesce at the syscall
    #: boundary, walk the region's page table, emit the manifest.
    #: Per-page costs (tag scan, byte copy) are charged on top.
    snapshot_fixed_ns: float = 30_000.0
    #: fixed path of a restore: reserve VA, recreate task + fd state,
    #: re-mint the register file.  Per-page and per-capability costs
    #: reuse page_copy_ns / page_scan_ns / cap_relocate_ns.
    restore_fixed_ns: float = 60_000.0
    #: terminating a process on the monolithic OS (reaping, pmap teardown)
    monolithic_exit_ns: float = 9_000.0

    # -- SMP / cross-core coherence ---------------------------------------
    #: delivering one inter-processor interrupt to one remote core
    ipi_send_ns: float = 900.0
    #: the initiator receiving one acknowledgement from a recipient
    ipi_ack_ns: float = 250.0
    #: ack-timeout detection before a lost IPI is re-sent
    ipi_timeout_ns: float = 5_000.0
    #: uncontended kernel spinlock acquire (one exclusive cacheline
    #: transfer); free on a 1-CPU machine, like CONFIG_SMP=n
    spinlock_ns: float = 60.0
    #: migrating one task between per-CPU run queues (work stealing:
    #: remote queue lock + task-struct cacheline traffic)
    work_steal_ns: float = 350.0

    # -- I/O ------------------------------------------------------------
    #: per-byte cost of moving data through a pipe / ramdisk file
    io_copy_ns_per_byte: float = 0.25
    #: fixed per-operation ramdisk cost (metadata, block lookup)
    ramdisk_op_ns: float = 350.0
    #: simulated network device latency for one loopback packet
    net_packet_ns: float = 2_600.0

    # -- guest allocator ---------------------------------------------------
    #: fixed cost of one malloc (record search + bounds setting)
    malloc_ns: float = 90.0
    #: fixed cost of one free
    free_ns: float = 60.0

    # -- computation ------------------------------------------------------
    #: generic application compute, charged per abstract "work unit"
    compute_ns_per_unit: float = 1.0
    #: serializer cost per byte (Redis RDB encode)
    serialize_ns_per_byte: float = 0.45

    @classmethod
    def morello(cls) -> "CostModel":
        """The default calibration (see module docstring)."""
        return cls()

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with individual constants overridden."""
        return replace(self, **overrides)

    # -- derived helpers --------------------------------------------------

    def page_copy_ns(self, page_size: int) -> float:
        """Cost of copying one page's bytes (no tag scan)."""
        return self.memcpy_ns_per_byte * page_size

    def page_scan_ns(self, page_size: int, granule: int) -> float:
        """Cost of the relocation tag-scan over one page."""
        return self.tag_scan_ns_per_granule * (page_size // granule)

    def shootdown_ns(self, recipients: int) -> float:
        """Cost of one loss-free ack-based TLB-shootdown broadcast to
        ``recipients`` remote CPUs (the docs/COSTMODEL.md formula):
        R × (ipi_send_ns + tlb_flush_ns + ipi_ack_ns).  Zero recipients
        — a 1-CPU machine, or a μprocess whose footprint is the
        initiating CPU alone — costs nothing."""
        return recipients * (self.ipi_send_ns + self.tlb_flush_ns
                             + self.ipi_ack_ns)


DEFAULT_MACHINE = MachineConfig()
DEFAULT_COSTS = CostModel.morello()
