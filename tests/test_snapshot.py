"""repro.snapshot acceptance tier: checkpoint at a syscall boundary,
restore into a *fresh* machine, and the restored μprocess's logical
trace is identical to the uninterrupted run — for every fork strategy
(the three SASOS strategies plus the monolithic baseline) at 1, 2 and
4 CPUs.  Plus: blob determinism, incremental capture, v1 gates."""

import pytest

from repro.apps.guest import GuestContext
from repro.apps.hello import hello_world_image
from repro.baselines.monolithic import MonolithicOS
from repro.core import CopyStrategy, UForkOS
from repro.kernel import signals
from repro.machine import Machine
from repro.snapshot import (
    SCHEMA,
    SnapshotError,
    checkpoint,
    decode,
    restore,
    restore_into,
)

STRATEGIES = ["full", "coa", "copa", "monolithic"]


def boot(strategy, num_cpus=1, seed=7):
    machine = Machine(seed=seed, num_cpus=num_cpus)
    if strategy == "monolithic":
        os_ = MonolithicOS(machine=machine)
    else:
        os_ = UForkOS(machine=machine,
                      copy_strategy=CopyStrategy(strategy))
    ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
    return os_, ctx


def prologue(ctx):
    """Build up state worth snapshotting: heap data, a capability stored
    in memory, a capability parked in a register, a pipe with buffered
    bytes (fds parked in integer registers), a non-default signal
    disposition, and a pending signal."""
    cap = ctx.malloc(256)
    ctx.store(cap, b"snapshot me " + bytes(range(16)))
    ctx.store_cap(cap, cap.add(64), offset=96)
    ctx.set_reg("c19", cap)
    rfd, wfd = ctx.syscall("pipe")
    ctx.set_reg("x20", rfd)
    ctx.set_reg("x21", wfd)
    ctx.write_bytes(wfd, b"buffered-in-pipe")
    ctx.syscall("signal", signals.SIGUSR1, signals.SIG_IGN)
    # queued but undelivered at the checkpoint boundary
    ctx.syscall("kill", ctx.proc.pid, signals.SIGUSR1)


def epilogue(ctx):
    """Continue the program purely through snapshotted state (registers
    carry the capabilities/fds), recording a *logical* trace: data
    bytes, capability geometry relative to the region, exit statuses —
    never absolute addresses, pids or clock values."""
    trace = []
    cap = ctx.reg("c19")
    trace.append(("heap", ctx.load(cap, 28)))
    inner = ctx.load_cap(cap, offset=96)
    trace.append(("inner", inner.offset, inner.length, int(inner.perms),
                  inner.valid, inner.cursor - cap.cursor))
    extra = ctx.malloc(512)
    ctx.store(extra, b"post-restore")
    trace.append(("extra", ctx.load(extra, 12)))
    ctx.free(extra)
    rfd, wfd = ctx.reg("x20"), ctx.reg("x21")
    got = ctx.syscall("read", rfd, cap.add(128), 16)
    trace.append(("pipe", got, ctx.load(cap, got, offset=128)))
    wrote = ctx.syscall("write", wfd, cap, 8)
    trace.append(("pipe_wr", wrote))
    # the ignored disposition survived: this kill must not terminate us
    ctx.syscall("kill", ctx.proc.pid, signals.SIGUSR1)
    trace.append(("alive", ctx.proc.alive))
    child = ctx.fork()
    ccap = child.reg("c19")
    trace.append(("child_heap", child.load(ccap, 28)))
    cinner = child.load_cap(ccap, offset=96)
    trace.append(("child_inner", cinner.offset, cinner.length,
                  cinner.valid))
    child.exit(0)
    _pid, status = ctx.wait(child.proc.pid)
    trace.append(("wait", status))
    ctx.exit(0)
    return trace


@pytest.mark.parametrize("num_cpus", [1, 2, 4])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_restore_trace_identical_to_uninterrupted_run(strategy, num_cpus):
    # the uninterrupted twin
    _os_a, ctx_a = boot(strategy, num_cpus=num_cpus)
    prologue(ctx_a)
    expected = epilogue(ctx_a)

    # checkpoint on one machine, restore into a freshly booted one
    os_b, ctx_b = boot(strategy, num_cpus=num_cpus)
    prologue(ctx_b)
    blob = checkpoint(os_b, ctx_b.proc)
    ctx_b.exit(0)

    os_c, boot_ctx = boot(strategy, num_cpus=num_cpus)
    restored = restore(os_c, blob)
    ctx_c = GuestContext(os_c, restored)
    assert epilogue(ctx_c) == expected
    boot_ctx.exit(0)


def test_restore_onto_the_checkpointing_machine():
    os_, ctx = boot("copa")
    prologue(ctx)
    expected_pages = decode(checkpoint(os_, ctx.proc))[0]["pages"]
    blob = checkpoint(os_, ctx.proc)
    ctx.exit(0)
    restored = restore(os_, blob)
    trace = epilogue(GuestContext(os_, restored))
    assert ("alive", True) in trace
    assert len(expected_pages) > 0


def test_blob_is_deterministic_across_same_seed_runs():
    blobs = []
    for _ in range(2):
        os_, ctx = boot("copa", seed=11)
        prologue(ctx)
        blobs.append(checkpoint(os_, ctx.proc))
        ctx.exit(0)
    assert blobs[0] == blobs[1]
    manifest, payload = decode(blobs[0])
    assert manifest["schema"] == SCHEMA
    assert manifest["os"] == "ufork"
    assert len(payload) == len(manifest["pages"]) * manifest["page_size"]


def test_capabilities_are_recorded_logically():
    """Every tagged granule appears in the manifest with its logical
    fields; the register file records the parked capability."""
    os_, ctx = boot("copa")
    prologue(ctx)
    manifest, _payload = decode(checkpoint(os_, ctx.proc))
    all_caps = [c for page in manifest["pages"] for c in page["caps"]]
    assert all_caps, "GOT + stored caps must appear as tagged granules"
    for _off, base, length, _cursor, perms, _otype in all_caps:
        assert ctx.proc.region_base <= base < ctx.proc.region_top
        assert length >= 0 and perms >= 0
    regs = {r[0]: r for r in manifest["registers"]}
    assert regs["c19"][1] == "cap"
    assert regs["x20"][1] == "int"
    ctx.exit(0)


def test_incremental_captures_only_divergent_pages():
    """After a fork, an incremental snapshot of the child holds exactly
    its refcount-1 (CoW-divergent) pages — and never resolves the
    still-shared rest."""
    os_, ctx = boot("copa")
    prologue(ctx)
    child = ctx.fork()
    page = os_.machine.config.page_size
    # diverge two heap pages in the child
    ccap = child.reg("c19")
    child.store(ccap, b"diverged!")
    blob = checkpoint(os_, child.proc, incremental=True)
    manifest, _ = decode(blob)
    assert manifest["incremental"] is True
    expected = {
        vpn for vpn, frame, _perms, _cow, _note in os_.space.mapped_items(
            child.proc.region_base // page, child.proc.region_top // page)
        if os_.machine.phys.refcount(frame) == 1
    }
    assert {p["vpn"] for p in manifest["pages"]} == expected
    assert 0 < len(expected) < (child.proc.region_size // page)
    with pytest.raises(SnapshotError):
        restore(os_, blob)  # incremental blobs need restore_into
    child.exit(0)
    ctx.wait(child.proc.pid)
    ctx.exit(0)


def test_restore_into_applies_divergence_onto_a_fork_twin():
    """Cluster-migration shape: checkpoint a worker's divergence, fork a
    twin from the same zygote elsewhere, apply — the twin now computes
    exactly what the worker would have."""
    os_a, zyg_a = boot("copa", seed=3)
    prologue(zyg_a)
    worker = zyg_a.fork()
    wcap = worker.reg("c19")
    worker.store(wcap, b"worker state 42!")
    blob = checkpoint(os_a, worker.proc, incremental=True)
    worker.exit(0)
    zyg_a.wait(worker.proc.pid)
    zyg_a.exit(0)

    os_b, zyg_b = boot("copa", seed=3)
    prologue(zyg_b)
    twin = zyg_b.fork()
    applied = restore_into(os_b, twin.proc, blob)
    assert applied == len(decode(blob)[0]["pages"]) > 0
    tcap = twin.reg("c19")
    assert twin.load(tcap, 16) == b"worker state 42!"
    twin.exit(0)
    zyg_b.wait(twin.proc.pid)
    zyg_b.exit(0)


def test_restore_with_parent_is_waitable():
    os_, ctx = boot("copa")
    prologue(ctx)
    blob = checkpoint(os_, ctx.proc)
    adopted = restore(os_, blob, name="adopted", parent=ctx.proc)
    assert adopted.parent is ctx.proc and adopted in ctx.proc.children
    GuestContext(os_, adopted).exit(0)
    _pid, status = ctx.wait(adopted.pid)
    assert status == 0
    ctx.exit(0)


def test_non_pipe_fds_are_dropped_by_policy():
    from repro.kernel.vfs import O_CREAT, O_RDWR
    os_, ctx = boot("copa")
    os_.machine.obs.enable()
    fd = ctx.syscall("open", "/keep", O_CREAT | O_RDWR)
    blob = checkpoint(os_, ctx.proc)
    manifest, _ = decode(blob)
    kinds = {entry[0]: entry[1] for entry in manifest["fds"]}
    assert kinds[fd] == "dropped"
    restored = restore(os_, blob)
    assert fd not in restored.fdtable
    counters = os_.machine.obs.registry.counters()
    assert counters["core.snapshot.dropped_fds"] == 1
    GuestContext(os_, restored).exit(0)
    ctx.exit(0)


def test_v1_gates_multithreaded_and_shared_memory():
    os_, ctx = boot("copa")
    ctx.syscall("thread_create")
    with pytest.raises(SnapshotError):
        checkpoint(os_, ctx.proc)

    os2, ctx2 = boot("copa")
    shm = ctx2.syscall("shm_open", "/seg", 2)
    ctx2.syscall("shm_map", shm)
    with pytest.raises(SnapshotError):
        checkpoint(os2, ctx2.proc)


def test_geometry_mismatch_is_rejected():
    from repro.params import CostModel, MachineConfig
    os_, ctx = boot("copa")
    blob = checkpoint(os_, ctx.proc)
    ctx.exit(0)
    other = Machine(config=MachineConfig(page_size=8192))
    target = UForkOS(machine=other, copy_strategy=CopyStrategy.COPA)
    with pytest.raises(SnapshotError):
        restore(target, blob)
    assert isinstance(CostModel.morello().snapshot_fixed_ns, float)


def test_restored_process_tears_down_cleanly():
    """Exit of a restored μprocess releases every frame and its VA
    reservation — restore grafts fully into the normal lifecycle."""
    os_, ctx = boot("copa")
    prologue(ctx)
    blob = checkpoint(os_, ctx.proc)
    ctx.exit(0)
    frames_before = os_.machine.phys.allocated_frames
    reserved_before = len(os_.vspace.reserved_areas())
    restored = restore(os_, blob)
    GuestContext(os_, restored).exit(0)
    assert os_.machine.phys.allocated_frames == frames_before
    assert len(os_.vspace.reserved_areas()) == reserved_before
