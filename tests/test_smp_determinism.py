"""SMP determinism tier: same seed + same num_cpus fully determines an
SMP run — the dispatch order, the steal/IPI schedule, and the exported
``repro.obs/v1`` sidecar are byte-for-byte reproducible (satellite of
the tentpole; mirrors tests/test_chaos_determinism.py)."""

import json

import pytest

from repro.smp.runner import run_smp

SEED = 7
REQUESTS = 16
MIX = "default=0.02,smp.*=0.2"


def test_same_seed_same_cpus_byte_equal_sidecars(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    one = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS,
                  workload="faas", obs_dir=str(dir_a))
    two = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS,
                  workload="faas", obs_dir=str(dir_b))

    assert one == two
    for name in (f"smp-{SEED}-c4.obs.json", f"smp-{SEED}-c4.smp.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_chaos_under_smp_is_deterministic_too(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    one = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS,
                  workload="faas", mix=MIX, obs_dir=str(dir_a))
    two = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS,
                  workload="faas", mix=MIX, obs_dir=str(dir_b))

    assert one == two
    assert one["injected"] > 0            # the run was not trivially calm
    name = f"smp-{SEED}-c4.obs.json"
    assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_sidecars_are_valid_and_self_consistent(tmp_path):
    summary = run_smp(seed=SEED, num_cpus=2, requests=REQUESTS,
                      workload="faas", obs_dir=str(tmp_path))
    obs_doc = json.loads(
        (tmp_path / f"smp-{SEED}-c2.obs.json").read_text())
    from repro.obs import validate_export
    validate_export(obs_doc)
    smp_doc = json.loads(
        (tmp_path / f"smp-{SEED}-c2.smp.json").read_text())
    assert smp_doc == summary
    assert smp_doc["schema"] == "repro.smp.run/v1"
    counters = obs_doc["metrics"]["counters"]
    assert counters["smp.ipi.sent"] == summary["ipi"]["sent"]
    assert counters["smp.ipi.acked"] == summary["ipi"]["acked"]


def test_different_cpu_count_different_run():
    one = run_smp(seed=SEED, num_cpus=1, requests=REQUESTS, workload="faas")
    two = run_smp(seed=SEED, num_cpus=2, requests=REQUESTS, workload="faas")
    four = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS, workload="faas")
    assert one["obs_export_sha256"] != two["obs_export_sha256"]
    assert two["obs_export_sha256"] != four["obs_export_sha256"]


def test_different_seed_different_chaos_run():
    one = run_smp(seed=SEED, num_cpus=4, requests=REQUESTS,
                  workload="faas", mix=MIX)
    two = run_smp(seed=SEED + 1, num_cpus=4, requests=REQUESTS,
                  workload="faas", mix=MIX)
    assert one["injected_by_point"] != two["injected_by_point"]
    assert one["obs_export_sha256"] != two["obs_export_sha256"]


def test_uniprocessor_run_has_no_smp_traffic():
    """num_cpus=1 must never touch the SMP machinery: no IPIs, no
    steals, no shootdown broadcasts (the bit-identity guarantee)."""
    summary = run_smp(seed=SEED, num_cpus=1, requests=REQUESTS,
                      workload="faas")
    assert summary["ipi"]["sent"] == 0
    assert summary["steals"] == 0
    assert summary["shootdown_broadcasts"] == 0
    assert summary["completed"] == REQUESTS


#: ``obs_export_sha256`` of 1-CPU runs (seed 7, 16 requests), recorded
#: when 1-CPU machines still ran a separate round-robin scheduler: the
#: per-CPU scheduler must reproduce that schedule byte for byte
UNIPROCESSOR_DIGESTS = {
    ("faas", None):
        "2b13d2ff1f9aedc917c5c1d2c6c8f3494413efefee264401c6ef856f8aa6227b",
    ("faas", MIX):
        "b54f184c0b6e7979e199526d4ad278f527ad52ff19a48cd7742aa5bea52cab50",
    ("nginx", None):
        "f8f56035edbd01823d2ff3ddf9333b362762947a2ed3c743ebcc7cc4eed31785",
    ("nginx", MIX):
        "76c0b20d1309ed6eb43cf4525525a46b40a02b3602d809512d342429d4387081",
    ("forkbench", None):
        "a5ee90cc79ed294b0e93bf0419231e608465562b0768ce9d1cee9385c9b744a1",
    ("forkbench", MIX):
        "67254c9ea4c9ce48551844a0a6faeeb59af6e79c2b916b599bb10f43099c8962",
}


@pytest.mark.parametrize("workload,mix", sorted(
    UNIPROCESSOR_DIGESTS, key=lambda key: (key[0], key[1] or "")))
def test_uniprocessor_run_is_pinned(workload, mix):
    summary = run_smp(seed=SEED, num_cpus=1, requests=REQUESTS,
                      workload=workload, mix=mix)
    assert summary["obs_export_sha256"] == \
        UNIPROCESSOR_DIGESTS[(workload, mix)]
