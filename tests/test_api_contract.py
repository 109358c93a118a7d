"""Contract tests for the stable :mod:`repro.api` facade.

The facade is the one import downstream scripts are told to rely on
(docs/API.md), so its *surface* — exported names and call signatures —
is pinned here.  Changing a default, renaming a keyword, or dropping an
export fails this file before it breaks anyone's experiment script;
intentional changes must update both the facade and these snapshots.
"""

import inspect

import pytest

import repro.api as api
from repro.api import ISOLATIONS, OSES, STRATEGIES, Session


class TestSurface:
    def test_exported_names(self):
        assert api.__all__ == [
            "OSES",
            "STRATEGIES",
            "ISOLATIONS",
            "Session",
        ]
        for name in api.__all__:
            assert hasattr(api, name), f"__all__ lists missing {name}"

    def test_vocabulary_constants(self):
        assert OSES == ("ufork", "monolithic", "vmclone", "isounik")
        assert STRATEGIES == ("full", "coa", "copa")
        assert ISOLATIONS == ("none", "fault", "full")

    def test_session_init_signature(self):
        signature = inspect.signature(Session.__init__)
        parameters = dict(signature.parameters)
        parameters.pop("self")
        # every knob is keyword-only: positional call sites can never
        # form, so parameters can be reordered/added compatibly
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY
                   for p in parameters.values())
        defaults = {name: p.default for name, p in parameters.items()}
        assert defaults == {
            "os": "ufork",
            "strategy": "copa",
            "isolation": "fault",
            "cpus": 1,
            "seed": 7,
            "obs": False,
            "chaos": None,
        }

    def test_one_memory_engine(self):
        # there is no representation knob: every session runs the one
        # engine, and the read-only engine facts stay constant
        from repro import perf
        with pytest.raises(TypeError):
            Session(perf=False)
        assert Session(seed=7).boot().machine.perf is True
        assert perf.enabled() is True

    def test_session_method_signatures(self):
        spawn = inspect.signature(Session.spawn).parameters
        assert list(spawn) == ["self", "image", "name"]
        assert spawn["image"].default is None
        assert spawn["name"].default == "app"
        assert list(inspect.signature(Session.run).parameters) == \
            ["self", "workload"]
        assert list(inspect.signature(Session.report).parameters) == \
            ["self"]
        assert list(inspect.signature(Session.boot).parameters) == \
            ["self"]

    def test_cluster_hook_signatures(self):
        # docs/API.md "Cluster hooks": warm_pool's knobs are keyword-only
        pool = inspect.signature(Session.warm_pool).parameters
        assert list(pool) == ["self", "size", "image", "warm", "name"]
        for name in ("image", "warm", "name"):
            assert pool[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert pool["image"].default is None
        assert pool["warm"].default is None
        assert pool["name"].default == "zygote"
        assert list(inspect.signature(Session.obs_export).parameters) \
            == ["self"]

    def test_snapshot_hook_signatures(self):
        # docs/API.md "Snapshot hooks": checkpoint/restore knobs are
        # keyword-only so the positional surface stays (pid,) / (blob,)
        cp = inspect.signature(Session.checkpoint).parameters
        assert list(cp) == ["self", "pid", "incremental"]
        assert cp["incremental"].kind is inspect.Parameter.KEYWORD_ONLY
        assert cp["incremental"].default is False
        rs = inspect.signature(Session.restore).parameters
        assert list(rs) == ["self", "blob", "name"]
        assert rs["name"].kind is inspect.Parameter.KEYWORD_ONLY
        assert rs["name"].default is None


class TestValidation:
    def test_unknown_names_fail_at_construction(self):
        with pytest.raises(ValueError, match="unknown os"):
            Session(os="linux")
        with pytest.raises(ValueError, match="unknown strategy"):
            Session(strategy="cow")
        with pytest.raises(ValueError, match="unknown isolation"):
            Session(isolation="max")
        with pytest.raises(ValueError, match="cpus"):
            Session(cpus=0)


class TestBehavior:
    def test_boot_is_idempotent(self):
        session = Session().boot()
        machine = session.machine
        assert session.boot().machine is machine

    def test_report_schema(self):
        session = Session(os="ufork", strategy="copa")
        parent = session.spawn()
        child = parent.fork()
        child.exit(0)
        parent.wait(child.pid)
        report = session.report()
        assert report["schema"] == "repro.api/v1"
        assert report["os"] == "ufork"
        assert report["strategy"] == "copa"
        assert report["simulated_ns"] == session.machine.clock.now_ns
        assert report["counters"]["fork"] >= 1
        assert "obs" not in report and "chaos" not in report

    def test_obs_and_chaos_keys(self):
        with Session(obs=True, chaos="default=0.0") as session:
            parent = session.spawn()
            child = parent.fork()
            child.exit(0)
            parent.wait(child.pid)
            report = session.report()
        assert report["obs"]["schema"] == "repro.obs/v1"
        assert "schema" in report["chaos"]

    def test_every_os_boots(self):
        for os_name in OSES:
            session = Session(os=os_name, seed=0).boot()
            assert type(session.os).__name__.lower().startswith(
                os_name[:4])

    def test_run_returns_workload_result(self):
        assert Session().run(lambda s: s.machine.clock.now_ns) >= 0

    def test_checkpoint_restore_round_trip(self):
        from repro.apps.guest import GuestContext
        from repro.snapshot import SCHEMA, decode
        donor = Session()
        ctx = donor.spawn(name="donor")
        cap = ctx.malloc(64)
        ctx.store(cap, b"facade round trip")
        ctx.set_reg("c19", cap)
        blob = donor.checkpoint(ctx.proc.pid)
        assert decode(blob)[0]["schema"] == SCHEMA
        ctx.exit(0)

        target = Session(seed=99)
        target.spawn(name="resident").exit(0)
        pid = target.restore(blob, name="revived")
        restored = GuestContext(target.os, target.os.procs.get(pid))
        assert restored.load(restored.reg("c19"), 17) == \
            b"facade round trip"
        restored.exit(0)


class TestRemovedShims:
    # repro.api.Machine / repro.api.make_scheduler were deprecation
    # shims; the low-level constructors stay where they live

    def test_machine_shim_is_gone(self):
        from repro.machine import Machine
        assert not hasattr(api, "Machine")
        assert "Machine" not in api.__all__
        assert callable(Machine)

    def test_make_scheduler_shim_is_gone(self):
        # the kernel constructs its one Scheduler directly; there is
        # no factory left to re-export
        from repro.kernel import sched
        assert not hasattr(api, "make_scheduler")
        assert "make_scheduler" not in api.__all__
        assert not hasattr(sched, "make_scheduler")
        assert callable(sched.Scheduler)
