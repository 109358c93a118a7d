"""The promoted isolation module (:mod:`repro.conform.isolated`): the
non-blocking :class:`IsolatedProcess` the farm builds on, and proof
that a group kill actually reaches orphaned grandchildren.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.conform.isolated import (
    REPO_SRC,
    IsolatedProcess,
    run_isolated,
)


def test_repo_src_points_at_the_importable_tree():
    assert os.path.isdir(os.path.join(REPO_SRC, "repro", "conform"))


def test_code_and_argv_are_mutually_exclusive():
    with pytest.raises(ValueError):
        IsolatedProcess()
    with pytest.raises(ValueError):
        IsolatedProcess(code="pass", argv=[sys.executable, "-c", "pass"])


def test_argv_mode_runs_a_module_with_repro_on_path():
    proc = IsolatedProcess(
        argv=[sys.executable, "-c",
              "import repro.conform.farm as farm; "
              "print(farm.DEFAULT_DEPTH)"])
    result = proc.wait()
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "5"
    assert result.crash_reason == "exited with code 0"


def test_deadline_is_measured_from_spawn():
    """remaining() counts down from construction, so a coordinator that
    waits on workers sequentially shares one wall clock with them."""
    proc = IsolatedProcess(code="pass", timeout=30.0)
    try:
        assert proc.remaining() <= 30.0
        time.sleep(0.05)
        assert proc.remaining() < 30.0
    finally:
        assert proc.wait().returncode == 0


def test_explicit_group_kill_is_reported_as_a_crash():
    proc = IsolatedProcess(code="import time; time.sleep(600)",
                           timeout=60.0)
    proc.kill_group()
    result = proc.wait()
    assert result.crashed and not result.timed_out
    assert "SIGKILL" in result.crash_reason


def test_group_kill_reaches_orphaned_grandchildren():
    """The payload forks a grandchild and lets its parent exit, so the
    sleeper is reparented to init — outside the child's process *tree*
    but still inside its process *group*, which is what the deadline
    kill targets."""
    code = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    gpid = os.fork()\n"
        "    if gpid == 0:\n"
        "        time.sleep(600)\n"
        "    print(gpid, flush=True)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "time.sleep(600)\n"
    )
    start = time.monotonic()
    result = run_isolated(code, timeout=1.0)
    assert result.timed_out
    assert result.crash_reason == "timed out (process group killed)"
    assert time.monotonic() - start < 10
    grandchild = int(result.stdout.strip())
    # the orphan must die: either fully gone, or a zombie awaiting
    # init's reap.  SIGKILL to a group is delivered asynchronously, so
    # poll until it has landed — but never past the test's 10 s budget
    state = None
    while time.monotonic() - start < 10:
        try:
            with open(f"/proc/{grandchild}/stat", "r") as handle:
                fields = handle.read()
        except FileNotFoundError:
            return  # already reaped — even better
        state = fields.rsplit(")", 1)[1].split()[0]
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
    raise AssertionError(f"grandchild survived in state {state}")
