"""The process-isolation helper itself: timeouts reach orphaned
grandchildren, crashes are reported by signal name, and a healthy
snippet can import the repro tree via the injected PYTHONPATH.
"""

from __future__ import annotations

import os
import signal
import time

from repro.conform.isolated import run_isolated


def test_clean_exit_with_repro_on_path():
    result = run_isolated(
        "import repro.conform.dsl as dsl; print(len(dsl.SIG_NAMES))")
    assert result.returncode == 0, result.stderr
    assert not result.crashed and not result.timed_out
    assert result.stdout.strip() == "5"
    assert result.crash_reason == "exited with code 0"


def test_timeout_kills_the_whole_fork_tree():
    # parent forks a grandchild-spawning child then exits, so the
    # sleeper is reparented to init; the group kill must still get it
    code = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    if os.fork() == 0:\n"
        "        time.sleep(600)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "time.sleep(600)\n"
    )
    start = time.monotonic()
    result = run_isolated(code, timeout=1.0)
    assert result.timed_out
    assert result.crash_reason == "timed out (process group killed)"
    assert time.monotonic() - start < 10
    # nothing from the group is left: a sleeper that survived the
    # killpg would still be burning its 600s here
    assert result.returncode != 0


def test_crash_is_reported_by_signal_name():
    result = run_isolated(
        "import os, signal; os.kill(os.getpid(), signal.SIGSEGV)")
    assert result.crashed
    assert "SIGSEGV" in result.crash_reason
