"""Run fork-heavy work in isolated process groups.

The pattern (borrowed from pytest-isolated's subprocess execution
model) is what keeps host-oracle tests and exploration-farm workers
from ever wedging their parent: the payload runs in its own session —
so its whole fork tree shares one process group — under a hard
wall-clock deadline; on overrun the *group* gets SIGKILL, which
reaches orphans even after they have been reparented to init, and the
child is always reaped.  Crashes are reported with the signal name,
not just a return code.

Two entry points:

* :func:`run_isolated` — the original one-shot helper: run a code
  snippet, block until it exits (or the deadline kills it), return an
  :class:`IsolatedResult`.
* :class:`IsolatedProcess` — the non-blocking form the exploration
  farm (:mod:`repro.conform.farm`) builds on: spawn many workers
  concurrently (each with its own group and deadline measured from
  *spawn*, so N workers waited on sequentially still share one wall
  clock), then :meth:`~IsolatedProcess.wait` each in turn.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import repro

#: the public surface (pinned by tests/test_sec_attacks.py)
__all__ = ["REPO_SRC", "IsolatedProcess", "IsolatedResult", "run_isolated"]

#: directory that makes ``import repro`` work in a child interpreter —
#: wherever this very package was imported from
REPO_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class IsolatedResult:
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def crashed(self) -> bool:
        return self.returncode < 0

    @property
    def crash_reason(self) -> str:
        """Human-readable outcome, pytest-isolated style."""
        if self.timed_out:
            return "timed out (process group killed)"
        if self.returncode < 0:
            try:
                name = signal.Signals(-self.returncode).name
            except ValueError:
                name = f"signal {-self.returncode}"
            return f"crashed with {name}"
        return f"exited with code {self.returncode}"


class IsolatedProcess:
    """One subprocess in its own session / process group.

    Exactly one of ``code`` (a ``python -c`` snippet) or ``argv`` (a
    full command line, e.g. ``[sys.executable, "-m", ...]``) selects
    the payload.  The deadline starts at *spawn*: a coordinator that
    launches N workers and then waits on them one by one gives every
    worker the same wall-clock budget, not ``timeout`` each.
    """

    def __init__(self, code: Optional[str] = None,
                 argv: Optional[List[str]] = None,
                 timeout: float = 20.0,
                 pythonpath: str = REPO_SRC) -> None:
        if (code is None) == (argv is None):
            raise ValueError("exactly one of code= or argv= is required")
        if code is not None:
            argv = [sys.executable, "-c", code]
        self.timeout = timeout
        env = dict(os.environ)
        env["PYTHONPATH"] = pythonpath
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
            text=True,
            env=env,
        )
        self._deadline = time.monotonic() + timeout

    @property
    def pid(self) -> int:
        return self.proc.pid

    def remaining(self) -> float:
        """Wall-clock seconds left before the group gets SIGKILL."""
        return max(0.0, self._deadline - time.monotonic())

    def kill_group(self) -> None:
        """SIGKILL the whole session — reaches orphaned grandchildren
        that were reparented to init after their parent exited."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def wait(self) -> IsolatedResult:
        """Block until exit or deadline; on overrun, group-kill and
        reap.  Always returns (never raises TimeoutExpired)."""
        try:
            out, err = self.proc.communicate(timeout=self.remaining())
            return IsolatedResult(self.proc.returncode, out, err,
                                  timed_out=False)
        except subprocess.TimeoutExpired:
            self.kill_group()
            out, err = self.proc.communicate()
            return IsolatedResult(self.proc.returncode, out, err,
                                  timed_out=True)


def run_isolated(code: str, timeout: float = 20.0,
                 pythonpath: str = REPO_SRC) -> IsolatedResult:
    """Execute ``code`` with the interpreter in a new session; kill the
    whole process group on timeout and reap before returning."""
    return IsolatedProcess(code=code, timeout=timeout,
                           pythonpath=pythonpath).wait()
