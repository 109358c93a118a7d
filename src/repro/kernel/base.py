"""The OS interface and the shared POSIX syscall surface.

Both the μFork SASOS and the monolithic baseline expose the same
syscall set to guest code (open/read/write, pipes, sockets, fork/wait,
shared memory, ...), so applications in :mod:`repro.apps` run unmodified
on either — the transparency requirement (R2).  What differs per OS is
the *mechanism*: entry cost (sealed sentry vs trap), fork implementation,
memory layout, and isolation charges.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.recovery import retry_syscall
from repro.cheri.capability import Capability
from repro.errors import (
    InvalidArgument,
    NoChildProcess,
    NoSuchProcess,
    WouldBlock,
)
from repro.hw.paging import AddressSpace
from repro.kernel import signals as _signals
from repro.kernel.fdtable import FDTable, FileDescription
from repro.kernel.ipc import MessageQueue, Pipe
from repro.kernel.net import NetworkStack
from repro.kernel.sched import make_scheduler
from repro.kernel.syscalls import IsolationConfig, SyscallLayer
from repro.kernel.task import PidAllocator, Process, ProcessTable
from repro.kernel.vfs import O_RDONLY, RamDisk
from repro.machine import Machine


class SharedMemoryObject:
    """A named shared-memory object (``shm_open`` §3.7)."""

    def __init__(self, name: str, frames: List[int]) -> None:
        self.name = name
        self.frames = frames

    @property
    def size_pages(self) -> int:
        return len(self.frames)


class AbstractOS(abc.ABC):
    """Common OS plumbing + the POSIX syscall handlers."""

    #: short identifier used in reports ("ufork", "cheribsd", "nephele")
    kind: str = "abstract"

    def __init__(self, machine: Optional[Machine] = None,
                 trapless_syscalls: bool = True,
                 isolation: Optional[IsolationConfig] = None,
                 same_address_space: bool = True) -> None:
        self.machine = machine or Machine()
        self.isolation = isolation or IsolationConfig.full()
        self.syscalls = SyscallLayer(self.machine, trapless_syscalls,
                                     self.isolation)
        self.ramdisk = RamDisk(self.machine)
        self.net = NetworkStack(self.machine)
        self.pids = PidAllocator()
        self.procs = ProcessTable()
        self.sched = make_scheduler(self.machine, same_address_space)
        self._mqueues: Dict[str, MessageQueue] = {}
        self._shm: Dict[str, SharedMemoryObject] = {}
        #: lazily-filled syscall dispatch table: name → (bound handler,
        #: interned span label), replacing a per-call getattr + f-string.
        #: Unknown names are never cached — the fuzzer sends garbage and
        #: a poisoned entry would shadow a handler added to a subclass.
        self._dispatch: Dict[str, Tuple[Any, str]] = {}
        self.machine.register_kernel(self)

    # ------------------------------------------------------------------
    # OS-specific operations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def spawn(self, image: Any, name: str) -> Process:
        """Load a fresh program as a new process."""

    @abc.abstractmethod
    def fork(self, proc: Process) -> Process:
        """POSIX fork of ``proc``; returns the child process."""

    @abc.abstractmethod
    def space_of(self, proc: Process) -> AddressSpace:
        """The address space ``proc``'s memory lives in."""

    @abc.abstractmethod
    def _teardown_memory(self, proc: Process) -> None:
        """Release a process's memory at exit."""

    @abc.abstractmethod
    def memory_of(self, proc: Process) -> float:
        """Memory consumed by ``proc`` (bytes; the Fig 5/8 metric)."""

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------

    def syscall(self, proc: Process, name: str, *args: Any,
                gate: Optional[Capability] = None) -> Any:
        """Invoke a syscall on behalf of ``proc``.

        Subclasses may override to enforce their entry mechanism (the
        SASOS checks the sealed gate); the shared implementation only
        dispatches.

        Observability: each invocation runs inside a ``syscall.<name>``
        span, so per-syscall latency lands in the
        ``span.syscall.<name>`` histogram and every cost charged by the
        handler (fork phases included) nests under it in the span tree.

        Chaos: with an engine attached, the ``kernel.sched.preempt``
        point may force a context switch at this kernel boundary, and
        the handler runs under the bounded retry loop — injected entry
        faults (EINTR/ENOMEM/EAGAIN) and rolled-back fork failures are
        retried with backoff instead of surfacing to the caller.
        """
        entry = self._dispatch.get(name)
        if entry is None:
            handler = getattr(self, f"sys_{name}", None)
            if handler is None:
                raise InvalidArgument(f"unknown syscall {name!r}")
            entry = (handler, f"syscall.{name}")
            self._dispatch[name] = entry
        handler, span_label = entry
        if not proc.alive:
            raise NoSuchProcess(f"process {proc.pid} has exited")
        with self.machine.obs.span(span_label):
            # kernel-boundary crossing: deliver pending signals first
            _signals.deliver_pending(self, proc)
            if not proc.alive:
                raise NoSuchProcess(f"process {proc.pid} was terminated")
            chaos = self.machine.chaos
            tap = self.machine.syscall_tap
            try:
                if chaos.enabled:
                    if chaos.should_fire("kernel.sched.preempt"):
                        self.sched.yield_current()
                    result = retry_syscall(self.machine,
                                           lambda: handler(proc, *args))
                else:
                    result = handler(proc, *args)
            except Exception as exc:
                if tap is not None:
                    tap(self, proc, name, args, None, exc)
                raise
            if tap is not None:
                tap(self, proc, name, args, result, None)
            return result

    def _enter(self, proc: Process, name: str, nargs: int,
               buffers: Sequence[int] = ()) -> None:
        self.syscalls.enter(name, nargs=nargs, buffer_bytes=buffers)

    # -- user-buffer plumbing ------------------------------------------------

    def _read_user(self, proc: Process, cap: Capability, size: int) -> bytes:
        """Copy bytes out of a user buffer (validated, unprivileged so
        copy strategies see the access)."""
        from repro.cheri.capability import Perm
        self.syscalls.validate_user_cap(proc, cap, size)
        cap.check_access(Perm.LOAD, size=size)
        return self.space_of(proc).read(cap.cursor, size)

    def _write_user(self, proc: Process, cap: Capability,
                    data: bytes) -> None:
        """Copy bytes into a user buffer (triggers CoW/CoA/CoPA breaks
        exactly as a user-mode store would)."""
        from repro.cheri.capability import Perm
        self.syscalls.validate_user_cap(proc, cap, len(data))
        cap.check_access(Perm.STORE, size=len(data))
        self.space_of(proc).write(cap.cursor, data)

    # ------------------------------------------------------------------
    # POSIX file syscalls
    # ------------------------------------------------------------------

    def sys_open(self, proc: Process, path: str, flags: int = O_RDONLY) -> int:
        self._enter(proc, "open", 2)
        handle = self.ramdisk.open(path, flags)
        desc = FileDescription(handle)
        return proc.fdtable.install(desc)

    def sys_close(self, proc: Process, fd: int) -> None:
        self._enter(proc, "close", 1)
        proc.fdtable.close(fd)

    def sys_read(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self._enter(proc, "read", 3, buffers=(size,))
        desc = proc.fdtable.get(fd)
        if not desc.readable:
            from repro.errors import BadFileDescriptor
            raise BadFileDescriptor(f"fd {fd} is not open for reading")
        data = desc.obj.read(desc, size)
        if data:
            self._write_user(proc, buf, data)
        return len(data)

    def sys_write(self, proc: Process, fd: int, buf: Capability,
                  size: int) -> int:
        self._enter(proc, "write", 3, buffers=(size,))
        desc = proc.fdtable.get(fd)
        if not desc.writable:
            from repro.errors import BadFileDescriptor
            raise BadFileDescriptor(f"fd {fd} is not open for writing")
        data = self._read_user(proc, buf, size)
        return desc.obj.write(desc, data)

    def sys_lseek(self, proc: Process, fd: int, offset: int,
                  whence: int) -> int:
        self._enter(proc, "lseek", 3)
        desc = proc.fdtable.get(fd)
        return desc.obj.seek(desc, offset, whence)

    def sys_dup(self, proc: Process, fd: int) -> int:
        self._enter(proc, "dup", 1)
        return proc.fdtable.dup(fd)

    def sys_dup2(self, proc: Process, oldfd: int, newfd: int) -> int:
        self._enter(proc, "dup2", 2)
        return proc.fdtable.dup2(oldfd, newfd)

    def sys_unlink(self, proc: Process, path: str) -> None:
        self._enter(proc, "unlink", 1)
        self.ramdisk.unlink(path)

    def sys_rename(self, proc: Process, old: str, new: str) -> None:
        self._enter(proc, "rename", 2)
        self.ramdisk.rename(old, new)

    def sys_stat(self, proc: Process, path: str) -> int:
        self._enter(proc, "stat", 1)
        return self.ramdisk.stat_size(path)

    def sys_mkdir(self, proc: Process, path: str) -> None:
        self._enter(proc, "mkdir", 1)
        self.ramdisk.mkdir(path)

    # ------------------------------------------------------------------
    # Pipes and message queues
    # ------------------------------------------------------------------

    def sys_pipe(self, proc: Process) -> Tuple[int, int]:
        self._enter(proc, "pipe", 0)
        pipe = Pipe(self.machine)
        read_fd = proc.fdtable.install(
            FileDescription(pipe.read_end(), writable=False))
        write_fd = proc.fdtable.install(
            FileDescription(pipe.write_end(), readable=False))
        return read_fd, write_fd

    def sys_mq_open(self, proc: Process, name: str) -> MessageQueue:
        self._enter(proc, "mq_open", 1)
        queue = self._mqueues.get(name)
        if queue is None:
            queue = MessageQueue(self.machine, name=name)
            self._mqueues[name] = queue
        return queue

    def sys_mq_send(self, proc: Process, queue: MessageQueue, data: bytes,
                    priority: int = 0) -> None:
        self._enter(proc, "mq_send", 3, buffers=(len(data),))
        queue.send(data, priority)

    def sys_mq_receive(self, proc: Process, queue: MessageQueue) -> bytes:
        self._enter(proc, "mq_receive", 1)
        return queue.receive()

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------

    def sys_listen(self, proc: Process, port: int, backlog: int = 128) -> int:
        self._enter(proc, "listen", 2)
        listener = self.net.listen(port, backlog)
        return proc.fdtable.install(FileDescription(listener))

    def sys_accept(self, proc: Process, listen_fd: int) -> int:
        self._enter(proc, "accept", 1)
        desc = proc.fdtable.get(listen_fd)
        endpoint = desc.obj.accept()
        return proc.fdtable.install(FileDescription(endpoint))

    def sys_connect(self, proc: Process, port: int) -> int:
        self._enter(proc, "connect", 1)
        endpoint = self.net.connect(port)
        return proc.fdtable.install(FileDescription(endpoint))

    def sys_send(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self._enter(proc, "send", 3, buffers=(size,))
        desc = proc.fdtable.get(fd)
        data = self._read_user(proc, buf, size)
        return desc.obj.send(data)

    def sys_recv(self, proc: Process, fd: int, buf: Capability,
                 size: int) -> int:
        self._enter(proc, "recv", 3, buffers=(size,))
        desc = proc.fdtable.get(fd)
        data = desc.obj.recv(size)
        if data:
            self._write_user(proc, buf, data)
        return len(data)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def sys_getpid(self, proc: Process) -> int:
        self._enter(proc, "getpid", 0)
        return proc.pid

    def sys_fork(self, proc: Process) -> Process:
        self._enter(proc, "fork", 0)
        return self.fork(proc)

    def sys_thread_create(self, proc: Process) -> Any:
        """Create an additional thread in the calling process (§3.4:
        "each μprocess may have many threads", all sharing its PID,
        memory region and fd table)."""
        self._enter(proc, "thread_create", 0)
        self.machine.charge(self.machine.costs.ufork_fixed_ns * 0.2,
                            "thread_create")
        task = proc.add_task()
        # the new thread starts from the caller's register state
        task.registers.copy_from(proc.main_task().registers)
        self.sched.add(task)
        return task

    def sys_spawn(self, proc: Process, image: Any, name: str) -> Process:
        """posix_spawn / vfork+exec (U1): start a *fresh* program as a
        child — no state duplication, loaded at a free location (§2.3,
        "Modern SASOSes and fork + exec support")."""
        self._enter(proc, "spawn", 2)
        child = self.spawn(image, name)
        child.parent = proc
        proc.children.append(child)
        return child

    def sys_exit(self, proc: Process, status: int = 0) -> None:
        self._enter(proc, "exit", 1)
        self._exit_process(proc, status)

    def sys_waitpid(self, proc: Process, pid: int = -1) -> Tuple[int, int]:
        """Reap an exited child; (pid, status).  WouldBlock if none has
        exited yet (drivers run children to completion, so this is rare)."""
        self._enter(proc, "waitpid", 1)
        candidates = [
            child for child in proc.children
            if not child.reaped and (pid == -1 or child.pid == pid)
        ]
        if not candidates:
            raise NoChildProcess(f"process {proc.pid} has no such children")
        for child in candidates:
            if not child.alive:
                child.reaped = True
                self.procs.remove(child.pid)
                return child.pid, child.exit_status
        raise WouldBlock("no exited children yet")

    def sys_yield(self, proc: Process) -> None:
        self._enter(proc, "yield", 0)
        self.sched.yield_current()

    # ------------------------------------------------------------------
    # Signals (paper §4.5: per-process kernel state)
    # ------------------------------------------------------------------

    def sys_kill(self, proc: Process, pid: int, signum: int) -> None:
        self._enter(proc, "kill", 2)
        target = self.procs.get(pid)
        _signals.send(self, target, signum)

    def sys_signal(self, proc: Process, signum: int, handler) -> None:
        self._enter(proc, "signal", 2)
        _signals.register(proc, signum, handler)

    def sys_sigpending(self, proc: Process):
        self._enter(proc, "sigpending", 0)
        return list(_signals.signal_state(proc).pending)

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def sys_shm_open(self, proc: Process, name: str,
                     size: int) -> SharedMemoryObject:
        """Create-or-open a named shared memory object."""
        self._enter(proc, "shm_open", 2)
        shm = self._shm.get(name)
        if shm is None:
            page = self.machine.config.page_size
            pages = (size + page - 1) // page
            frames = [self.machine.phys.alloc() for _ in range(pages)]
            shm = SharedMemoryObject(name, frames)
            self._shm[name] = shm
        return shm

    def sys_shm_map(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        self._enter(proc, "shm_map", 1)
        return self._map_shared(proc, shm)

    def _map_shared(self, proc: Process, shm: SharedMemoryObject) -> Capability:
        raise InvalidArgument("shared memory not supported by this OS")

    # ------------------------------------------------------------------
    # Exit plumbing
    # ------------------------------------------------------------------

    def _exit_process(self, proc: Process, status: int) -> None:
        if not proc.alive:
            return
        proc.exit_status = status
        proc.fdtable.close_all()
        from repro.kernel.task import TaskState
        for task in proc.tasks:
            task.state = TaskState.EXITED
            self.sched.remove(task)
        self._teardown_memory(proc)
        if proc.parent is not None and proc.parent.alive:
            _signals.signal_state(proc.parent).pending.append(
                _signals.SIGCHLD
            )
        self.machine.trace("exit", pid=proc.pid, status=status)
        if proc.parent is None:
            proc.reaped = True
            self.procs.remove(proc.pid)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def clock(self):
        return self.machine.clock

    def process_count(self) -> int:
        return len(self.procs.alive())
