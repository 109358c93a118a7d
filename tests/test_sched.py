"""Scheduler-queue hardening: removal is idempotent and torn-down tasks
can never be resurrected into the run queue (the chaos tier removes and
blocks blindly during mid-operation teardown).  The property tests at
the bottom fuzz the SMP work-stealing balancer against the same
invariants plus CPU affinity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.sched import Scheduler
from repro.kernel.task import Process, TaskState
from repro.machine import Machine


def make_task():
    proc = Process(pid=100, name="victim")
    return proc.add_task()


def make_sched():
    return Scheduler(Machine(), same_address_space=True)


class TestIdempotentRemoval:
    def test_remove_of_never_enqueued_task_is_noop(self):
        sched = make_sched()
        task = make_task()
        sched.remove(task)                 # must not raise
        assert sched.runnable_count == 0

    def test_double_remove_is_noop(self):
        sched = make_sched()
        task = make_task()
        sched.add(task)
        sched.remove(task)
        sched.remove(task)
        assert sched.runnable_count == 0

    def test_block_of_never_enqueued_task_is_safe(self):
        sched = make_sched()
        task = make_task()
        sched.block(task)                  # must not raise
        assert task.state is TaskState.BLOCKED
        assert sched.runnable_count == 0

    def test_remove_clears_current(self):
        sched = make_sched()
        task = make_task()
        sched.add(task)
        sched.switch_to(task)
        assert sched.current is task
        sched.remove(task)
        assert sched.current is None


class TestNoResurrection:
    def test_block_after_exit_does_not_resurrect(self):
        sched = make_sched()
        task = make_task()
        task.state = TaskState.EXITED
        sched.block(task)
        assert task.state is TaskState.EXITED     # not demoted to BLOCKED
        sched.wake(task)
        assert task.state is TaskState.EXITED     # and wake can't revive it
        assert sched.runnable_count == 0

    def test_add_refuses_exited_task(self):
        sched = make_sched()
        task = make_task()
        task.state = TaskState.EXITED
        sched.add(task)
        assert sched.runnable_count == 0

    def test_process_exit_marks_tasks_exited(self):
        from repro.apps.guest import GuestContext
        from repro.apps.hello import hello_world_image
        from repro.core import IsolationConfig, UForkOS

        os_ = UForkOS(machine=Machine(),
                      isolation=IsolationConfig.fault())
        ctx = GuestContext(os_, os_.spawn(hello_world_image(), "app"))
        task = ctx.proc.main_task()
        ctx.exit(0)
        assert task.state is TaskState.EXITED
        os_.sched.block(task)              # late blind block: still EXITED
        assert task.state is TaskState.EXITED
        os_.sched.add(task)                # and it cannot re-enter the queue
        assert all(t is not task for t in os_.sched.queued_tasks())


# ----------------------------------------------------------------------
# Work-stealing properties (SMP): affinity is inviolable and EXITED
# tasks stay dead, whatever the queue shapes look like
# ----------------------------------------------------------------------

NUM_CPUS = 4

#: one fuzzed task: (affinity mask or None, exited?, victim queue)
task_specs = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.sets(st.integers(0, NUM_CPUS - 1), min_size=1)),
        st.booleans(),
        st.integers(0, NUM_CPUS - 1),
    ),
    min_size=0, max_size=12,
)


def build_smp_sched(specs):
    sched = Scheduler(Machine(num_cpus=NUM_CPUS),
                      same_address_space=True)
    proc = Process(pid=100, name="fuzz")
    tasks = []
    for affinity, exited, queue in specs:
        task = proc.add_task()
        if affinity is not None:
            task.pin(*affinity)
        if exited:
            task.state = TaskState.EXITED
        # place directly: the fuzz controls queue shape, not _place()
        sched._queues[queue][task] = None
        tasks.append(task)
    return sched, tasks


@settings(max_examples=60, deadline=None)
@given(specs=task_specs, thief=st.integers(0, NUM_CPUS - 1))
def test_steal_never_violates_affinity(specs, thief):
    sched, _tasks = build_smp_sched(specs)
    stolen = sched.steal_into(thief)
    if stolen is not None:
        assert stolen.can_run_on(thief)
        assert stolen in sched._queues[thief]


@settings(max_examples=60, deadline=None)
@given(specs=task_specs, thief=st.integers(0, NUM_CPUS - 1))
def test_steal_never_resurrects_exited_task(specs, thief):
    sched, tasks = build_smp_sched(specs)
    stolen = sched.steal_into(thief)
    if stolen is not None:
        assert stolen.state is TaskState.RUNNABLE
    # no EXITED task may remain claimable anywhere after the pass
    exited = [task for task in tasks if task.state is TaskState.EXITED]
    for cpu in range(NUM_CPUS):
        picked = sched.pick_for_cpu(cpu)
        assert picked not in exited


@settings(max_examples=60, deadline=None)
@given(specs=task_specs)
def test_smp_remove_is_idempotent_under_fuzz(specs):
    sched, tasks = build_smp_sched(specs)
    for task in tasks:
        sched.remove(task)
        sched.remove(task)
    assert sched.runnable_count == 0
