"""Golden corpus: seeded random programs pin the memory engine.

A fixed corpus of seeded operation programs — map/unmap (malloc +
exit teardown), fork, CoW break (parent and child stores, single and
batched runs) and tag-store traffic — runs through the public
:class:`~repro.api.Session` facade under every copy strategy, with and
without a tracer.  Each run is reduced to one digest of every simulated
observable (clock, attribution buckets, event counters, page dumps with
bytes/tags/refcounts/permissions, the error list and, when traced, the
ordered event stream) and compared against ``tests/golden/
twin_corpus.json``.

The digests were recorded while the simulator still carried a second,
self-contained per-page storage representation next to the vectorized
engine; both agreed on every program, so the file pins the behaviour
that used to be cross-checked between two engines.  A digest mismatch
means a simulated observable changed.  If the change is intended,
regenerate with ``PYTHONPATH=src python -m tests.test_twin_representation``
and say why in the commit.
"""

import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Session

PAGE = 4096
PAGES = 4  # per-process scratch buffer driven by the operations
MAX_PROCS = 4

GOLDEN = pathlib.Path(__file__).parent / "golden" / "twin_corpus.json"

#: corpus shape: programs per strategy, operations per program
CORPUS_SEEDS = range(8)
CORPUS_OPS = 24
STRATEGIES = ("full", "coa", "copa")

_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1), st.integers(0, 255),
              st.integers(0, 15)),
    st.tuples(st.just("store_run"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, 255)),
    st.tuples(st.just("store_cap"), st.integers(0, MAX_PROCS - 1),
              st.integers(0, PAGES - 1), st.integers(0, 15)),
    st.tuples(st.just("map"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("exit")),
)


def seeded_program(seed, length=CORPUS_OPS):
    """A deterministic program over the same operation alphabet as
    :data:`_op` (each kind equally likely, then uniform arguments)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        kind = rng.choice(("store", "store_run", "store_cap", "map",
                           "fork", "exit"))
        proc = rng.randrange(MAX_PROCS)
        if kind == "store":
            ops.append((kind, proc, rng.randrange(PAGES),
                        rng.randrange(256), rng.randrange(16)))
        elif kind == "store_run":
            ops.append((kind, proc, rng.randrange(256)))
        elif kind == "store_cap":
            ops.append((kind, proc, rng.randrange(PAGES),
                        rng.randrange(16)))
        elif kind == "map":
            ops.append((kind, proc))
        else:
            ops.append((kind,))
    return ops


def _run_ops(sim, ops):
    """Apply ``ops``; return the live contexts and any (index, error)
    pairs — errors are part of the pinned behaviour."""
    root = sim.spawn(name="root")
    root.set_reg("c19", root.malloc(PAGES * PAGE))
    stack = [root]
    errors = []
    for index, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "fork":
                if len(stack) < MAX_PROCS:
                    stack.append(stack[-1].fork())
            elif kind == "exit":
                if len(stack) > 1:
                    dying = stack.pop()
                    parent = stack[-1]
                    dying.exit(0)
                    parent.wait(dying.proc.pid)
            elif kind == "map":
                stack[op[1] % len(stack)].malloc(PAGE)
            else:
                ctx = stack[op[1] % len(stack)]
                cap = ctx.reg("c19")
                if kind == "store":
                    ctx.store(cap, bytes([op[3]]),
                              offset=op[2] * PAGE + op[4] * 16)
                elif kind == "store_run":
                    ctx.store_run(cap, bytes([op[2]] * 16),
                                  [page * PAGE for page in range(PAGES)])
                elif kind == "store_cap":
                    ctx.store_cap(cap, cap.add(op[3]),
                                  offset=op[2] * PAGE + op[3] * 16)
        except Exception as exc:  # noqa: BLE001 - errors are pinned too
            errors.append((index, type(exc).__name__, str(exc)))
    return stack, errors


class _Recorder:
    def __init__(self):
        self.events = []

    def record(self, event, **fields):
        self.events.append((event, tuple(sorted(fields.items()))))


def _drive(strategy, ops, traced=False):
    """Run ``ops`` in a fresh session; return every simulated observable."""
    sim = Session(strategy=strategy, seed=5).boot()
    recorder = None
    if traced:
        recorder = _Recorder()
        sim.machine.tracer = recorder
    stack, errors = _run_ops(sim, ops)
    machine = sim.machine
    dumps = []
    for ctx in stack:
        space = ctx.space
        lo = ctx.proc.region_base // PAGE
        hi = (ctx.proc.region_top + PAGE - 1) // PAGE
        pages = []
        for vpn, frame, perms_int, cow, _note in space.mapped_items(lo, hi):
            frame_obj = machine.phys.frame(frame)
            pages.append((vpn - lo, perms_int, bool(cow),
                          machine.phys.refcount(frame),
                          frame_obj.read(0, PAGE),
                          tuple(frame_obj.tagged_granules())))
        dumps.append(pages)
    return {
        "errors": errors,
        "now_ns": machine.clock.now_ns,
        "buckets": dict(machine.clock.buckets),
        "counters": machine.counters.snapshot(),
        "allocated_frames": machine.phys.allocated_frames,
        "dumps": dumps,
        "events": None if recorder is None else recorder.events,
    }


def digest(observables):
    """sha256 over a canonical JSON rendering of ``_drive``'s result."""
    def _plain(value):
        if isinstance(value, (bytes, bytearray)):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return [_plain(item) for item in value]
        if isinstance(value, dict):
            return {str(key): _plain(item) for key, item in value.items()}
        return value

    text = json.dumps(_plain(observables), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus():
    """``{program id: (strategy, ops, traced)}`` for the whole corpus."""
    out = {}
    for strategy in STRATEGIES:
        for seed in CORPUS_SEEDS:
            ops = seeded_program(seed)
            for traced in (False, True):
                key = f"{strategy}-s{seed}{'-traced' if traced else ''}"
                out[key] = (strategy, ops, traced)
    return out


def corpus_digests():
    return {key: digest(_drive(*program))
            for key, program in corpus().items()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["programs"]


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(corpus())


@pytest.mark.parametrize("key", sorted(corpus()))
def test_corpus_matches_golden_digest(key):
    assert digest(_drive(*corpus()[key])) == _golden()[key], (
        f"{key}: simulated observables drifted from {GOLDEN.name}")


def test_corpus_programs_exercise_every_operation():
    kinds = {op[0] for program in corpus().values() for op in program[1]}
    assert kinds == {"store", "store_run", "store_cap", "map", "fork",
                     "exit"}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(strategy=st.sampled_from(STRATEGIES),
       ops=st.lists(_op, max_size=24))
def test_runs_are_independent_of_host_state(strategy, ops):
    """A second run in the same interpreter — with every process-wide
    memo warm from the first — reproduces every observable."""
    assert _drive(strategy, ops) == _drive(strategy, ops)


if __name__ == "__main__":
    from repro.harness.reportio import write_report

    write_report({"schema": "repro.twin-corpus/v1",
                  "programs": corpus_digests()}, str(GOLDEN))
    print(f"wrote {GOLDEN}")
