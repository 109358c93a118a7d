"""Tests for the discrete-event concurrency models (Figs 6/7 machinery)."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.sim import simulate_closed_workers, simulate_fork_pipeline
from tests import sim_oracle as oracle
from tests.sim_oracle import EventSim

SECOND = 1_000_000_000


class TestEventSim:
    def test_events_run_in_time_order(self):
        sim = EventSim()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run_until(100)
        assert order == ["a", "b", "c"]
        assert sim.now == 100

    def test_same_time_fifo(self):
        sim = EventSim()
        order = []
        sim.schedule(5, lambda: order.append(1))
        sim.schedule(5, lambda: order.append(2))
        sim.run_until(10)
        assert order == [1, 2]

    def test_events_past_deadline_not_run(self):
        sim = EventSim()
        ran = []
        sim.schedule(50, lambda: ran.append(True))
        sim.run_until(40)
        assert not ran

    def test_schedule_in_past_rejected(self):
        sim = EventSim()
        sim.schedule(10, lambda: sim.schedule(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run_until(20)

    def test_cascading_events(self):
        sim = EventSim()
        count = []

        def tick():
            count.append(sim.now)
            if sim.now < 50:
                sim.schedule(sim.now + 10, tick)

        sim.schedule(0, tick)
        sim.run_until(100)
        assert count == [0, 10, 20, 30, 40, 50]


class TestForkPipeline:
    def test_fork_bound_regime(self):
        """When fork is slow, throughput ~ 1/fork regardless of cores."""
        result = simulate_fork_pipeline(
            fork_ns=1_000_000, child_ns=100_000, worker_cores=3,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(1000, rel=0.05)

    def test_worker_bound_regime(self):
        """When fork is fast, throughput ~ cores / child time."""
        result = simulate_fork_pipeline(
            fork_ns=10_000, child_ns=1_000_000, worker_cores=3,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(3000, rel=0.05)

    def test_scales_with_cores_until_fork_bound(self):
        results = [
            simulate_fork_pipeline(200_000, 500_000, cores,
                                   duration_ns=SECOND).throughput_per_s
            for cores in (1, 2, 3)
        ]
        assert results[1] > 1.8 * results[0]
        # at 3 cores the 200 us fork caps the rate at ~5000/s
        assert results[2] == pytest.approx(5000, rel=0.1)

    def test_zero_duration(self):
        result = simulate_fork_pipeline(1000, 1000, 1, duration_ns=0)
        assert result.completions == 0
        assert result.throughput_per_s == 0.0


class TestClosedWorkers:
    def test_single_worker_rate(self):
        result = simulate_closed_workers(
            cpu_ns=50_000, io_ns=50_000, workers=1, cores=1,
            duration_ns=SECOND,
        )
        assert result.throughput_per_s == pytest.approx(10_000, rel=0.02)

    def test_workers_overlap_io_on_one_core(self):
        """The Fig 7 effect: extra workers fill the I/O gaps."""
        one = simulate_closed_workers(80_000, 20_000, workers=1, cores=1,
                                      duration_ns=SECOND)
        three = simulate_closed_workers(80_000, 20_000, workers=3, cores=1,
                                        duration_ns=SECOND)
        assert three.throughput_per_s > one.throughput_per_s
        # but bounded by the CPU: at most 1/cpu
        assert three.throughput_per_s <= 1e9 / 80_000 * 1.01

    def test_scales_with_cores(self):
        one = simulate_closed_workers(100_000, 10_000, workers=1, cores=1,
                                      duration_ns=SECOND)
        three = simulate_closed_workers(100_000, 10_000, workers=3, cores=3,
                                        duration_ns=SECOND)
        assert three.throughput_per_s == pytest.approx(
            3 * one.throughput_per_s, rel=0.05
        )

    def test_big_kernel_lock_limits_multicore(self):
        """Unikraft's big kernel lock (§4.5): serialized kernel time caps
        multicore scaling."""
        free = simulate_closed_workers(100_000, 0, workers=4, cores=4,
                                       duration_ns=SECOND,
                                       kernel_lock_fraction=0.0)
        locked = simulate_closed_workers(100_000, 0, workers=4, cores=4,
                                         duration_ns=SECOND,
                                         kernel_lock_fraction=1.0)
        assert locked.throughput_per_s < 0.35 * free.throughput_per_s
        # fully-serialized kernel ~ single-core rate
        assert locked.throughput_per_s == pytest.approx(10_000, rel=0.1)

    def test_lock_irrelevant_on_one_core(self):
        base = simulate_closed_workers(50_000, 5_000, workers=2, cores=1,
                                       duration_ns=SECOND)
        locked = simulate_closed_workers(50_000, 5_000, workers=2, cores=1,
                                         duration_ns=SECOND,
                                         kernel_lock_fraction=0.9)
        assert locked.throughput_per_s >= 0.9 * base.throughput_per_s


class TestInputValidation:
    def test_zero_cost_request_rejected(self):
        """A request that costs nothing never advanced the clock: the
        model used to loop forever."""
        with pytest.raises(ValueError, match="cpu_ns and io_ns"):
            simulate_closed_workers(0, 0, 1, 1, duration_ns=1000)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cpu_ns and io_ns"):
            simulate_closed_workers(-5, 10, 1, 1, duration_ns=1000)

    @pytest.mark.parametrize("fraction", [1.5, -0.1])
    def test_lock_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="kernel_lock_fraction"):
            simulate_closed_workers(100, 100, 2, 2, duration_ns=SECOND,
                                    kernel_lock_fraction=fraction)

    def test_no_cores_rejected(self):
        with pytest.raises(ValueError, match="cores"):
            simulate_closed_workers(100, 100, 1, 0, duration_ns=1000)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            simulate_closed_workers(100, 100, -1, 1, duration_ns=1000)

    def test_no_workers_complete_nothing(self):
        result = simulate_closed_workers(100, 100, 0, 1, duration_ns=1000)
        assert result.completions == 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="duration_ns"):
            simulate_closed_workers(100, 100, 1, 1, duration_ns=-1)
        with pytest.raises(ValueError, match="duration_ns"):
            simulate_fork_pipeline(100, 100, 1, duration_ns=-1)

    def test_no_worker_cores_rejected(self):
        with pytest.raises(ValueError, match="worker_cores"):
            simulate_fork_pipeline(1000, 1000, 0, duration_ns=SECOND)

    def test_zero_cost_fork_rejected(self):
        with pytest.raises(ValueError, match="fork_ns and child_ns"):
            simulate_fork_pipeline(0, 0, 1, duration_ns=1000)

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError, match="queue_depth"):
            simulate_fork_pipeline(1000, 1000, 1, duration_ns=SECOND,
                                   queue_depth=0)


# The per-request costs fig6/fig7 measure on the kernel simulation.
NGINX = {"ufork": (35146, 5200), "ufork_tocttou": (37900, 5200),
         "cheribsd": (39260, 5200)}
FAAS = {"ufork": (71315, 503724), "cheribsd": (215280, 509498)}

# fig7's distinct calls as (profile, lock fraction, workers, cores), with
# the per-event oracle's completions over the harness's 10 s window
# (its one-worker multicore call is the one-core call)
FIG7_CALLS = [
    ("ufork", 0.35, 1, 1, 247856),
    ("ufork", 0.35, 2, 1, 284527),
    ("ufork", 0.35, 3, 1, 284527),
    ("ufork_tocttou", 0.35, 1, 1, 232018),
    ("ufork_tocttou", 0.35, 2, 1, 263852),
    ("ufork_tocttou", 0.35, 3, 1, 263852),
    ("cheribsd", 0.0, 1, 1, 224921),
    ("cheribsd", 0.0, 2, 1, 254712),
    ("cheribsd", 0.0, 3, 1, 254712),
    ("cheribsd", 0.0, 2, 2, 449842),
    ("cheribsd", 0.0, 3, 3, 674763),
]
# fig6's distinct calls as (profile, cores), with the oracle's
# completions over 10 s (μFork with TOCTTOU protection measures the
# same costs as μFork)
FIG6_CALLS = [
    ("ufork", 1, 19851), ("ufork", 2, 39702), ("ufork", 3, 59553),
    ("cheribsd", 1, 19626), ("cheribsd", 2, 39252), ("cheribsd", 3, 46448),
]


def _windows(first_ns, second_ns):
    """Simulated windows of up to a few hundred requests: too short for
    a whole period to be skipped, ending exactly on an event instant
    (an integer mix of the two costs), or anywhere."""
    cost = first_ns + second_ns
    return st.one_of(
        st.integers(0, cost - 1),
        st.builds(lambda m, n: m * first_ns + n * second_ns,
                  st.integers(0, 300), st.integers(0, 3)),
        st.integers(0, 300 * cost),
    )


@st.composite
def closed_worker_cases(draw):
    cpu_ns = draw(st.integers(0, 100_000))
    io_ns = draw(st.just(0) | st.integers(0, 100_000))
    assume(cpu_ns + io_ns > 0)
    return (cpu_ns, io_ns, draw(st.integers(0, 6)), draw(st.integers(1, 4)),
            draw(_windows(cpu_ns, io_ns)),
            draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))


@st.composite
def fork_pipeline_cases(draw):
    fork_ns = draw(st.integers(0, 300_000))
    child_ns = draw(st.integers(0 if fork_ns else 1, 1_000_000))
    return (fork_ns, child_ns, draw(st.integers(1, 4)),
            draw(_windows(fork_ns, child_ns)),
            draw(st.none() | st.integers(1, 8)))


class TestMatchesOracle:
    """The fast-forward engines report exactly the completions of the
    per-event engines in ``tests/sim_oracle.py``."""

    @pytest.mark.parametrize("name,lock,workers,cores,_", FIG7_CALLS)
    def test_fig7_calls_at_2s(self, name, lock, workers, cores, _):
        args = (*NGINX[name], workers, cores, 2 * SECOND, lock)
        assert (simulate_closed_workers(*args).completions
                == oracle.simulate_closed_workers(*args).completions)

    @pytest.mark.parametrize("name,lock,workers,cores,expected", FIG7_CALLS)
    def test_fig7_calls_at_10s(self, name, lock, workers, cores, expected):
        result = simulate_closed_workers(*NGINX[name], workers, cores,
                                         10 * SECOND, lock)
        assert result.completions == expected

    @pytest.mark.parametrize("name,cores,_", FIG6_CALLS)
    def test_fig6_calls_at_2s(self, name, cores, _):
        args = (*FAAS[name], cores, 2 * SECOND)
        assert (simulate_fork_pipeline(*args).completions
                == oracle.simulate_fork_pipeline(*args).completions)

    @pytest.mark.parametrize("name,cores,expected", FIG6_CALLS)
    def test_fig6_calls_at_10s(self, name, cores, expected):
        args = (*FAAS[name], cores, 10 * SECOND)
        assert simulate_fork_pipeline(*args).completions == expected
        assert oracle.simulate_fork_pipeline(*args).completions == expected

    @settings(max_examples=200, deadline=None)
    @given(closed_worker_cases())
    @example((50_000, 0, 4, 4, SECOND // 100, 1.0))
    @example((30, 70, 1, 1, 100 * 1000, 0.0))
    def test_closed_workers_property(self, case):
        assert (simulate_closed_workers(*case).completions
                == oracle.simulate_closed_workers(*case).completions)

    @settings(max_examples=200, deadline=None)
    @given(fork_pipeline_cases())
    @example((1000, 5000, 2, 200 * 1000 + 5000, None))
    @example((1000, 0, 1, 1000 * 1000, 1))
    def test_fork_pipeline_property(self, case):
        assert (simulate_fork_pipeline(*case).completions
                == oracle.simulate_fork_pipeline(*case).completions)


class TestPeriodJump:
    """A window of 10**15 ns would take the per-event engine ~10**10
    events; returning at all shows the whole periods were skipped."""

    LONG = 10**15

    @pytest.mark.parametrize("name,lock,workers,cores", [
        ("ufork", 0.35, 3, 1), ("cheribsd", 0.0, 3, 3),
    ])
    def test_closed_workers(self, name, lock, workers, cores):
        long, short = (
            simulate_closed_workers(*NGINX[name], workers, cores,
                                    window, lock).throughput_per_s
            for window in (self.LONG, 10 * SECOND))
        assert long == pytest.approx(short, rel=1e-4)

    @pytest.mark.parametrize("name,cores", [("ufork", 3), ("cheribsd", 3)])
    def test_fork_pipeline(self, name, cores):
        long, short = (
            simulate_fork_pipeline(*FAAS[name], cores,
                                   window).throughput_per_s
            for window in (self.LONG, 10 * SECOND))
        assert long == pytest.approx(short, rel=1e-4)
