"""Open-loop load generation: arrival processes and the run driver."""

import pytest

from repro.sim import Acquire, Clock, Delay, Kernel, Release, SimError
from repro.sim.loadgen import ARRIVAL_PROCESSES, arrival_times, run_open_loop


class TestArrivalTimes:
    def test_same_seed_same_schedule(self):
        for process in ARRIVAL_PROCESSES:
            first = arrival_times(50, 20.0, process=process, seed=7)
            second = arrival_times(50, 20.0, process=process, seed=7)
            assert first == second

    def test_different_seeds_differ(self):
        assert arrival_times(20, 10.0, seed=1) != arrival_times(20, 10.0, seed=2)

    def test_strictly_increasing_from_start(self):
        times = arrival_times(100, 50.0, seed=3, start=500.0)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 500.0

    def test_mean_gap_tracks_offered_load(self):
        # 1000 poisson arrivals at 10/s: the mean gap converges on 100ms.
        times = arrival_times(1000, 10.0, seed=11)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(100.0, rel=0.1)

    def test_uniform_gaps_are_bounded(self):
        times = arrival_times(200, 10.0, process="uniform", seed=5)
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert all(50.0 <= gap <= 150.0 for gap in gaps)

    def test_own_rng_stream_is_isolated(self):
        # Interleaving other draws must not perturb the schedule.
        import random

        random.seed(999)
        first = arrival_times(10, 10.0, seed=4)
        random.random()
        second = arrival_times(10, 10.0, seed=4)
        assert first == second

    def test_invalid_arguments_raise_sim_error(self):
        with pytest.raises(SimError, match="negative"):
            arrival_times(-1, 10.0)
        with pytest.raises(SimError, match="positive"):
            arrival_times(5, 0.0)
        with pytest.raises(SimError, match="unknown arrival process"):
            arrival_times(5, 10.0, process="bursty")

    def test_zero_arrivals_is_empty(self):
        assert arrival_times(0, 10.0) == []


class TestRunOpenLoop:
    def run(self, arrivals, make_task, **pool):
        kernel = Kernel(clock=Clock())
        if pool:
            kernel.configure_pool("h", **pool)
        result = run_open_loop(kernel, arrivals, make_task, offered_per_sec=10.0)
        return kernel, result

    @staticmethod
    def service(ms=10.0):
        def make_task(i):
            def request():
                yield Acquire("h")
                try:
                    yield Delay(ms)
                finally:
                    yield Release("h")
                return i

            return request()

        return make_task

    def test_counts_completions_and_measures_latency(self):
        kernel, result = self.run([0.0, 1.0, 2.0], self.service(10.0))
        assert result.completed == 3
        assert result.rejected == 0 and result.failed == 0
        # Back-to-back on one worker: service ends at 10/20/30.
        assert result.latencies.samples() == [10.0, 19.0, 28.0]
        assert result.queueing.samples() == [0.0, 9.0, 18.0]
        assert result.first_arrival == 0.0
        assert result.last_completion == 30.0
        assert result.max_queue_depth == {"h": 2}

    def test_open_loop_does_not_throttle(self):
        # 10 arrivals in 10ms against a 10ms server: every request is
        # spawned on schedule, so queueing grows linearly instead of the
        # arrival stream slowing down.
        kernel, result = self.run(
            [float(i) for i in range(10)], self.service(10.0),
            workers=1, queue_limit=64,
        )
        assert result.completed == 10
        assert result.queueing.max == pytest.approx(81.0)

    def test_overflow_counts_as_rejected(self):
        kernel, result = self.run(
            [0.0, 1.0, 2.0, 3.0], self.service(50.0),
            workers=1, queue_limit=1,
        )
        assert result.completed == 2
        assert result.rejected == 2
        assert result.failed == 0
        assert kernel.pool("h").rejected == 2

    def test_other_failures_are_not_rejections(self):
        def make_task(i):
            def request():
                yield Delay(1.0)
                if i == 1:
                    raise RuntimeError("marshalling exploded")
                return i

            return request()

        _, result = self.run([0.0, 1.0, 2.0], make_task)
        assert result.completed == 2
        assert result.failed == 1
        assert result.errors == ["RuntimeError"]

    def test_throughput_over_the_observed_span(self):
        _, result = self.run([0.0, 500.0], self.service(500.0))
        # First arrival t=0, last completion t=1000 → 2 per virtual second.
        assert result.span_ms == 1000.0
        assert result.throughput_per_sec == pytest.approx(2.0)

    def test_empty_run_summary_is_well_formed(self):
        _, result = self.run([], self.service())
        summary = result.summary()
        assert summary["completed"] == 0
        assert summary["latency"] == {"count": 0}
        assert summary["throughput_per_sec"] == 0.0


class TestRigDeterminism:
    def test_same_seed_identical_summaries(self):
        from repro.bench.loadgen import run_load

        def once():
            return run_load(
                "wsrf", rate_per_sec=30.0, requests=12, seed=42,
            ).summary()

        assert once() == once()

    def test_summary_reports_queueing_under_saturation(self):
        from repro.bench.loadgen import run_load

        result = run_load(
            "transfer", rate_per_sec=40.0, requests=12, seed=42,
        )
        assert result.completed == 12
        assert result.queueing.percentile(95) > 0.0
        assert max(result.max_queue_depth.values()) >= 1
