"""Percentile / sample-set math (the loadgen's statistics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SampleSet, percentile

_samples = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


class TestPercentile:
    def test_exact_quantiles_on_known_distribution(self):
        # 0..100 inclusive: rank (n-1)*p/100 lands on integers exactly.
        samples = [float(i) for i in range(101)]
        assert percentile(samples, 0) == 0.0
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_linear_interpolation_between_ranks(self):
        assert percentile([10.0, 20.0], 50) == 15.0
        assert percentile([0.0, 10.0, 20.0, 30.0], 25) == 7.5

    def test_order_independent(self):
        shuffled = [30.0, 0.0, 20.0, 10.0]
        assert percentile(shuffled, 75) == percentile(sorted(shuffled), 75)

    def test_single_sample_is_every_percentile(self):
        for p in (0, 50, 95, 99, 100):
            assert percentile([7.5], p) == 7.5

    def test_empty_samples_error(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    @given(samples=_samples)
    @settings(max_examples=60, deadline=None)
    def test_p0_and_p100_are_the_extremes(self, samples):
        assert percentile(samples, 0) == min(samples)
        assert percentile(samples, 100) == max(samples)

    @given(samples=_samples, lo=st.integers(0, 100), hi=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_p_and_bounded(self, samples, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert percentile(samples, lo) <= percentile(samples, hi)
        assert min(samples) <= percentile(samples, lo) <= max(samples)


class TestSampleSet:
    def test_accumulates_and_summarizes(self):
        samples = SampleSet()
        for value in (5.0, 15.0, 10.0):
            samples.add(value)
        assert samples.count == 3
        assert samples.mean == 10.0
        assert samples.min == 5.0
        assert samples.max == 15.0
        assert samples.percentile(50) == 10.0

    def test_empty_set_statistics_error(self):
        empty = SampleSet()
        assert empty.empty
        for stat in ("mean", "max", "min"):
            with pytest.raises(ValueError):
                getattr(empty, stat)
        with pytest.raises(ValueError):
            empty.percentile(50)

    def test_empty_summary_is_just_a_count(self):
        assert SampleSet().summary() == {"count": 0}

    def test_summary_block_fields(self):
        block = SampleSet([1.0, 2.0, 3.0]).summary()
        assert set(block) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        }
        assert block["count"] == 3
        assert block["p50_ms"] == 2.0

    def test_merge_equals_pooled_raw_data(self):
        # Merging per-host sets concatenates samples, so the merged
        # percentile equals the percentile of the pooled data — no
        # histogram-bucket approximation error.
        host_a = SampleSet([1.0, 2.0, 3.0])
        host_b = SampleSet([10.0, 20.0])
        merged = host_a.merge(host_b)
        pooled = [1.0, 2.0, 3.0, 10.0, 20.0]
        assert merged.count == 5
        for p in (0, 25, 50, 75, 95, 100):
            assert merged.percentile(p) == percentile(pooled, p)
        # Merge is non-destructive.
        assert host_a.count == 3 and host_b.count == 2

    def test_merge_with_empty_is_identity(self):
        host = SampleSet([3.0, 1.0])
        assert host.merge(SampleSet()).samples() == host.samples()
        assert SampleSet().merge(host).samples() == host.samples()

    @given(a=_samples, b=_samples, c=_samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative_on_the_pooled_data(self, a, b, c):
        left = SampleSet(a).merge(SampleSet(b)).merge(SampleSet(c))
        right = SampleSet(a).merge(SampleSet(b).merge(SampleSet(c)))
        assert left.samples() == right.samples()
        for p in (0, 50, 95, 100):
            assert left.percentile(p) == right.percentile(p)

