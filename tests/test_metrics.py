"""Unit tests for counters, histograms and statistics helpers."""

import pytest

from repro.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    coefficient_of_variation,
    load_share_extremes,
    mean,
    percentile,
    stddev,
)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stddev_constant_is_zero(self):
        assert stddev([5, 5, 5]) == 0.0

    def test_stddev_known_value(self):
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_cv_zero_for_even(self):
        assert coefficient_of_variation([10, 10, 10]) == 0.0

    def test_cv_zero_mean(self):
        assert coefficient_of_variation([0, 0]) == 0.0

    def test_cv_increases_with_skew(self):
        assert (coefficient_of_variation([1, 1, 1, 97])
                > coefficient_of_variation([20, 25, 25, 30]))

    def test_percentile_bounds(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == 50

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_single_value(self):
        assert percentile([7], 99) == 7

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_load_share_extremes(self):
        max_share, min_share = load_share_extremes([25, 25, 25, 25])
        assert max_share == min_share == 0.25
        max_share, min_share = load_share_extremes([70, 10, 10, 10])
        assert max_share == 0.7 and min_share == 0.1

    def test_load_share_extremes_zero_total(self):
        max_share, min_share = load_share_extremes([0, 0])
        assert max_share == min_share == 0.5


class TestCounter:
    def test_unlabeled(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(amount=4)
        assert counter.get() == 5
        assert counter.total() == 5

    def test_labeled(self):
        counter = Counter("c")
        counter.inc("open")
        counter.inc("open")
        counter.inc("close")
        assert counter.get("open") == 2
        assert counter.total() == 3
        assert counter.by_label() == {"open": 2, "close": 1}

    def test_unknown_label_zero(self):
        assert Counter("c").get("nope") == 0

    def test_get_does_not_materialize_label(self):
        # Regression: reading a missing label through the backing
        # defaultdict used to create it with a zero count, polluting
        # by_label() snapshots and total() iteration.
        counter = Counter("c")
        counter.inc("real")
        assert counter.get("phantom") == 0
        assert counter.by_label() == {"real": 1}
        assert counter.total() == 1
        assert Counter("empty").get("phantom") == 0
        assert Counter("empty").by_label() == {}


class TestHistogram:
    def test_summary(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["max"] == 100
        assert summary["p50"] == pytest.approx(50.5)

    def test_empty_summary_is_zeros(self):
        assert Histogram("h").summary()["count"] == 0

    def test_len(self):
        hist = Histogram("h")
        hist.observe(1)
        assert len(hist.values) == 1


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry("node")
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_listing(self):
        registry = MetricsRegistry("node")
        registry.counter("a").inc()
        registry.histogram("b").observe(1)
        assert set(registry.counters()) == {"a"}
        assert set(registry.histograms()) == {"b"}
