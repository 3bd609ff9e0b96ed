"""Measurement substrate: counters, histograms, load stats."""

from repro.metrics.stats import (
    coefficient_of_variation,
    load_share_extremes,
    mean,
    percentile,
    stddev,
)
from repro.metrics.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "coefficient_of_variation",
    "load_share_extremes",
    "mean",
    "percentile",
    "stddev",
]
