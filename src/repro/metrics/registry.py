"""Labeled counters and histograms.

Every simulated node owns a :class:`MetricsRegistry`; experiments read the
registries after the run to build the paper's tables and figures (request
composition in Fig 13b, MDS load variance in Fig 4b, latency in Fig 11).
"""

from collections import defaultdict

from repro.metrics.stats import mean, percentile


class Counter:
    """A monotonically increasing counter, optionally labeled.

    ``inc(label)`` keeps independent counts per label; ``total()`` sums
    them.  Unlabeled use goes through the ``None`` label.
    """

    def __init__(self, name):
        self.name = name
        self._counts = defaultdict(int)

    def inc(self, label=None, amount=1):
        self._counts[label] += amount

    def get(self, label=None):
        # Plain .get: reading through the defaultdict would materialize
        # the label with a zero count, polluting by_label() snapshots.
        return self._counts.get(label, 0)

    def total(self):
        return sum(self._counts.values())

    def by_label(self):
        """Snapshot of per-label counts as a plain dict."""
        return dict(self._counts)

    def __repr__(self):
        return "<Counter {} total={}>".format(self.name, self.total())


class Histogram:
    """Records raw observations; summarizes on demand.

    Observation counts in the experiments are small enough (1e4-1e6) that
    keeping raw values is simpler and exact; percentile() interpolates.
    """

    def __init__(self, name):
        self.name = name
        self.values = []

    def observe(self, value):
        self.values.append(value)

    def mean(self):
        return mean(self.values)

    def percentile(self, q):
        return percentile(self.values, q)

    def summary(self):
        """Dict of count/mean/p50/p95/p99/max, or zeros when empty."""
        if not self.values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": len(self.values),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self.values),
        }

    def __repr__(self):
        return "<Histogram {} n={}>".format(self.name, len(self.values))


class MetricsRegistry:
    """A namespace of metrics with get-or-create semantics."""

    def __init__(self, name=""):
        self.name = name
        self._counters = {}
        self._histograms = {}

    def counter(self, name):
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name):
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self):
        return dict(self._counters)

    def histograms(self):
        return dict(self._histograms)


# -- Prometheus text exposition ------------------------------------------

def _prom_name(name):
    """Sanitize a metric or label token for the Prometheus grammar."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text or "_"


def _prom_label_value(value):
    return str(value).replace("\\", r"\\").replace('"', r"\"") \
        .replace("\n", r"\n")


def render_prometheus(registries, namespace="falconfs"):
    """Render registries in the Prometheus text format (version 0.0.4).

    Counters become ``<ns>_<name>_total`` with ``node`` and ``label``
    labels; histograms become a ``_count`` plus quantile gauges (p50,
    p95, p99) and a mean — computed from the raw observations at scrape
    time, which the serving mode's cardinality (a handful of histograms
    per node) makes affordable.
    """
    lines = []
    for registry in registries:
        node = _prom_label_value(registry.name)
        for counter in registry.counters().values():
            metric = "{}_{}_total".format(namespace, _prom_name(counter.name))
            lines.append("# TYPE {} counter".format(metric))
            for label, value in sorted(
                    counter.by_label().items(),
                    key=lambda item: str(item[0])):
                tags = 'node="{}"'.format(node)
                if label is not None:
                    tags += ',label="{}"'.format(_prom_label_value(label))
                lines.append("{}{{{}}} {}".format(metric, tags, value))
        for histogram in registry.histograms().values():
            metric = "{}_{}".format(namespace, _prom_name(histogram.name))
            summary = histogram.summary()
            lines.append("# TYPE {} summary".format(metric))
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                                  ("0.99", "p99")):
                lines.append('{}{{node="{}",quantile="{}"}} {}'.format(
                    metric, node, quantile, summary[key]))
            lines.append('{}_count{{node="{}"}} {}'.format(
                metric, node, summary["count"]))
            lines.append('{}_sum{{node="{}"}} {}'.format(
                metric, node, summary["mean"] * summary["count"]))
    return "\n".join(lines) + "\n"
