"""A zero-dependency metrics registry: counters, gauges, histograms.

The registry is the *aggregate* companion of the tracer's per-operation
spans: where a span says "this refresh took 3.1 ms and absorbed 412
tuple-ops", the registry says "refresh latency p-buckets over the whole
run", "journal fsyncs so far", "plan-cache hit ratio".  Benchmarks read
:meth:`MetricsRegistry.snapshot`; humans read
:meth:`MetricsRegistry.render_text` (a Prometheus-style text
exposition, kept dependency-free).

Metric names used by the built-in instrumentation are listed in
``docs/observability.md``.  Histograms use **fixed** bucket bounds
chosen at first observation (or passed explicitly), so merging and
comparing snapshots never re-bins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
]

#: Default histogram bounds for wall-clock latencies, in seconds:
#: log-spaced (1 / 2.5 / 5 per decade) from 1 µs, because a snapshot
#: read is microseconds (E22's p99 is 14 µs) while a refresh section is
#: milliseconds — one set of bounds has to resolve both.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default histogram bounds for tuple counts (delta sizes, ops).
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """A value that goes up and down (e.g. current staleness)."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the implicit overflow bucket.
    """

    bounds: tuple[float, ...] = SIZE_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min_value: float | None = None
    max_value: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        self.min_value = value if self.min_value is None else min(self.min_value, value)
        self.max_value = value if self.max_value is None else max(self.max_value, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": self.min_value,
            "max": self.max_value,
            "buckets": {
                **{f"le_{bound:g}": count for bound, count in zip(self.bounds, self.counts)},
                "overflow": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Named metrics, created on first use; safe to snapshot any time."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- creation / recording ------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter()
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge()
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a gauge")
        return metric

    def histogram(self, name: str, *, buckets: tuple[float, ...] = SIZE_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(bounds=buckets)
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, not a histogram")
        return metric

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float, *, buckets: tuple[float, ...] = SIZE_BUCKETS) -> None:
        self.histogram(name, buckets=buckets).observe(value)

    # -- derived -------------------------------------------------------

    def ratio(self, hits: str, misses: str) -> float | None:
        """A hit ratio from two counters; None before any lookup."""
        hit = self._metrics.get(hits)
        miss = self._metrics.get(misses)
        total = (hit.value if isinstance(hit, Counter) else 0) + (
            miss.value if isinstance(miss, Counter) else 0
        )
        if not total:
            return None
        return (hit.value if isinstance(hit, Counter) else 0) / total

    def absorb_counter(self, counter: Any) -> None:
        """Mirror a :class:`~repro.algebra.evaluation.CostCounter`'s cache
        counters into the registry (gauges: the counter is cumulative)."""
        self.set_gauge("plan_cache_hits", counter.plan_hits)
        self.set_gauge("plan_cache_misses", counter.plan_misses)
        self.set_gauge("memo_hits", counter.memo_hits)
        self.set_gauge("index_probes", counter.index_probes)
        self.set_gauge("delta_cache_hits", counter.delta_cache_hits)
        total_plan = counter.plan_hits + counter.plan_misses
        if total_plan:
            self.set_gauge("plan_cache_hit_ratio", counter.plan_hits / total_plan)

    # -- export --------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def snapshot(self) -> dict[str, Any]:
        """The API benchmarks consume: ``{name: metric-snapshot}``."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Prometheus-style plain-text exposition."""
        lines: list[str] = []
        typed: set[str] = set()
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                # A reason-coded counter carries its label in the name
                # (``join_base_scans{reason="…"}``); the family is typed once.
                family = name.partition("{")[0]
                if family not in typed:
                    typed.add(family)
                    lines.append(f"# TYPE {family} counter")
                lines.append(f"{name} {metric.value:g}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {metric.value:g}")
            else:
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
                cumulative += metric.counts[-1]
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{name}_sum {metric.total:g}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        self._metrics.clear()


class NullMetrics:
    """The default, do-nothing registry."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return Counter()

    def gauge(self, name: str) -> Gauge:
        return Gauge()

    def histogram(self, name: str, *, buckets: tuple[float, ...] = SIZE_BUCKETS) -> Histogram:
        return Histogram(bounds=buckets)

    def inc(self, name: str, amount: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, *, buckets: tuple[float, ...] = SIZE_BUCKETS) -> None:
        pass

    def ratio(self, hits: str, misses: str) -> None:
        return None

    def absorb_counter(self, counter: Any) -> None:
        pass

    def names(self) -> tuple[str, ...]:
        return ()

    def snapshot(self) -> dict[str, Any]:
        return {}

    def to_json(self) -> str:
        return "{}"

    def render_text(self) -> str:
        return ""

    def reset(self) -> None:
        pass
