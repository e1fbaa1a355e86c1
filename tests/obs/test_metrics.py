"""Metrics registry unit tests: types, exporters, counter absorption."""

import json

from repro.algebra.evaluation import CostCounter
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry, NullMetrics


def test_counter_gauge_histogram_snapshots():
    registry = MetricsRegistry()
    registry.inc("refreshes")
    registry.inc("refreshes", 2)
    registry.set_gauge("pending_entries", 17)
    for value in (1, 5, 5, 12000):
        registry.observe("delta_rows", value)

    snapshot = registry.snapshot()
    assert snapshot["refreshes"] == {"type": "counter", "value": 3}
    assert snapshot["pending_entries"] == {"type": "gauge", "value": 17}
    histogram = snapshot["delta_rows"]
    assert histogram["type"] == "histogram"
    assert histogram["count"] == 4
    assert histogram["sum"] == 12011
    assert histogram["min"] == 1 and histogram["max"] == 12000
    assert histogram["buckets"]["le_1"] == 1
    assert histogram["buckets"]["overflow"] == 1  # 12000 > last bound


def test_histogram_latency_buckets():
    registry = MetricsRegistry()
    registry.observe("refresh_latency_s", 0.0002, buckets=LATENCY_BUCKETS_S)
    registry.observe("refresh_latency_s", 1.0, buckets=LATENCY_BUCKETS_S)
    buckets = registry.snapshot()["refresh_latency_s"]["buckets"]
    assert sum(buckets.values()) == 2


def test_latency_buckets_resolve_microsecond_reads():
    """E22's read latencies (p50 ~5 µs, p99 ~14 µs, tail ~80 µs) must not share a bucket."""
    registry = MetricsRegistry()
    for seconds in (5e-6, 14e-6, 80e-6):
        registry.observe("read_latency_s", seconds, buckets=LATENCY_BUCKETS_S)
    buckets = registry.snapshot()["read_latency_s"]["buckets"]
    assert sorted(count for count in buckets.values() if count) == [1, 1, 1]
    assert LATENCY_BUCKETS_S[0] == 1e-6
    ratios = {round(b / a, 6) for a, b in zip(LATENCY_BUCKETS_S, LATENCY_BUCKETS_S[1:])}
    assert ratios == {2.0, 2.5}  # log-spaced: 1 / 2.5 / 5 per decade


def test_ratio_none_before_any_lookup():
    registry = MetricsRegistry()
    assert registry.ratio("plan_cache_hits", "plan_cache_misses") is None
    registry.inc("plan_cache_hits", 3)
    registry.inc("plan_cache_misses", 1)
    assert registry.ratio("plan_cache_hits", "plan_cache_misses") == 0.75


def test_absorb_counter_mirrors_cache_stats():
    counter = CostCounter()
    counter.plan_hits = 9
    counter.plan_misses = 1
    counter.memo_hits = 4
    counter.index_probes = 100
    counter.delta_cache_hits = 2
    registry = MetricsRegistry()
    registry.absorb_counter(counter)
    snapshot = registry.snapshot()
    assert snapshot["plan_cache_hits"]["value"] == 9
    assert snapshot["plan_cache_hit_ratio"]["value"] == 0.9
    assert snapshot["memo_hits"]["value"] == 4
    assert snapshot["index_probes"]["value"] == 100
    assert snapshot["delta_cache_hits"]["value"] == 2


def test_render_text_and_json_exporters():
    registry = MetricsRegistry()
    registry.inc("journal_fsyncs", 5)
    registry.set_gauge("views", 3)
    registry.observe("delta_rows", 10)

    text = registry.render_text()
    assert "journal_fsyncs 5" in text
    assert "views 3" in text
    assert "delta_rows_count 1" in text
    assert "delta_rows_sum 10" in text

    document = json.loads(registry.to_json())
    assert document["journal_fsyncs"]["value"] == 5


def test_reset_clears_everything():
    registry = MetricsRegistry()
    registry.inc("refreshes")
    registry.reset()
    assert registry.snapshot() == {}


def test_null_metrics_is_inert():
    null = NullMetrics()
    null.inc("x")
    null.set_gauge("y", 1)
    null.observe("z", 2)
    null.absorb_counter(CostCounter())
    assert null.snapshot() == {}
    assert null.ratio("a", "b") is None
