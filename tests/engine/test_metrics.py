"""Unit tests for the metrics registry and run context."""

import pytest

from repro.engine.context import RunContext, StageSpan, render_trace
from repro.engine.metrics import MetricsRegistry
from repro.errors import ConfigurationError


class TestCounters:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        assert registry.counter("geocode.requests") == 1
        assert registry.counter("geocode.requests", 4) == 5
        assert registry.snapshot()["geocode.requests"] == 5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("stats.total_users", 10)
        registry.gauge("stats.total_users", 7)
        assert registry.snapshot()["stats.total_users"] == 7

    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        with registry.timer("stage.x.s"):
            pass
        with registry.timer("stage.x.s"):
            pass
        assert registry.snapshot()["stage.x.s"] >= 0.0

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert list(registry.snapshot()) == ["a", "b"]


class TestSources:
    def test_source_flattens_nested_mappings(self):
        registry = MetricsRegistry()
        registry.register_source(
            "funnel", lambda: {"users": 3, "status": {"vague": 2}}
        )
        snap = registry.snapshot()
        assert snap["funnel.users"] == 3
        assert snap["funnel.status.vague"] == 2

    def test_source_is_live(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.register_source("live", lambda: box)
        box["n"] = 9
        assert registry.snapshot()["live.n"] == 9

    def test_reregistering_prefix_replaces(self):
        registry = MetricsRegistry()
        registry.register_source("p", lambda: {"a": 1})
        registry.register_source("p", lambda: {"a": 2})
        assert registry.snapshot()["p.a"] == 2

    def test_empty_prefix_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().register_source("", dict)


class TestMerge:
    def test_counters_and_timers_sum_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", 2)
        b.counter("c", 3)
        a.add_time("t.s", 1.0)
        b.add_time("t.s", 0.5)
        a.gauge("g", 1)
        b.gauge("g", 7)
        a.merge(b)
        snap = a.snapshot()
        assert snap["c"] == 5
        assert snap["t.s"] == pytest.approx(1.5)
        assert snap["g"] == 7


class TestRunContext:
    def test_stage_span_records_items_and_duration(self):
        context = RunContext(dataset_name="t")
        with context.stage("demo") as span:
            span.items_in = 10
            span.items_out = 4
        assert len(context.spans) == 1
        recorded = context.spans[0]
        assert recorded.items_in == 10 and recorded.items_out == 4
        assert recorded.duration_s > 0
        assert "stage.demo.s" in context.metrics.snapshot()

    def test_escaping_exception_counts_as_error(self):
        context = RunContext()
        with pytest.raises(ValueError):
            with context.stage("boom"):
                raise ValueError("x")
        assert context.spans[0].errors == 1
        assert context.spans[0].duration_s > 0

    def test_trace_and_render(self):
        context = RunContext(dataset_name="Korean", seed=7)
        with context.stage("demo") as span:
            span.items_in = 1
        context.metrics.counter("grouping.users", 3)
        trace = context.trace()
        assert trace["dataset"] == "Korean"
        assert trace["seed"] == 7
        assert trace["spans"][0]["stage"] == "demo"
        text = render_trace(context)
        assert "Korean" in text and "demo" in text and "grouping.users" in text

    def test_open_span_duration_is_zero(self):
        span = StageSpan(stage="open", started_s=1.0)
        assert span.duration_s == 0.0

    def test_render_aggregates_repeated_stages(self):
        """A streaming run emits thousands of same-named spans; the trace
        collapses them to one row carrying run count and summed items."""
        context = RunContext(dataset_name="stream")
        for items in (10, 20, 30):
            with context.stage("stream.batch") as span:
                span.items_in = items
                span.items_out = items // 2
        text = render_trace(context)
        rows = [
            line for line in text.splitlines()
            if line.split() and line.split()[0] == "stream.batch"
        ]
        assert len(rows) == 1
        columns = rows[0].split()
        assert columns[1] == "3"  # runs
        assert columns[3] == "60" and columns[4] == "30"  # summed in/out

    def test_render_reports_api_client_retries(self):
        context = RunContext(dataset_name="t")
        context.metrics.counter("geocode.retries", 5)
        context.metrics.counter("geocode.retry_exhausted", 1)
        text = render_trace(context)
        assert "api client: retries=5 retry_exhausted=1" in text

    def test_render_omits_api_client_line_without_counters(self):
        context = RunContext(dataset_name="t")
        assert "api client:" not in render_trace(context)


class TestLatencyHistogramEpochs:
    """The window partitions on the observation epoch: percentiles never
    mix samples recorded under different snapshot generations."""

    def test_epoch_change_resets_window_keeps_lifetime(self):
        from repro.engine.metrics import LatencyHistogram

        histogram = LatencyHistogram(window=16)
        for _ in range(10):
            histogram.observe(10.0, epoch=1)
        assert histogram.percentile(50) == 10.0
        histogram.observe(1.0, epoch=2)
        # Only the post-swap sample is in the window now.
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(99) == 1.0
        assert histogram.epoch == 2
        # Lifetime accounting spans both epochs.
        assert histogram.count == 11
        assert histogram.total == 101.0
        assert histogram.max == 10.0

    def test_same_epoch_accumulates(self):
        from repro.engine.metrics import LatencyHistogram

        histogram = LatencyHistogram(window=8)
        histogram.observe(1.0, epoch=3)
        histogram.observe(3.0, epoch=3)
        assert histogram.percentile(99) == 3.0
        assert histogram.count == 2

    def test_merge_same_epoch_concatenates(self):
        from repro.engine.metrics import LatencyHistogram

        left = LatencyHistogram(window=8)
        right = LatencyHistogram(window=8)
        left.observe(1.0)
        right.observe(5.0)
        left.merge(right)
        assert left.count == 2
        assert left.percentile(99) == 5.0

    def test_merge_newer_epoch_replaces_window(self):
        from repro.engine.metrics import LatencyHistogram

        stale = LatencyHistogram(window=8)
        fresh = LatencyHistogram(window=8)
        for _ in range(5):
            stale.observe(10.0, epoch=1)
        fresh.observe(1.0, epoch=2)
        stale.merge(fresh)
        assert stale.epoch == 2
        assert stale.percentile(99) == 1.0
        assert stale.count == 6
        assert stale.max == 10.0

    def test_merge_older_epoch_drops_its_window(self):
        from repro.engine.metrics import LatencyHistogram

        fresh = LatencyHistogram(window=8)
        stale = LatencyHistogram(window=8)
        fresh.observe(1.0, epoch=2)
        for _ in range(5):
            stale.observe(10.0, epoch=1)
        fresh.merge(stale)
        assert fresh.epoch == 2
        assert fresh.percentile(99) == 1.0
        assert fresh.count == 6
        assert fresh.max == 10.0


class TestLatencyHistogramSnapshot:
    def test_snapshot_percentiles_equal_per_call_percentile(self):
        from repro.engine.metrics import LatencyHistogram

        histogram = LatencyHistogram(window=16)
        # 40 observations wrap the 16-slot ring twice and leave it unsorted.
        for i in range(40):
            histogram.observe(float((i * 7) % 23))
        summary = histogram.snapshot()
        for name, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert summary[name] == histogram.percentile(q)
        # The window holds observations 24..39: values (i * 7) % 23.
        window = sorted(float((i * 7) % 23) for i in range(24, 40))
        assert (summary["p50"], summary["p95"], summary["p99"]) == (
            window[8], window[14], window[15]
        )
        assert summary["count"] == 40
        assert summary["max"] == 22.0
        assert summary["mean"] == sum(float((i * 7) % 23) for i in range(40)) / 40

    def test_empty_snapshot_is_zero(self):
        from repro.engine.metrics import LatencyHistogram

        summary = LatencyHistogram(window=4).snapshot()
        assert summary == {
            "count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
