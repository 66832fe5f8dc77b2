"""The telemetry layer: registry semantics, fan-in exactness, kill switch.

Pins the obs contracts everything else leans on: instruments accumulate
exact values under canonical label keys; snapshots merge commutatively
and bit-exactly (the sketch protocol applied to metrics); a process
fleet's merged registry equals the serial backend's for every
deterministic counter family; ``REPRO_OBS=0`` leaves zero metric state
behind (subprocess-verified) while timers keep measuring; monitors raise
their structured alarms at the documented thresholds; and the Prometheus
exposition renders cumulative histogram buckets byte-deterministically.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import (
    Alarm,
    EstimateDriftMonitor,
    InteractionBudgetMonitor,
    MetricsRegistry,
    RegistryStatsBase,
    ShardSkewMonitor,
    Tracer,
    counter_total,
    counter_value,
    escape_label_value,
    export_otlp,
    format_label_pairs,
    merge_snapshots,
    render_prometheus,
    snapshot_is_empty,
)
from repro.obs.monitors import SHARD_SKEW_METRIC, SHARD_UPDATES_METRIC
from repro.core.engine import StreamEngine
from repro.parallel.sharded import ShardedAlgorithm

REPO_ROOT = Path(__file__).resolve().parent.parent

UNIVERSE = 1 << 14


@pytest.fixture(autouse=True)
def _force_obs_on():
    """Run every test with the global registry/tracer recording.

    The suite's global-registry assertions (fan-in exactness, ingest
    mirrors) require recording to be on; forcing it keeps the suite
    meaningful under a ``REPRO_OBS=0`` environment (CI runs it in both
    modes).  Kill-switch tests use subprocesses with their own env.
    """
    registry = obs.get_registry()
    tracer = obs.get_tracer()
    prev = (registry.enabled, tracer.enabled)
    registry.enabled = True
    tracer.enabled = True
    yield
    registry.enabled, tracer.enabled = prev


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, width=256, depth=4, seed=13)


# -- instruments and the registry --------------------------------------------


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total", "events")
        counter.add(1, kind="a")
        counter.add(2, kind="a")
        counter.add(5, kind="b")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 6
        assert counter.value(kind="missing") == 0

    def test_counter_rejects_negative_amounts(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.counter("n").add(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry(enabled=True)
        gauge = registry.gauge("depth")
        gauge.set(4)
        gauge.add(-1)
        assert gauge.value() == 3

    def test_label_keys_are_canonical_sorted(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.add(1, b="2", a="1")
        counter.add(1, a="1", b="2")
        values = counter.labeled_values()
        assert values == {'a="1",b="2"': 2}

    def test_label_values_escaped(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.add(1, path='a"b\\c')
        (key,) = counter.labeled_values()
        assert key == 'path="a\\"b\\\\c"'

    def test_histogram_buckets_fixed_and_cumulative_counts(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            histogram.observe(value)
        counts, total, count = histogram.value()
        # le-semantics: 0.5 and 1.0 land in the le=1.0 bucket, 3.0 in
        # le=4.0, 100.0 in the implicit +Inf slot.
        assert counts == [2, 0, 1, 1]
        assert total == pytest.approx(104.5)
        assert count == 4

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(2.0, 1.0))

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("x", "first help")
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").add(5)
        registry.gauge("g").set(1)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        assert snapshot_is_empty(registry.snapshot())

    def test_reset_clears_values_but_handles_stay_live(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.add(3)
        registry.reset()
        assert counter.value() == 0
        counter.add(1)
        assert counter.value() == 1

    def test_snapshot_skips_untouched_instruments(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("never_touched")
        registry.counter("touched").add(1)
        snapshot = registry.snapshot()
        assert "never_touched" not in snapshot["counters"]
        assert snapshot["counters"]["touched"]["values"] == {"": 1}


class TestMergeSnapshots:
    def build(self, counter_by_label, histogram_values=()):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("events_total", "events")
        for labels, amount in counter_by_label:
            counter.add(amount, **labels)
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        for value in histogram_values:
            histogram.observe(value)
        return registry.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        left = self.build([({"s": "a"}, 2)], histogram_values=(0.5, 3.0))
        right = self.build([({"s": "a"}, 3), ({"s": "b"}, 7)], (1.5,))
        merged = merge_snapshots([left, right])
        assert counter_value(merged, "events_total", s="a") == 5
        assert counter_value(merged, "events_total", s="b") == 7
        assert counter_total(merged, "events_total") == 12
        series = merged["histograms"]["lat"]["values"][""]
        assert series[0] == [1, 1, 1]
        assert series[2] == 3

    def test_merge_is_commutative_and_associative(self):
        a = self.build([({"s": "a"}, 1)], (0.5,))
        b = self.build([({"s": "b"}, 2)], (1.5,))
        c = self.build([({"s": "a"}, 4)], (9.0,))
        forward = merge_snapshots([merge_snapshots([a, b]), c])
        backward = merge_snapshots([c, merge_snapshots([b, a])])
        assert forward == backward

    def test_merge_rejects_mismatched_buckets(self):
        left = self.build([], (0.5,))
        right = self.build([], (0.5,))
        right["histograms"]["lat"]["buckets"] = [1.0, 4.0]
        with pytest.raises(ValueError):
            merge_snapshots([left, right])

    def test_merge_of_empty_is_empty(self):
        assert snapshot_is_empty(merge_snapshots([]))


# -- exposition ---------------------------------------------------------------


class TestExposition:
    def test_counter_rendering_with_help_and_type(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("req_total", "requests").add(3, op="feed")
        text = render_prometheus(registry.snapshot())
        assert "# HELP req_total requests\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{op="feed"} 3\n' in text

    def test_histogram_rendering_is_cumulative_with_inf(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat", "latency", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'lat_bucket{le="1.0"} 1\n' in text
        assert 'lat_bucket{le="2.0"} 2\n' in text
        assert 'lat_bucket{le="+Inf"} 3\n' in text
        assert "lat_sum 101.0\n" in text
        assert "lat_count 3\n" in text

    def test_equal_snapshots_render_byte_identically(self):
        def build():
            registry = MetricsRegistry(enabled=True)
            counter = registry.counter("c", "help")
            counter.add(1, z="1", a="2")
            counter.add(4, a="9")
            registry.histogram("h", buckets=(1.0,)).observe(0.5, q="x")
            return registry.snapshot()

        assert render_prometheus(build()) == render_prometheus(build())

    def test_empty_snapshot_renders_empty_string(self):
        assert render_prometheus(MetricsRegistry(enabled=True).snapshot()) == ""

    def test_label_value_escaping_pinned(self):
        # The three (and only three) escapes the text format requires,
        # pinned character-for-character.  Backslash must escape first.
        assert escape_label_value("plain") == "plain"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("line1\nline2") == "line1\\nline2"
        assert escape_label_value('\\"\n') == '\\\\\\"\\n'
        assert escape_label_value(7) == "7"

    def test_label_pairs_sort_stably_and_escape(self):
        assert format_label_pairs({}) == ""
        assert format_label_pairs({"b": "2", "a": "1"}) == 'a="1",b="2"'
        assert (
            format_label_pairs({"path": 'x"\n', "op": "feed"})
            == 'op="feed",path="x\\"\\n"'
        )

    def test_hand_written_expected_text(self):
        # One full render against an exact expected document: escaping,
        # label-name sort, and series sort in a single pin.
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("evil_total", 'help with \\ and\nnewline')
        counter.add(1, path='a\\b', op="z")
        counter.add(2, op="a", path='quo"te')
        registry.gauge("plain_gauge", "a gauge").set(2.5)
        expected = (
            "# HELP evil_total help with \\\\ and\\nnewline\n"
            "# TYPE evil_total counter\n"
            'evil_total{op="a",path="quo\\"te"} 2\n'
            'evil_total{op="z",path="a\\\\b"} 1\n'
            "# HELP plain_gauge a gauge\n"
            "# TYPE plain_gauge gauge\n"
            "plain_gauge 2.5\n"
        )
        assert render_prometheus(registry.snapshot()) == expected

    def test_registry_keys_are_the_exposition_spelling(self):
        # The storage key is format_label_pairs' output, so snapshots of
        # equal state are equal dicts and render byte-identically even
        # with escaped values in play.
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", "h").add(1, k='v"\n')
        values = registry.snapshot()["counters"]["c"]["values"]
        assert list(values) == ['k="v\\"\\n"']


# -- tracing ------------------------------------------------------------------


class TestTracer:
    def test_span_parenting_via_context(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        inner, outer = tracer.spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert inner.attrs == {"detail": 1}
        assert inner.duration >= 0.0

    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=4, enabled=True)
        for index in range(10):
            tracer.record("tick", 0.0, 0.1, index=index)
        spans = tracer.spans()
        assert len(spans) == 4
        assert [span.attrs["index"] for span in spans] == [6, 7, 8, 9]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored"):
            pass
        tracer.record("also-ignored", 0.0, 1.0)
        assert tracer.spans() == []

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("phase", path="drive"):
            pass
        out = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(out) == 1
        record = json.loads(out.read_text().splitlines()[0])
        assert record["name"] == "phase"
        assert record["attrs"] == {"path": "drive"}

    def test_overflow_is_counted_not_silent(self):
        tracer = Tracer(capacity=4, enabled=True)
        for index in range(10):
            tracer.record("tick", 0.0, 0.1, index=index)
        assert tracer.dropped == 6
        with tracer.span("one-more"):
            pass
        assert tracer.dropped == 7
        tracer.record_batch("bulk", [(0.0, 0.1, {}) for _ in range(6)])
        assert tracer.dropped == 13
        assert len(tracer.spans()) == 4

    def test_clear_zeroes_the_drop_count(self):
        tracer = Tracer(capacity=2, enabled=True)
        for _ in range(5):
            tracer.record("tick", 0.0, 0.1)
        assert tracer.dropped == 3
        tracer.clear()
        assert tracer.dropped == 0
        assert tracer.spans() == []

    def test_under_capacity_batches_drop_nothing(self):
        tracer = Tracer(capacity=8, enabled=True)
        tracer.record_batch("bulk", [(0.0, 0.1, {}) for _ in range(5)])
        assert tracer.dropped == 0

    def test_dropped_gauge_exposed_at_scrape_time(self):
        # The process-wide tracer's collector only writes the gauge once
        # spans have actually been evicted.
        obs.reset()
        tracer = obs.get_tracer()
        snapshot = obs.get_registry().snapshot()
        assert (
            "repro_trace_dropped_total" not in snapshot.get("gauges", {})
        )
        overflow = tracer.capacity + 5
        tracer.record_batch(
            "flood", [(0.0, 0.0, {}) for _ in range(overflow)]
        )
        snapshot = obs.get_registry().snapshot()
        assert (
            snapshot["gauges"]["repro_trace_dropped_total"]["values"][""] == 5
        )
        obs.reset()


class TestOtlpExport:
    def test_export_shape_and_parenting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", op="drive"):
            with tracer.span("inner"):
                pass
        payload = export_otlp(tracer, service_name="unit")
        resource = payload["resourceSpans"][0]
        assert resource["resource"]["attributes"] == [
            {"key": "service.name", "value": {"stringValue": "unit"}}
        ]
        scope = resource["scopeSpans"][0]
        assert scope["scope"]["name"] == "repro.obs"
        inner, outer = scope["spans"]
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parentSpanId"] == outer["spanId"]
        assert "parentSpanId" not in outer
        assert len(outer["spanId"]) == 16
        assert int(outer["endTimeUnixNano"]) >= int(
            outer["startTimeUnixNano"]
        )
        assert outer["attributes"] == [
            {"key": "op", "value": {"stringValue": "drive"}}
        ]
        assert payload["dropped"] == 0
        # The payload must be JSON-serializable as-is (the /spans body).
        json.dumps(payload)

    def test_export_carries_drop_count_and_attr_types(self):
        tracer = Tracer(capacity=2, enabled=True)
        tracer.record("a", 0.0, 0.1)
        tracer.record("b", 0.2, 0.1, n=3, f=1.5, flag=True, s="x")
        tracer.record("c", 0.4, 0.1)
        payload = export_otlp(tracer)
        assert payload["dropped"] == 1
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert [span["name"] for span in spans] == ["b", "c"]
        attrs = {
            attr["key"]: attr["value"] for attr in spans[0]["attributes"]
        }
        assert attrs == {
            "n": {"intValue": "3"},
            "f": {"doubleValue": 1.5},
            "flag": {"boolValue": True},
            "s": {"stringValue": "x"},
        }


class TestPhaseTimer:
    def test_timer_measures_even_when_disabled(self):
        registry = obs.get_registry()
        previous = registry.enabled
        registry.enabled = False
        try:
            with obs.timer("unit-test-phase") as timed:
                sum(range(1000))
        finally:
            registry.enabled = previous
        assert timed.seconds > 0.0

    def test_timer_observes_phase_histogram_when_enabled(self):
        obs.reset()
        with obs.timer("unit-test-phase") as timed:
            pass
        assert timed.seconds >= 0.0
        snapshot = obs.get_registry().snapshot()
        series = snapshot["histograms"][obs.PHASE_SECONDS_METRIC]["values"]
        assert 'phase="unit-test-phase"' in series
        obs.reset()


# -- the stats-surface shim ---------------------------------------------------


class _DemoStats(RegistryStatsBase):
    _COUNTERS = {"frames": ("demo_frames_total", "frames")}
    _GAUGES = {"open": ("demo_open", "open things")}

    def __init__(self, registry, label):
        self._init_metrics({"who": label}, registry=registry)
        self.plain = "untracked"


class TestRegistryStatsBase:
    def test_bump_and_live_reads(self):
        registry = MetricsRegistry(enabled=True)
        stats = _DemoStats(registry, "a")
        stats.bump(frames=2, open=1)
        stats.bump(frames=1, open=-1)
        assert stats.frames == 3
        assert stats.open == 0
        assert counter_value(registry.snapshot(), "demo_frames_total", who="a") == 3

    def test_label_isolation_between_instances(self):
        registry = MetricsRegistry(enabled=True)
        a = _DemoStats(registry, "a")
        b = _DemoStats(registry, "b")
        a.bump(frames=5)
        assert b.frames == 0

    def test_direct_mutation_raises(self):
        registry = MetricsRegistry(enabled=True)
        stats = _DemoStats(registry, "a")
        stats.bump(frames=1)
        with pytest.raises(AttributeError, match="bump"):
            stats.frames = 10
        assert stats.frames == 1
        with pytest.raises(AttributeError, match="bump"):
            stats.open = 7
        assert stats.open == 0

    def test_plain_attributes_stay_plain(self):
        registry = MetricsRegistry(enabled=True)
        stats = _DemoStats(registry, "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats.plain = "still untracked"
        assert stats.plain == "still untracked"

    def test_dispose_drops_label_series(self):
        registry = MetricsRegistry(enabled=True)
        stats = _DemoStats(registry, "gone")
        stats.bump(frames=4)
        stats.dispose()
        assert counter_value(registry.snapshot(), "demo_frames_total", who="gone") == 0


# -- monitors -----------------------------------------------------------------


class _FakeResult:
    def __init__(self, rounds, estimates, rounds_played=None):
        self.checkpoint_rounds = rounds
        self.checkpoint_estimates = estimates
        self.rounds_played = (
            rounds_played if rounds_played is not None else (rounds[-1] if rounds else 0)
        )


class TestEstimateDriftMonitor:
    def test_alarm_fires_above_threshold_only(self):
        registry = MetricsRegistry(enabled=True)
        monitor = EstimateDriftMonitor(0.5, registry=registry)
        assert monitor.observe_checkpoint(0, [100.0, 100.0]) == []
        assert monitor.observe_checkpoint(1, [120.0, 110.0]) == []  # drift 0.2
        raised = monitor.observe_checkpoint(2, [120.0, 10.0])  # drift ~0.9
        assert len(raised) == 1
        alarm = raised[0]
        assert isinstance(alarm, Alarm)
        assert alarm.kind == "estimate_drift"
        assert alarm.round_index == 2
        assert alarm.value > 0.5
        assert monitor.alarms == [alarm]
        assert (
            counter_value(
                registry.snapshot(),
                "repro_monitor_alarms_total",
                monitor="estimate-drift",
                kind="estimate_drift",
            )
            == 1
        )

    def test_near_zero_baseline_uses_absolute_floor(self):
        monitor = EstimateDriftMonitor(0.5, registry=MetricsRegistry(enabled=True))
        monitor.observe_checkpoint(0, [0.0])
        # |0.4 - 0| / max(|0|, 1) = 0.4 <= 0.5 -- no alarm despite the
        # infinite relative step a naive ratio would compute.
        assert monitor.observe_checkpoint(1, [0.4]) == []

    def test_observe_result_replays_checkpoints(self):
        monitor = EstimateDriftMonitor(0.5, registry=MetricsRegistry(enabled=True))
        result = _FakeResult([10, 20, 30], [[100.0], [105.0], [5.0]])
        raised = monitor.observe_result(result)
        assert [alarm.round_index for alarm in raised] == [30]

    def test_reset_forgets_baseline(self):
        monitor = EstimateDriftMonitor(0.1, registry=MetricsRegistry(enabled=True))
        monitor.observe_checkpoint(0, [100.0])
        monitor.reset()
        assert monitor.observe_checkpoint(1, [1.0]) == []

    def test_on_alarm_callback_and_validation(self):
        seen = []
        monitor = EstimateDriftMonitor(
            0.0, on_alarm=seen.append, registry=MetricsRegistry(enabled=True)
        )
        monitor.observe_checkpoint(0, [1.0])
        monitor.observe_checkpoint(1, [2.0])
        assert len(seen) == 1
        with pytest.raises(ValueError):
            EstimateDriftMonitor(-0.1, registry=MetricsRegistry(enabled=True))


class TestInteractionBudgetMonitor:
    def test_warning_then_breach_each_fire_once(self):
        monitor = InteractionBudgetMonitor(
            100, warn_fraction=0.8, registry=MetricsRegistry(enabled=True)
        )
        assert monitor.observe(50) == []
        warned = monitor.observe(40, round_index=90)  # 90 > 80
        assert [alarm.kind for alarm in warned] == ["budget_warning"]
        assert monitor.observe(5) == []  # still warned, not breached
        breached = monitor.observe(10, round_index=105)  # 105 > 100
        assert [alarm.kind for alarm in breached] == ["budget_exceeded"]
        assert monitor.observe(1000) == []  # one-shot
        assert [alarm.kind for alarm in monitor.alarms] == [
            "budget_warning",
            "budget_exceeded",
        ]

    def test_observe_result_counts_rounds_and_probes(self):
        monitor = InteractionBudgetMonitor(10, registry=MetricsRegistry(enabled=True))
        result = _FakeResult([2, 4], [np.array([1.0, 2.0]), np.array([3.0])], rounds_played=4)
        raised = monitor.observe_result(result)
        # 4 rounds + 3 probe answers = 7 interactions; budget 10, warn at 8.
        assert monitor.interactions == 7
        assert raised == []
        assert [a.kind for a in monitor.observe(2)] == ["budget_warning"]

    def test_validation(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            InteractionBudgetMonitor(0, registry=registry)
        with pytest.raises(ValueError):
            InteractionBudgetMonitor(10, warn_fraction=0.0, registry=registry)
        monitor = InteractionBudgetMonitor(10, registry=registry)
        with pytest.raises(ValueError):
            monitor.observe(-1)


def _shard_snapshot(**totals):
    """A registry-snapshot fragment carrying cumulative shard counters."""
    return {
        "counters": {
            SHARD_UPDATES_METRIC: {
                "help": "",
                "values": {
                    f'shard="{index}"': total
                    for index, total in enumerate(totals.values())
                },
            }
        }
    }


class TestShardSkewMonitor:
    def test_skew_ratio_and_alarm_over_windows(self):
        registry = MetricsRegistry(enabled=True)
        # With two shards the peak-to-mean ratio lives in [1, 2].
        monitor = ShardSkewMonitor(1.5, min_window=10, registry=registry)
        # Balanced window: ratio 1.0, no alarm.
        assert monitor.observe_snapshot(_shard_snapshot(a=50, b=50)) == []
        assert monitor.ratio == 1.0
        # Adversarially skewed window: 90 of 100 new updates on shard 0.
        alarms = monitor.observe_snapshot(_shard_snapshot(a=140, b=60))
        assert [alarm.kind for alarm in alarms] == ["shard_skew"]
        assert monitor.ratio == pytest.approx(1.8)
        gauges = registry.snapshot()["gauges"][SHARD_SKEW_METRIC]["values"]
        assert gauges[""] == pytest.approx(monitor.ratio)
        # Balanced again: ratio recovers, no new alarm.
        assert monitor.observe_snapshot(_shard_snapshot(a=190, b=110)) == []
        assert monitor.ratio == 1.0

    def test_thin_windows_keep_the_last_ratio(self):
        monitor = ShardSkewMonitor(
            1.5, min_window=100, registry=MetricsRegistry(enabled=True)
        )
        monitor.observe_snapshot(_shard_snapshot(a=990, b=10))
        skewed = monitor.ratio
        assert skewed > 1.5
        # A near-idle window must not reset the signal (hold-duration
        # alert rules need a stable value between sparse scrapes).
        assert monitor.observe_snapshot(_shard_snapshot(a=995, b=11)) == []
        assert monitor.ratio == skewed

    def test_num_shards_dilutes_missing_series(self):
        monitor = ShardSkewMonitor(
            2.0, min_window=10, num_shards=8,
            registry=MetricsRegistry(enabled=True),
        )
        # Only one shard series exists: a hammered shard 0 of 8 scores 8.
        alarms = monitor.observe_snapshot(_shard_snapshot(a=80))
        assert [alarm.kind for alarm in alarms] == ["shard_skew"]
        assert monitor.ratio == pytest.approx(8.0)

    def test_derived_metrics_and_reset(self):
        monitor = ShardSkewMonitor(
            2.0, min_window=1, registry=MetricsRegistry(enabled=True)
        )
        monitor.observe_snapshot(_shard_snapshot(a=30, b=10))
        assert monitor.derived_metrics() == {
            SHARD_SKEW_METRIC: monitor.ratio
        }
        monitor.reset()
        assert monitor.ratio == 0.0
        assert monitor.derived_metrics() == {SHARD_SKEW_METRIC: 0.0}

    def test_validation(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            ShardSkewMonitor(0.5, registry=registry)
        with pytest.raises(ValueError):
            ShardSkewMonitor(2.0, min_window=0, registry=registry)
        with pytest.raises(ValueError):
            ShardSkewMonitor(2.0, num_shards=0, registry=registry)

    def test_sharded_engine_feeds_the_counters(self):
        obs.reset()
        items = np.arange(20_000, dtype=np.int64) % UNIVERSE
        deltas = np.ones(20_000, dtype=np.int64)
        with ShardedAlgorithm(count_min_factory, 2, backend="serial") as fleet:
            StreamEngine(chunk_size=4096).drive_arrays(fleet, items, deltas)
            snapshot = fleet.metrics_snapshot()
        obs.reset()
        per_shard = [
            counter_value(snapshot, SHARD_UPDATES_METRIC, shard=str(index))
            for index in range(2)
        ]
        assert sum(per_shard) == len(items)
        assert all(count > 0 for count in per_shard)

    def test_process_backend_does_not_double_count(self):
        obs.reset()
        items = np.arange(20_000, dtype=np.int64) % UNIVERSE
        deltas = np.ones(20_000, dtype=np.int64)
        with ShardedAlgorithm(count_min_factory, 2, backend="process") as fleet:
            StreamEngine(chunk_size=4096).drive_arrays(fleet, items, deltas)
            snapshot = fleet.metrics_snapshot()
        obs.reset()
        assert counter_total(snapshot, SHARD_UPDATES_METRIC) == len(items)


# -- fan-in exactness ---------------------------------------------------------

#: Counter families whose values are backend-invariant (same chunking,
#: same kernel-tier decisions on both backends).  Wall-time histograms
#: and parent-side pool counters are intentionally excluded.
DETERMINISTIC_FAMILIES = (
    "repro_sketch_batches_total",
    "repro_sketch_updates_total",
    "repro_engine_chunks_total",
    "repro_engine_updates_total",
    "repro_kernel_dispatch_total",
)


class TestProcessFleetFanIn:
    def test_process_registry_fanin_equals_serial_bit_exactly(self):
        rng = np.random.default_rng(7)
        items = rng.integers(0, UNIVERSE, size=60_000, dtype=np.int64)
        deltas = np.ones(60_000, dtype=np.int64)

        def run(backend):
            obs.reset()
            with ShardedAlgorithm(count_min_factory, 2, backend=backend) as fleet:
                StreamEngine(chunk_size=8192).drive_arrays(fleet, items, deltas)
                snapshot = fleet.metrics_snapshot()
                state = fleet.merged().snapshot()
            obs.reset()
            return snapshot, state

        serial_snapshot, serial_state = run("serial")
        process_snapshot, process_state = run("process")
        assert process_state == serial_state
        for family in DETERMINISTIC_FAMILIES:
            assert (
                process_snapshot["counters"].get(family)
                == serial_snapshot["counters"].get(family)
            ), family
        # The deterministic families also render identically.
        assert counter_value(
            process_snapshot, "repro_sketch_updates_total", sketch="count-min"
        ) == len(items)

    def test_worker_snapshots_partition_the_work(self):
        items = np.arange(30_000, dtype=np.int64) % UNIVERSE
        deltas = np.ones(30_000, dtype=np.int64)
        obs.reset()
        with ShardedAlgorithm(count_min_factory, 2, backend="process") as fleet:
            StreamEngine(chunk_size=8192).drive_arrays(fleet, items, deltas)
            worker_snapshots = fleet._live_pool().metric_snapshots()
            parent = obs.get_registry().snapshot()
        obs.reset()
        # Workers reset their fork-inherited registries, so the replica
        # counts live only worker-side and the parent holds none of them.
        worker_updates = sum(
            counter_value(snap, "repro_sketch_updates_total", sketch="count-min")
            for snap in worker_snapshots
        )
        assert worker_updates == len(items)
        assert (
            counter_value(parent, "repro_sketch_updates_total", sketch="count-min")
            == 0
        )


# -- the kill switch ----------------------------------------------------------


class TestKillSwitch:
    def run_probe(self, obs_flag):
        script = """
import numpy as np
from repro import obs
from repro.heavyhitters.count_min import CountMinSketch
from repro.core.engine import StreamEngine
from repro.obs.metrics import env_enabled

sketch = CountMinSketch(universe_size=4096, width=64, depth=3, seed=1)
items = np.arange(5000, dtype=np.int64) % 4096
deltas = np.ones(5000, dtype=np.int64)
StreamEngine(chunk_size=512).drive_arrays(sketch, items, deltas)
with obs.timer("probe") as timed:
    sketch.estimate_batch(items[:64])
snapshot = obs.get_registry().snapshot()
from repro.obs import snapshot_is_empty
print("enabled", env_enabled())
print("empty", snapshot_is_empty(snapshot))
print("spans", len(obs.get_tracer().spans()))
print("timed", timed.seconds > 0.0)
print("estimate", int(sketch.estimate(5)))
"""
        env = dict(os.environ)
        env["REPRO_OBS"] = obs_flag
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return dict(
            line.split(" ", 1) for line in result.stdout.strip().splitlines()
        )

    def test_disabled_process_has_zero_metric_state(self):
        report = self.run_probe("0")
        assert report["enabled"] == "False"
        assert report["empty"] == "True"
        assert report["spans"] == "0"
        # Timers still measure: report wall times never lose data.
        assert report["timed"] == "True"

    def test_enabled_process_records(self):
        report = self.run_probe("1")
        assert report["enabled"] == "True"
        assert report["empty"] == "False"
        assert int(report["spans"]) > 0
        # The sketch math is identical either way.
        disabled = self.run_probe("0")
        assert report["estimate"] == disabled["estimate"]


# -- ingest stats mirror ------------------------------------------------------


class TestIngestMirror:
    def test_ingest_stats_mirror_into_registry(self):
        from repro.parallel.ingest import ingest

        obs.reset()
        sketch = count_min_factory()
        items = np.arange(10_000, dtype=np.int64) % UNIVERSE
        deltas = np.ones(10_000, dtype=np.int64)
        stats = ingest(sketch, (items, deltas), chunk_size=2048)
        snapshot = obs.get_registry().snapshot()
        spans = [s for s in obs.get_tracer().spans() if s.name == "engine.chunk"]
        obs.reset()
        assert stats.updates == len(items)
        assert stats.chunks == 5
        assert counter_value(
            snapshot, "repro_engine_updates_total", path="ingest"
        ) == stats.updates
        assert counter_value(
            snapshot, "repro_engine_chunks_total", path="ingest"
        ) == stats.chunks
        assert len(spans) == stats.chunks

    def test_checkpoint_writes_count_per_path(self, tmp_path):
        from repro.parallel.ingest import ingest

        obs.reset()
        items = np.arange(10_000, dtype=np.int64) % UNIVERSE
        deltas = np.ones(10_000, dtype=np.int64)
        stats = ingest(
            count_min_factory(),
            (items, deltas),
            chunk_size=2048,
            checkpoint_path=tmp_path / "ingest.ckpt",
            checkpoint_every=4096,
        )
        StreamEngine(chunk_size=2048).drive_arrays(
            count_min_factory(),
            items,
            deltas,
            checkpoint_path=tmp_path / "drive.ckpt",
            checkpoint_every=4096,
        )
        snapshot = obs.get_registry().snapshot()
        obs.reset()
        # Saves at 4096 and 8192, plus the final one at 10,000.
        assert stats.checkpoints == 3
        for path in ("ingest", "drive_arrays"):
            assert counter_value(
                snapshot, "repro_engine_checkpoints_total", path=path
            ) == stats.checkpoints
