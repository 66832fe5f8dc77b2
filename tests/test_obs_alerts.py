"""The alert engine: rule semantics, the state machine, fleet merging.

Everything here runs on a fake clock -- hold durations and rates are
finite differences of injected times, so every pending -> firing ->
resolved transition is pinned deterministically, with zero sleeps.  The
acceptance scenario lives in ``TestSkewAlertLifecycle``: an adversarially
skewed stream drives a real ``ShardedAlgorithm``'s per-shard counters
through a ``ShardSkewMonitor``-backed rule from pending to firing, and a
balanced tail resolves it.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.engine import StreamEngine
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import (
    AbsenceRule,
    AlertEngine,
    MetricsRegistry,
    RateRule,
    ShardSkewMonitor,
    ThresholdRule,
    merge_alert_payloads,
)
from repro.obs.alerts import (
    ALERT_TRANSITIONS_METRIC,
    CLIENT_RETRIES_METRIC,
    DEGRADED_READS_METRIC,
    WORKER_RESTARTS_METRIC,
    default_fault_rules,
)
from repro.obs.monitors import SHARD_SKEW_METRIC
from repro.parallel.sharded import ShardedAlgorithm

UNIVERSE = 1 << 14


@pytest.fixture(autouse=True)
def _force_obs_on():
    registry = obs.get_registry()
    prev = registry.enabled
    registry.enabled = True
    yield
    registry.enabled = prev


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, width=256, depth=4, seed=13)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _gauge_snapshot(name: str, value) -> dict:
    return {"gauges": {name: {"help": "", "values": {"": value}}}}


def _counter_snapshot(name: str, series: dict) -> dict:
    return {"counters": {name: {"help": "", "values": dict(series)}}}


class TestRuleValidation:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", "m", 1.0, op="~")
        with pytest.raises(ValueError):
            RateRule("r", "m", 1.0, op="almost")

    def test_duplicate_rule_names_rejected(self):
        rules = [
            ThresholdRule("same", "m", 1.0),
            AbsenceRule("same", "m2"),
        ]
        with pytest.raises(ValueError):
            AlertEngine(rules, registry=MetricsRegistry(enabled=True))


class TestThresholdRule:
    def test_immediate_firing_without_hold(self):
        clock = FakeClock()
        engine = AlertEngine(
            [ThresholdRule("hot", "temp", 10.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        (state,) = engine.evaluate(_gauge_snapshot("temp", 15.0))
        assert state["state"] == "firing"
        assert state["value"] == 15.0

    def test_hold_duration_gates_firing(self):
        clock = FakeClock()
        engine = AlertEngine(
            [ThresholdRule("hot", "temp", 10.0, for_seconds=30.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        (state,) = engine.evaluate(_gauge_snapshot("temp", 15.0))
        assert state["state"] == "pending"
        clock.advance(10.0)
        (state,) = engine.evaluate(_gauge_snapshot("temp", 15.0))
        assert state["state"] == "pending"
        clock.advance(25.0)
        (state,) = engine.evaluate(_gauge_snapshot("temp", 15.0))
        assert state["state"] == "firing"
        assert state["since"] == 35.0

    def test_pending_that_clears_goes_inactive_not_resolved(self):
        clock = FakeClock()
        engine = AlertEngine(
            [ThresholdRule("hot", "temp", 10.0, for_seconds=30.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        engine.evaluate(_gauge_snapshot("temp", 15.0))
        clock.advance(5.0)
        (state,) = engine.evaluate(_gauge_snapshot("temp", 5.0))
        assert state["state"] == "inactive"

    def test_missing_metric_is_condition_false(self):
        engine = AlertEngine(
            [ThresholdRule("hot", "absent_metric", 10.0)],
            clock=FakeClock(),
            registry=MetricsRegistry(enabled=True),
        )
        (state,) = engine.evaluate({})
        assert state["state"] == "inactive"
        assert state["value"] is None

    def test_labelled_rule_reads_the_exact_series(self):
        snapshot = _counter_snapshot(
            "req_total", {'op="feed"': 90, 'op="query"': 5}
        )
        engine = AlertEngine(
            [
                ThresholdRule(
                    "feeds", "req_total", 50.0, labels={"op": "feed"}
                ),
                ThresholdRule(
                    "queries", "req_total", 50.0, labels={"op": "query"}
                ),
                ThresholdRule("all", "req_total", 90.0),
            ],
            clock=FakeClock(),
            registry=MetricsRegistry(enabled=True),
        )
        states = {s["rule"]: s for s in engine.evaluate(snapshot)}
        assert states["feeds"]["state"] == "firing"
        assert states["queries"]["state"] == "inactive"
        # Unlabelled rules sum every series (95 > 90).
        assert states["all"]["state"] == "firing"

    def test_transitions_are_counted(self):
        registry = MetricsRegistry(enabled=True)
        clock = FakeClock()
        engine = AlertEngine(
            [ThresholdRule("hot", "temp", 10.0)],
            clock=clock,
            registry=registry,
        )
        engine.evaluate(_gauge_snapshot("temp", 20.0))
        engine.evaluate(_gauge_snapshot("temp", 1.0))
        values = registry.snapshot()["counters"][ALERT_TRANSITIONS_METRIC][
            "values"
        ]
        assert values['rule="hot",state="pending"'] == 1
        assert values['rule="hot",state="firing"'] == 1
        assert values['rule="hot",state="resolved"'] == 1


class TestRateRule:
    def test_rate_between_evaluations(self):
        clock = FakeClock()
        engine = AlertEngine(
            [RateRule("surge", "req_total", 50.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        # First sighting establishes the baseline -- never fires.
        (state,) = engine.evaluate(_counter_snapshot("req_total", {"": 100}))
        assert state["state"] == "inactive"
        assert state["value"] is None
        clock.advance(10.0)
        # +1000 over 10 s = 100/s > 50/s.
        (state,) = engine.evaluate(_counter_snapshot("req_total", {"": 1100}))
        assert state["state"] == "firing"
        assert state["value"] == pytest.approx(100.0)
        clock.advance(10.0)
        (state,) = engine.evaluate(_counter_snapshot("req_total", {"": 1150}))
        assert state["state"] == "resolved"
        assert state["value"] == pytest.approx(5.0)

    def test_value_gap_resets_the_baseline(self):
        clock = FakeClock()
        engine = AlertEngine(
            [RateRule("surge", "req_total", 50.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        engine.evaluate(_counter_snapshot("req_total", {"": 100}))
        clock.advance(10.0)
        (state,) = engine.evaluate({})  # metric vanished
        assert state["state"] == "inactive"
        clock.advance(10.0)
        # Reappearance is a fresh baseline, not a huge spurious rate.
        (state,) = engine.evaluate(_counter_snapshot("req_total", {"": 9000}))
        assert state["state"] == "inactive"


class TestAbsenceRule:
    def test_absence_fires_and_reappearance_resolves(self):
        clock = FakeClock()
        engine = AlertEngine(
            [AbsenceRule("silent", "heartbeat_total", for_seconds=60.0)],
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )
        (state,) = engine.evaluate(
            _counter_snapshot("heartbeat_total", {"": 5})
        )
        assert state["state"] == "inactive"
        (state,) = engine.evaluate({})
        assert state["state"] == "pending"
        clock.advance(61.0)
        (state,) = engine.evaluate({})
        assert state["state"] == "firing"
        (state,) = engine.evaluate(
            _counter_snapshot("heartbeat_total", {"": 6})
        )
        assert state["state"] == "resolved"


class TestMergeAlertPayloads:
    def test_most_severe_state_wins_with_source(self):
        quiet = {
            "alerts": [
                {"rule": "skew", "state": "inactive", "severity": "warning"}
            ]
        }
        paging = {
            "alerts": [
                {"rule": "skew", "state": "firing", "severity": "warning"},
                {"rule": "extra", "state": "pending", "severity": "info"},
            ]
        }
        merged = merge_alert_payloads(
            [quiet, paging], sources=["srv0", "srv1"]
        )
        by_rule = {entry["rule"]: entry for entry in merged["alerts"]}
        assert by_rule["skew"]["state"] == "firing"
        assert by_rule["skew"]["source"] == "srv1"
        # Union semantics: rules only one node knows still appear.
        assert by_rule["extra"]["state"] == "pending"
        assert merged["firing"] == 1
        assert merged["nodes"] == 2

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_alert_payloads([{"alerts": []}], sources=["a", "b"])


class TestSkewAlertLifecycle:
    """The acceptance scenario: skewed stream -> pending -> firing -> resolved.

    A real sharded engine feeds the per-shard counters; the rule reads
    the monitor-derived skew ratio (monitors run before resolution, so
    the value is current for the same evaluation pass).
    """

    def test_pending_firing_resolved_over_adversarial_stream(self):
        obs.reset()
        clock = FakeClock()
        registry = obs.get_registry()
        monitor = ShardSkewMonitor(
            1.5, min_window=100, num_shards=2, registry=registry
        )
        engine = AlertEngine(
            [
                ThresholdRule(
                    "shard-skew",
                    SHARD_SKEW_METRIC,
                    1.5,
                    for_seconds=30.0,
                    severity="critical",
                )
            ],
            monitors=[monitor],
            clock=clock,
            registry=registry,
        )
        feeder = StreamEngine(chunk_size=4096)
        with ShardedAlgorithm(count_min_factory, 2, backend="serial") as sharded:
            partitioner = sharded.partitioner
            all_items = np.arange(UNIVERSE, dtype=np.int64)
            shard0_items = all_items[
                partitioner.assign_array(all_items) == 0
            ]
            deltas = np.ones(4096, dtype=np.int64)

            # Baseline: a balanced prefix.
            rng = np.random.default_rng(0)
            balanced = rng.choice(all_items, size=4096).astype(np.int64)
            feeder.drive_arrays(sharded, balanced, deltas)
            (state,) = engine.evaluate(sharded.metrics_snapshot())
            assert state["state"] == "inactive"

            # The adversary aims its whole stream at shard 0.
            skewed = rng.choice(shard0_items, size=4096).astype(np.int64)
            feeder.drive_arrays(sharded, skewed, deltas)
            clock.advance(10.0)
            (state,) = engine.evaluate(sharded.metrics_snapshot())
            assert state["state"] == "pending"
            assert state["value"] == pytest.approx(2.0)

            # Still skewed past the hold duration: the page fires.
            feeder.drive_arrays(sharded, skewed, deltas)
            clock.advance(31.0)
            (state,) = engine.evaluate(sharded.metrics_snapshot())
            assert state["state"] == "firing"

            # The attack ends; a balanced tail resolves the alert.
            feeder.drive_arrays(sharded, balanced, deltas)
            clock.advance(10.0)
            (state,) = engine.evaluate(sharded.metrics_snapshot())
            assert state["state"] == "resolved"
            assert state["value"] < 1.5
        payload = engine.payload()
        assert payload["firing"] == 0
        assert payload["evaluated_at"] == clock.now
        obs.reset()


class TestDefaultFaultRules:
    """The stock fault-tolerance rule set, pinned on a fake clock."""

    def _engine(self, clock, **kwargs):
        return AlertEngine(
            default_fault_rules(**kwargs),
            clock=clock,
            registry=MetricsRegistry(enabled=True),
        )

    def test_rule_set_shape(self):
        rules = default_fault_rules()
        assert [r.name for r in rules] == [
            "worker-restart-storm",
            "client-retry-storm",
            "degraded-reads",
        ]
        by_name = {r.name: r for r in rules}
        assert by_name["worker-restart-storm"].severity == "critical"
        assert by_name["worker-restart-storm"].metric == WORKER_RESTARTS_METRIC
        assert by_name["client-retry-storm"].metric == CLIENT_RETRIES_METRIC
        assert by_name["degraded-reads"].metric == DEGRADED_READS_METRIC
        # every rule tracks a rate: an old incident must not page forever
        assert all(isinstance(r, RateRule) for r in rules)

    def test_restart_storm_pends_then_fires_then_resolves(self):
        clock = FakeClock()
        engine = self._engine(clock, for_seconds=30.0)
        snap = lambda value: _counter_snapshot(
            WORKER_RESTARTS_METRIC, {"": value}
        )
        engine.evaluate(snap(0))  # baseline observation: never fires
        clock.advance(10.0)
        states = {s["rule"]: s for s in engine.evaluate(snap(2))}
        assert states["worker-restart-storm"]["state"] == "pending"
        clock.advance(31.0)  # storm sustained past the hold window
        states = {s["rule"]: s for s in engine.evaluate(snap(12))}
        assert states["worker-restart-storm"]["state"] == "firing"
        assert states["worker-restart-storm"]["severity"] == "critical"
        clock.advance(10.0)  # restarts stop; the counter goes flat
        states = {s["rule"]: s for s in engine.evaluate(snap(12))}
        assert states["worker-restart-storm"]["state"] == "resolved"

    def test_single_supervised_respawn_does_not_page(self):
        """Self-healing is the feature: one respawn in a quiet hour must
        stay below the storm threshold."""
        clock = FakeClock()
        engine = self._engine(clock)
        snap = lambda value: _counter_snapshot(
            WORKER_RESTARTS_METRIC, {"": value}
        )
        engine.evaluate(snap(0))
        clock.advance(60.0)
        states = {s["rule"]: s for s in engine.evaluate(snap(1))}
        # 1 restart / 60 s = 0.017/s < the 0.05/s default
        assert states["worker-restart-storm"]["state"] == "inactive"

    def test_retry_storm_fires_on_sustained_retry_rate(self):
        clock = FakeClock()
        engine = self._engine(clock, retry_rate=1.0, for_seconds=30.0)
        snap = lambda value: _counter_snapshot(
            CLIENT_RETRIES_METRIC, {"kind=reconnect": value}
        )
        engine.evaluate(snap(0))
        clock.advance(10.0)
        states = {s["rule"]: s for s in engine.evaluate(snap(100))}
        assert states["client-retry-storm"]["state"] == "pending"
        clock.advance(31.0)
        states = {s["rule"]: s for s in engine.evaluate(snap(500))}
        assert states["client-retry-storm"]["state"] == "firing"
        assert states["client-retry-storm"]["severity"] == "warning"

    def test_any_degraded_read_fires_immediately(self):
        """No hold window: every stale answer is operator news."""
        clock = FakeClock()
        engine = self._engine(clock)
        snap = lambda value: _counter_snapshot(
            DEGRADED_READS_METRIC, {"servers=1": value}
        )
        engine.evaluate(snap(0))
        clock.advance(5.0)
        states = {s["rule"]: s for s in engine.evaluate(snap(1))}
        assert states["degraded-reads"]["state"] == "firing"
        clock.advance(5.0)  # healthy again: no new degraded reads
        states = {s["rule"]: s for s in engine.evaluate(snap(1))}
        assert states["degraded-reads"]["state"] == "resolved"
