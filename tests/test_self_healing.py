"""Self-healing fleet certification: prober, migration, hedged reads.

Three layers under test:

* the membership layer -- :class:`MembershipStateMachine` transitions
  under a fake clock (hysteresis, flapping, quarantine), the
  :class:`FleetProber` loop with injected probe/readmit/migrate
  callables (cadence, actions, the membership gauge), and the
  ``default_membership_rules`` alert pack;
* the recovery verbs -- ``load_snapshot(merge=True)`` fan-in,
  journal-replaying readmission that refreshes the snapshot cache
  (a readmitted-then-relost server must degrade to *post*-readmission
  state), and cross-server shard migration certified bit-exact;
* hedged reads, on both client transports -- fast path, forced hedges
  with stale-reply discarding, failover to the backup when the primary
  dies mid-read, fingerprint screening of the backup, closing a failed
  backup, and outcome accounting;

plus the acceptance scenario: a concurrent feed swarm against a
three-server fleet whose member gets SIGKILLed mid-ingest (a full
``server_crash``, not a worker kill), auto-migrates its shards via the
prober with zero manual intervention, re-admits the comeback as a
standby, and ends byte-identical to one serial engine.
"""

import asyncio
import time
import types

import numpy as np
import pytest
from client_transports import connect, is_closed

from repro import obs
from repro.core.engine import StreamEngine
from repro.distributed.codec import FingerprintMismatch, snapshot_sketch
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import (
    HEDGED_READS_METRIC,
    MEMBERSHIP_METRIC,
    MIGRATIONS_ACTIVE_METRIC,
    PHASE_SECONDS_METRIC,
    SHARD_MIGRATIONS_METRIC,
    AlertEngine,
    default_membership_rules,
    format_label_pairs,
    histogram_quantile,
)
from repro.service import (
    DEFAULT_HEDGE_DELAY,
    FleetProber,
    MembershipStateMachine,
    RetryPolicy,
    SketchClient,
    SketchCoordinator,
    SketchServer,
    hedge_delay_from_metrics,
)
from repro.service.membership import DOWN, READMITTING, SUSPECT, UP
from repro.testing.faults import (
    ChaosProxy,
    FaultEvent,
    FaultPlan,
    ServerProcess,
    inject_chunk_faults,
)

UNIVERSE = 1 << 14
CHUNK = 4 * 1024
PROBE = np.arange(256, dtype=np.int64)


@pytest.fixture(autouse=True)
def _force_obs_on():
    """Record metrics regardless of the suite-wide ``REPRO_OBS`` mode."""
    registry = obs.get_registry()
    prev = registry.enabled
    registry.enabled = True
    yield
    registry.enabled = prev


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=512, seed=7)


def stream(seed, length):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, UNIVERSE, size=length, dtype=np.int64)
    deltas = rng.integers(-2, 5, size=length, dtype=np.int64)
    return items, deltas


def chunked(items, deltas, chunk=CHUNK):
    return [
        (items[i : i + chunk], deltas[i : i + chunk])
        for i in range(0, len(items), chunk)
    ]


def serial_reference(items, deltas):
    sketch = count_min_factory()
    StreamEngine(chunk_size=CHUNK).drive_arrays([sketch], items, deltas)
    return sketch


def counter_sum(name):
    values = (
        obs.get_registry().snapshot()["counters"].get(name, {}).get("values", {})
    )
    return sum(values.values())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- the membership state machine, no sockets ---------------------------------


class TestMembershipStateMachine:
    def machine(self, clock, **kwargs):
        kwargs.setdefault("suspect_after", 2)
        kwargs.setdefault("recover_after", 2)
        kwargs.setdefault("down_after", 5.0)
        return MembershipStateMachine(3, clock=clock, **kwargs)

    def test_defaults_derive_from_the_retry_policy(self):
        policy = RetryPolicy(max_attempts=4, deadline=12.0)
        machine = MembershipStateMachine(2, policy=policy)
        assert machine.suspect_after == 3
        assert machine.down_after == 12.0

    def test_one_dropped_ping_never_suspects(self):
        clock = FakeClock()
        machine = self.machine(clock)
        assert machine.record_failure(0) is None
        assert machine.state(0) == UP
        assert machine.record_success(0) is None
        assert machine.state(0) == UP

    def test_consecutive_failures_reach_suspect_then_down(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(1)
        assert machine.record_failure(1) is None
        assert machine.state(1) == SUSPECT
        # Inside the deadline: still suspect, no migration requested.
        clock.advance(4.0)
        assert machine.record_failure(1) is None
        assert machine.state(1) == SUSPECT
        # Past the deadline: down, and the shards must move.
        clock.advance(1.5)
        assert machine.record_failure(1) == "migrate"
        assert machine.state(1) == DOWN
        # Down keeps asking until the migration actually lands.
        assert machine.record_failure(1) == "migrate"
        machine.record_migrated(1)
        assert machine.is_migrated(1)
        assert machine.record_failure(1) is None

    def test_suspect_recovers_through_readmitting_to_up(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(0)
        machine.record_failure(0)
        assert machine.state(0) == SUSPECT
        assert machine.record_success(0) is None
        assert machine.record_success(0) == "readmit"
        assert machine.state(0) == READMITTING
        machine.record_readmitted(0)
        assert machine.state(0) == UP
        assert machine.counts() == {
            UP: 3, SUSPECT: 0, DOWN: 0, READMITTING: 0,
        }

    def test_flapping_server_stays_suspect(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(2)
        machine.record_failure(2)
        assert machine.state(2) == SUSPECT
        # Alternating ping outcomes never build the recovery streak.
        for _ in range(10):
            assert machine.record_success(2) is None
            assert machine.record_failure(2) is None
            assert machine.state(2) == SUSPECT

    def test_readmitting_failure_falls_back(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(0)
        machine.record_failure(0)
        machine.record_success(0)
        assert machine.record_success(0) == "readmit"
        # The comeback died mid-readmission.
        assert machine.record_failure(0) is None
        assert machine.state(0) == SUSPECT

    def test_quarantine_is_permanent(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(1)
        machine.record_failure(1)
        machine.record_success(1)
        assert machine.record_success(1) == "readmit"
        # An imposter answered: fingerprint mismatch at readmission.
        machine.record_readmit_failed(1, permanent=True)
        assert machine.state(1) == DOWN
        assert machine.is_quarantined(1)
        # No streak of healthy pings earns another attempt.
        for _ in range(10):
            assert machine.record_success(1) is None
        assert machine.state(1) == DOWN

    def test_transient_readmit_failure_restarts_the_streak(self):
        clock = FakeClock()
        machine = self.machine(clock)
        machine.record_failure(0)
        machine.record_failure(0)
        machine.record_success(0)
        machine.record_success(0)
        machine.record_readmit_failed(0)
        assert machine.state(0) == SUSPECT
        assert machine.record_success(0) is None
        assert machine.record_success(0) == "readmit"


# -- the prober loop with injected actions ------------------------------------


def prober_harness(
    num_servers=3, *, alive=None, clock=None, policy=None, **kwargs
):
    """A FleetProber wired to fakes: probe reads ``alive``, actions record."""
    clock = clock or FakeClock()
    policy = policy or RetryPolicy(
        max_attempts=3, base_delay=0.1, multiplier=2.0, max_delay=0.4,
        deadline=1.0,
    )
    alive = alive if alive is not None else [True] * num_servers
    calls = {"probe": [], "readmit": [], "migrate": []}
    coordinator = types.SimpleNamespace(
        addresses=[("127.0.0.1", 9000 + i) for i in range(num_servers)],
        _policy=policy,
    )

    async def probe(index):
        calls["probe"].append(index)
        return alive[index]

    async def readmit(index):
        calls["readmit"].append(index)
        return {"restored": True}

    async def migrate(index):
        calls["migrate"].append(index)
        return {"migrated": True}

    prober = FleetProber(
        coordinator,
        policy=policy,
        suspect_after=2,
        recover_after=2,
        down_after=1.0,
        clock=clock,
        probe=probe,
        readmit=readmit,
        migrate=migrate,
        **kwargs,
    )
    return prober, alive, calls, clock


class TestFleetProber:
    def test_healthy_fleet_stays_up_and_gauges(self):
        prober, _, calls, _ = prober_harness()

        counts = asyncio.run(prober.step(force=True))
        assert counts == {UP: 3, SUSPECT: 0, DOWN: 0, READMITTING: 0}
        assert sorted(calls["probe"]) == [0, 1, 2]
        gauge = (
            obs.get_registry()
            .snapshot()["gauges"][MEMBERSHIP_METRIC]["values"]
        )
        assert gauge[format_label_pairs({"state": UP})] == 3
        assert gauge[format_label_pairs({"state": DOWN})] == 0

    def test_backoff_cadence_probes_failing_servers_sooner(self):
        prober, alive, calls, clock = prober_harness()
        alive[0] = False

        async def scenario():
            await prober.step(force=True)
            calls["probe"].clear()
            # Nothing is due yet: no clock movement, no probes.
            await prober.step()
            assert calls["probe"] == []
            # The failing server's retry (base_delay) comes due well
            # before the healthy interval (max_delay).
            clock.advance(prober.policy.base_delay)
            await prober.step()
            assert calls["probe"] == [0]
            clock.advance(prober.healthy_interval)
            await prober.step()
            assert sorted(calls["probe"]) == [0, 0, 1, 2]

        asyncio.run(scenario())

    def test_down_server_is_migrated_once(self):
        prober, alive, calls, clock = prober_harness()
        alive[2] = False

        async def scenario():
            await prober.step(force=True)  # failure 1
            await prober.step(force=True)  # failure 2 -> suspect
            assert prober.machine.state(2) == SUSPECT
            clock.advance(1.5)  # past down_after
            await prober.step(force=True)  # -> down + migrate
            assert prober.machine.state(2) == DOWN
            assert calls["migrate"] == [2]
            await prober.step(force=True)  # migrated: no second call
            assert calls["migrate"] == [2]

        asyncio.run(scenario())
        assert [e["event"] for e in prober.events] == ["migrated"]

    def test_recovered_server_is_readmitted(self):
        prober, alive, calls, clock = prober_harness()
        alive[1] = False

        async def scenario():
            await prober.step(force=True)
            await prober.step(force=True)
            assert prober.machine.state(1) == SUSPECT
            alive[1] = True
            await prober.step(force=True)
            await prober.step(force=True)  # streak complete -> readmit
            assert calls["readmit"] == [1]
            assert prober.machine.state(1) == UP

        asyncio.run(scenario())
        assert [e["event"] for e in prober.events] == ["readmitted"]

    def test_imposter_comeback_is_quarantined(self):
        prober, alive, calls, clock = prober_harness()
        alive[0] = False

        async def failing_readmit(index):
            calls["readmit"].append(index)
            raise FingerprintMismatch("imposter")

        prober._readmit = failing_readmit

        async def scenario():
            await prober.step(force=True)
            await prober.step(force=True)
            alive[0] = True
            await prober.step(force=True)
            await prober.step(force=True)  # readmit attempt -> quarantine
            assert calls["readmit"] == [0]
            assert prober.machine.state(0) == DOWN
            assert prober.machine.is_quarantined(0)
            # Healthy pings keep coming; the quarantine holds.
            for _ in range(5):
                await prober.step(force=True)
            assert calls["readmit"] == [0]

        asyncio.run(scenario())
        assert [e["event"] for e in prober.events] == ["quarantined"]


# -- the membership alert pack ------------------------------------------------


def membership_snapshot(*, down=0, active=0, backup=0.0):
    return {
        "counters": {
            HEDGED_READS_METRIC: {
                "help": "",
                "values": {format_label_pairs({"outcome": "backup"}): backup},
            },
        },
        "gauges": {
            MEMBERSHIP_METRIC: {
                "help": "",
                "values": {
                    format_label_pairs({"state": DOWN}): down,
                    format_label_pairs({"state": UP}): 3 - down,
                },
            },
            MIGRATIONS_ACTIVE_METRIC: {"help": "", "values": {"": active}},
        },
        "histograms": {},
    }


class TestMembershipRules:
    def engine(self, clock, **kwargs):
        return AlertEngine(
            default_membership_rules(**kwargs), clock=clock
        )

    def state_of(self, states, rule):
        return next(s for s in states if s["rule"] == rule)

    def test_server_down_fires_immediately_and_resolves(self):
        clock = FakeClock()
        engine = self.engine(clock)
        states = engine.evaluate(membership_snapshot())
        assert self.state_of(states, "server-down")["state"] == "inactive"
        clock.advance(1.0)
        states = engine.evaluate(membership_snapshot(down=1))
        down = self.state_of(states, "server-down")
        assert down["state"] == "firing" and down["severity"] == "critical"
        clock.advance(1.0)
        states = engine.evaluate(membership_snapshot())
        assert self.state_of(states, "server-down")["state"] == "resolved"

    def test_migration_in_progress_tracks_the_gauge(self):
        clock = FakeClock()
        engine = self.engine(clock)
        states = engine.evaluate(membership_snapshot(active=1))
        assert (
            self.state_of(states, "migration-in-progress")["state"] == "firing"
        )
        clock.advance(1.0)
        states = engine.evaluate(membership_snapshot(active=0))
        assert (
            self.state_of(states, "migration-in-progress")["state"]
            == "resolved"
        )

    def test_hedge_backup_rate_needs_sustained_excess(self):
        clock = FakeClock()
        engine = self.engine(clock, hedge_rate=1.0, for_seconds=10.0)
        # First evaluation can never fire: no rate history yet.
        states = engine.evaluate(membership_snapshot(backup=0.0))
        assert self.state_of(states, "hedge-backup-rate")["state"] == "inactive"
        clock.advance(1.0)
        states = engine.evaluate(membership_snapshot(backup=5.0))
        assert self.state_of(states, "hedge-backup-rate")["state"] == "pending"
        clock.advance(10.0)
        states = engine.evaluate(membership_snapshot(backup=60.0))
        assert self.state_of(states, "hedge-backup-rate")["state"] == "firing"
        # The plateau: rate drops to zero, the alert resolves.
        clock.advance(1.0)
        states = engine.evaluate(membership_snapshot(backup=60.0))
        assert self.state_of(states, "hedge-backup-rate")["state"] == "resolved"


# -- quantiles and the adaptive hedge delay -----------------------------------


def phase_snapshot(counts, *, buckets=(0.01, 0.1, 1.0), phase="client.estimate"):
    return {
        "counters": {},
        "gauges": {},
        "histograms": {
            PHASE_SECONDS_METRIC: {
                "help": "",
                "buckets": list(buckets),
                "values": {
                    format_label_pairs({"phase": phase}): [
                        list(counts), 0.0, float(sum(counts)),
                    ],
                },
            },
        },
    }


class TestHedgeDelayDerivation:
    def test_histogram_quantile_picks_the_covering_bucket(self):
        snapshot = phase_snapshot([9, 0, 1, 0])
        name = PHASE_SECONDS_METRIC
        labels = {"phase": "client.estimate"}
        assert histogram_quantile(snapshot, name, 0.5, **labels) == 0.01
        assert histogram_quantile(snapshot, name, 0.95, **labels) == 1.0
        # Overflow observations clamp to the last finite bound.
        overflow = phase_snapshot([0, 0, 0, 3])
        assert histogram_quantile(overflow, name, 0.99, **labels) == 1.0
        # Missing series / empty data resolve to None, not a crash.
        assert histogram_quantile(snapshot, "nope", 0.99) is None
        assert histogram_quantile(snapshot, name, 0.99, phase="other") is None
        with pytest.raises(ValueError):
            histogram_quantile(snapshot, name, 1.5)

    def test_hedge_delay_reads_the_estimate_series(self):
        assert hedge_delay_from_metrics(
            phase_snapshot([90, 9, 1, 0])
        ) == 0.1
        # Server-side series is the fallback when no client series exists.
        assert hedge_delay_from_metrics(
            phase_snapshot([0, 100, 0, 0], phase="service.request")
        ) == 0.1

    def test_hedge_delay_defaults_without_data(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        assert hedge_delay_from_metrics(empty) == DEFAULT_HEDGE_DELAY
        assert hedge_delay_from_metrics(empty, default=0.2) == 0.2


# -- hedged reads over real sockets -------------------------------------------


class TwinServers:
    """Two identically fed servers on daemon threads (hedging fixtures)."""

    def __init__(self, items, deltas, backup_factory=count_min_factory):
        self.primary = SketchServer(count_min_factory)
        self.backup = SketchServer(backup_factory)
        self._ctxs = []
        self.items = items
        self.deltas = deltas

    def __enter__(self):
        for server in (self.primary, self.backup):
            ctx = server.run_in_thread()
            ctx.__enter__()
            self._ctxs.append(ctx)
            with SketchClient.connect("127.0.0.1", server.port) as feeder:
                feeder.feed(self.items, self.deltas)
        return self

    def __exit__(self, *exc_info):
        for ctx in self._ctxs:
            ctx.__exit__(None, None, None)


class TestHedgedReadsSync:
    """Hedged reads on :class:`SketchClient`;
    :class:`TestHedgedReadsAsync` reruns every scenario on the async
    client."""

    transport = "sync"

    def test_fast_primary_never_hedges(self):
        items, deltas = stream(40, 2 * CHUNK)
        expected = serial_reference(items, deltas).estimate_batch(PROBE)
        with TwinServers(items, deltas) as twins:
            with connect(self.transport, "127.0.0.1", twins.primary.port) as client:
                client.enable_hedging(
                    "127.0.0.1", twins.backup.port, delay=5.0
                )
                assert np.array_equal(client.estimate(PROBE), expected)
                assert client.hedge_outcomes == {"fast": 1}
                # The backup connection never even opened.
                assert client._backup is None

    def test_forced_hedges_stay_correct_and_accounted(self):
        items, deltas = stream(41, 2 * CHUNK)
        expected = serial_reference(items, deltas).estimate_batch(PROBE)
        before = counter_sum(HEDGED_READS_METRIC)
        with TwinServers(items, deltas) as twins:
            with connect(
                self.transport,
                "127.0.0.1",
                twins.primary.port,
                retry=RetryPolicy(max_attempts=2, op_timeout=10.0),
            ) as client:
                client.enable_hedging(
                    "127.0.0.1", twins.backup.port, delay=5.0
                )
                assert np.array_equal(client.estimate(PROBE), expected)
                assert client.hedge_outcomes == {"fast": 1}
                # delay=0 hedges every call: both servers answer every
                # read, and the loser's replies must be discarded as
                # stale on later rounds -- five rounds exercise that.
                client.enable_hedging(
                    "127.0.0.1", twins.backup.port, delay=0.0
                )
                for _ in range(5):
                    assert np.array_equal(client.estimate(PROBE), expected)
                assert sum(client.hedge_outcomes.values()) == 6
                assert "failover" not in client.hedge_outcomes
                assert client.ping()["pong"]
        assert counter_sum(HEDGED_READS_METRIC) >= before + 6

    def test_primary_death_fails_over_to_the_backup(self):
        items, deltas = stream(42, 2 * CHUNK)
        expected = serial_reference(items, deltas).estimate_batch(PROBE)
        with TwinServers(items, deltas) as twins:
            with ChaosProxy("127.0.0.1", twins.primary.port) as proxy:
                client = connect(self.transport, "127.0.0.1", proxy.port)
                client.enable_hedging(
                    "127.0.0.1", twins.backup.port, delay=0.0
                )
                # The next client-to-server frame (the estimate) hits a
                # connection reset: the primary dies mid-read and the
                # backup's answer is the answer.
                proxy.faults[proxy.frames_seen + 1] = FaultEvent(
                    at=0, kind="conn_reset"
                )
                assert np.array_equal(client.estimate(PROBE), expected)
                # The reset may land before or after the hedge fires;
                # either way the backup won and nothing raised.
                assert set(client.hedge_outcomes) <= {"failover", "backup"}
                assert sum(client.hedge_outcomes.values()) == 1
                client.close()

    def test_differently_built_backup_is_rejected(self):
        items, deltas = stream(43, CHUNK)

        def other_factory():
            return CountMinSketch(
                universe_size=UNIVERSE, depth=4, width=512, seed=8
            )

        with TwinServers(
            items, deltas, backup_factory=other_factory
        ) as twins, ChaosProxy("127.0.0.1", twins.primary.port) as slow:
            with connect(self.transport, "127.0.0.1", slow.port) as client:
                client.enable_hedging(
                    "127.0.0.1", twins.backup.port, delay=0.0
                )
                # The primary answers the estimate late, so the hedge
                # always fires and meets the mis-built backup.
                slow.faults[slow.frames_seen + 1] = FaultEvent(
                    at=0, kind="frame_delay", param=0.3
                )
                with pytest.raises(FingerprintMismatch):
                    client.estimate(PROBE)
                # The primary's reply to the refused read is discarded,
                # not mistaken for the next call's.
                assert client.ping()["position"] == len(items)

    def test_failed_backup_is_closed_before_it_is_dropped(self):
        items, deltas = stream(46, CHUNK)
        expected = serial_reference(items, deltas).estimate_batch(PROBE)
        with TwinServers(items, deltas) as twins, ChaosProxy(
            "127.0.0.1", twins.primary.port
        ) as slow, ChaosProxy("127.0.0.1", twins.backup.port) as flaky:
            with connect(self.transport, "127.0.0.1", slow.port) as client:
                client.enable_hedging("127.0.0.1", flaky.port, delay=0.0)
                # A late primary makes the first read hedge for certain,
                # which opens the backup connection.
                slow.faults[slow.frames_seen + 1] = FaultEvent(
                    at=0, kind="frame_delay", param=0.3
                )
                assert np.array_equal(client.estimate(PROBE), expected)
                backup = client._backup
                assert backup is not None
                # Next read: the primary answers late and the backup's
                # connection resets under the hedge.
                slow.faults[slow.frames_seen + 1] = FaultEvent(
                    at=0, kind="frame_delay", param=0.3
                )
                flaky.faults[flaky.frames_seen + 1] = FaultEvent(
                    at=0, kind="conn_reset"
                )
                assert np.array_equal(client.estimate(PROBE), expected)
                assert client.hedge_outcomes.get("primary", 0) >= 1
                assert client._backup is None
                assert is_closed(backup)
                assert client.ping()["pong"]


class TestHedgedReadsAsync(TestHedgedReadsSync):
    transport = "async"


# -- merge-mode snapshot loading ----------------------------------------------


class TestMergeLoadSnapshot:
    def test_merge_folds_instead_of_replacing(self):
        items1, deltas1 = stream(50, 2 * CHUNK)
        items2, deltas2 = stream(51, 2 * CHUNK)
        reference = serial_reference(
            np.concatenate([items1, items2]),
            np.concatenate([deltas1, deltas2]),
        )
        local = count_min_factory()
        StreamEngine(chunk_size=CHUNK).drive_arrays([local], items2, deltas2)
        server = SketchServer(count_min_factory)
        with server.run_in_thread():
            with SketchClient.connect("127.0.0.1", server.port) as client:
                client.feed(items1, deltas1)
                # Replacing would lose items1; merging must not.
                client.load_snapshot(snapshot_sketch(local), merge=True)
                assert client.snapshot() == reference.snapshot()

    def test_merge_with_explicit_position(self):
        items, deltas = stream(52, CHUNK)
        local = count_min_factory()
        StreamEngine(chunk_size=CHUNK).drive_arrays([local], items, deltas)
        server = SketchServer(count_min_factory)
        with server.run_in_thread():
            with SketchClient.connect("127.0.0.1", server.port) as client:
                client.load_snapshot(
                    snapshot_sketch(local), position=777, merge=True
                )
                assert client.ping()["position"] == 777


# -- readmission: cache refresh + journal replay (the satellite-1 fix) --------


class TestReadmissionJournalReplay:
    def test_readmitted_then_relost_server_serves_fresh_state(self):
        items, deltas = stream(60, 8 * CHUNK)
        chunks = chunked(items, deltas)
        reference = serial_reference(items, deltas)

        async def scenario():
            first = SketchServer(count_min_factory)
            second = SketchServer(count_min_factory)
            ctx1 = first.run_in_thread()
            ctx1.__enter__()
            ctx2 = second.run_in_thread()
            ctx2.__enter__()
            second_port = second.port
            try:
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", first.port), ("127.0.0.1", second_port)],
                    journal_every=100,  # no rotation: the journal carries it
                )
                await coordinator.connect(
                    retry=RetryPolicy(max_attempts=4, base_delay=0.05)
                )
                # First half reaches the cache via an exact fan-in ...
                for batch in chunks[:4]:
                    await coordinator.feed(*batch)
                await coordinator.merged()
                # ... second half lives only in the journal.
                for batch in chunks[4:]:
                    await coordinator.feed(*batch)
                assert coordinator._logs[1].entries, "journal should be non-empty"

                # Outage + empty comeback on the same address.
                ctx2.__exit__(None, None, None)
                ctx2 = None
                replacement = SketchServer(count_min_factory, port=second_port)
                ctx2 = replacement.run_in_thread()
                ctx2.__enter__()
                report = await coordinator.readmit(1)
                assert report["restored"] is True

                # Re-lose it immediately: the degraded read must serve
                # the *post*-readmission cache -- snapshot + replayed
                # journal -- not the pre-outage bytes.
                ctx2.__exit__(None, None, None)
                ctx2 = None
                degraded = await coordinator.merged()
                assert coordinator.last_read["degraded"] is True
                assert degraded.snapshot() == reference.snapshot()
                await coordinator.close()
            finally:
                if ctx2 is not None:
                    ctx2.__exit__(None, None, None)
                ctx1.__exit__(None, None, None)

        asyncio.run(scenario())


# -- cross-server shard migration ---------------------------------------------


class TestShardMigration:
    def test_migration_is_bit_exact_and_idempotent(self):
        items, deltas = stream(70, 8 * CHUNK)
        chunks = chunked(items, deltas)
        reference = serial_reference(items, deltas)
        before = counter_sum(SHARD_MIGRATIONS_METRIC)

        async def scenario():
            servers = [SketchServer(count_min_factory) for _ in range(3)]
            ctxs = []
            for server in servers:
                ctx = server.run_in_thread()
                ctx.__enter__()
                ctxs.append(ctx)
            try:
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", server.port) for server in servers],
                )
                await coordinator.connect(
                    retry=RetryPolicy(max_attempts=4, base_delay=0.05)
                )
                for batch in chunks[:4]:
                    await coordinator.feed(*batch)

                # Server 2 is lost for good; its shards move to the
                # least-loaded survivor and routing is remapped.
                ctxs[2].__exit__(None, None, None)
                ctxs[2] = None
                info = await coordinator.migrate_server(2)
                assert info["migrated"] is True
                assert info["to"] in (0, 1)
                assert 2 not in coordinator.routing
                assert coordinator.migrations == 1
                # The destination acks exactly the updates it now holds.
                destination = servers[info["to"]]
                with SketchClient.connect("127.0.0.1", destination.port) as client:
                    position = client.ping()["position"]
                assert position == coordinator.routed_updates[info["to"]]

                # Idempotent: a second request is a no-op.
                again = await coordinator.migrate_server(2)
                assert again["migrated"] is False
                assert coordinator.migrations == 1

                # Feeds continue against the surviving fleet, and the
                # exact (non-degraded) fan-in matches a serial engine.
                for batch in chunks[4:]:
                    await coordinator.feed(*batch)
                merged = await coordinator.merged(allow_degraded=False)
                assert coordinator.last_read["degraded"] is False
                assert merged.snapshot() == reference.snapshot()
                await coordinator.close()
            finally:
                for ctx in ctxs:
                    if ctx is not None:
                        ctx.__exit__(None, None, None)

        asyncio.run(scenario())
        assert counter_sum(SHARD_MIGRATIONS_METRIC) >= before + 1

    def test_no_survivor_raises(self):
        async def scenario():
            server = SketchServer(count_min_factory)
            with server.run_in_thread():
                coordinator = SketchCoordinator(
                    count_min_factory, [("127.0.0.1", server.port)]
                )
                await coordinator.connect()
                with pytest.raises(RuntimeError):
                    await coordinator.migrate_server(0)
                await coordinator.close()

        asyncio.run(scenario())


# -- the acceptance scenario: kill a server mid-ingest, heal, stay exact ------


class TestSelfHealingEndToEnd:
    NUM_FEEDERS = 4

    def test_server_crash_migrates_heals_and_stays_bit_exact(self):
        num_chunks = 16
        items, deltas = stream(80, num_chunks * CHUNK)
        chunks = chunked(items, deltas)
        reference = serial_reference(items, deltas)
        feeder_chunks = chunks[0 :: self.NUM_FEEDERS]
        plan = FaultPlan(
            4242,
            chunks=len(feeder_chunks),
            frames=2,
            worker_kills=0,
            wire_faults=0,
            server_crashes=1,
            num_servers=3,
        )
        (crash,) = plan.server_crashes()
        assert plan.kinds() == {"server_crash"}
        before = counter_sum(SHARD_MIGRATIONS_METRIC)

        # Fork the fleet before any event loop exists in this process.
        servers = [ServerProcess(count_min_factory) for _ in range(3)]
        for server in servers:
            server.start()
        try:
            asyncio.run(self._scenario(servers, chunks, plan, crash, reference))
        finally:
            for server in servers:
                server.stop()
        assert servers[crash.target].crashes == 1
        assert counter_sum(SHARD_MIGRATIONS_METRIC) >= before + 1

    async def _scenario(self, servers, chunks, plan, crash, reference):
        coordinator = SketchCoordinator(
            count_min_factory,
            [("127.0.0.1", server.port) for server in servers],
        )
        await coordinator.connect(
            retry=RetryPolicy(
                max_attempts=12,
                base_delay=0.05,
                multiplier=2.0,
                max_delay=0.3,
                deadline=30.0,
                op_timeout=2.0,
            )
        )
        # An aggressive prober: two failed probes suspect a server, one
        # second of suspicion declares it down and moves its shards.
        prober = coordinator.start_prober(
            policy=RetryPolicy(
                max_attempts=3,
                base_delay=0.05,
                multiplier=2.0,
                max_delay=0.2,
                deadline=1.0,
                op_timeout=0.5,
            ),
            recover_after=2,
        )

        def killer(event):
            servers[event.target].crash()

        async def feed_slice(k):
            source = chunks[k :: self.NUM_FEEDERS]
            if k == 0:
                source = inject_chunk_faults(iter(source), plan, killer)
            for batch_items, batch_deltas in source:
                await coordinator.feed(batch_items, batch_deltas)

        # No client-visible errors beyond retried ones: gather raises
        # if any feeder saw a non-retryable failure.
        await asyncio.gather(
            *(feed_slice(k) for k in range(self.NUM_FEEDERS))
        )
        total = sum(len(batch[0]) for batch in chunks)
        assert coordinator.position == total

        # The feeds could only complete because the prober migrated the
        # dead server's shards out from under the stalled slices.
        assert coordinator.migrations >= 1
        assert prober.machine.state(crash.target) == DOWN
        assert prober.machine.is_migrated(crash.target)

        # Comeback: a fresh empty server on the same port is re-admitted
        # as a standby (its shards live on the survivor now).
        servers[crash.target].restart()
        deadline = time.monotonic() + 20.0
        while prober.machine.state(crash.target) != UP:
            assert time.monotonic() < deadline, "comeback was never readmitted"
            await asyncio.sleep(0.05)

        # The certificate: byte-identical to one serial engine.
        merged = await coordinator.merged(allow_degraded=False)
        assert coordinator.last_read["degraded"] is False
        assert merged.snapshot() == reference.snapshot()
        await coordinator.close()
