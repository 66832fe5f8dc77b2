"""Chaos certification: the fault-tolerance stack under injected failure.

Everything here derives from seeded :class:`FaultPlan` schedules, so a
failing run reproduces under its seed.  The layers under test:

* :class:`RetryPolicy` -- backoff shape, attempt cap, deadline (fake
  clock);
* the exactly-once feed protocol -- contiguous per-client ``seq``
  dedup, :class:`SequenceGap` on skips, duplicate acks that do not
  re-apply -- on both client transports;
* graceful degradation -- :class:`ServerBusy` shedding past the queue
  deadline, and the resilient client riding it out;
* the :class:`ChaosProxy` wire faults (connection resets, truncated
  frames, delayed frames, slow reads), each certified bit-exact on both
  client transports;
* supervised worker respawn under SIGKILL, over the wire, including
  the acceptance scenario: a 4-client swarm against a process-backend
  fleet absorbing the full fault repertoire and finishing byte-identical
  to a serial engine with zero manual intervention;
* coordinator failover -- degraded reads from cached snapshots,
  staleness annotation, and re-admission of a restarted server.

Bit-exactness is the certificate everywhere: after the chaos run, the
served merged snapshot must equal the snapshot of one serial
``StreamEngine`` fed the same updates -- recovery that loses or
double-applies even one update changes the bytes.
"""

import asyncio
import contextlib
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from client_transports import connect

from repro import obs
from repro.core.engine import StreamEngine
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import WORKER_RESTARTS_METRIC
from repro.service import (
    RetryPolicy,
    SequenceGap,
    ServerBusy,
    ServiceError,
    SketchClient,
    SketchCoordinator,
    SketchServer,
)
from repro.service.protocol import ProtocolError
from repro.testing.faults import (
    WIRE_FAULT_KINDS,
    ChaosProxy,
    FaultEvent,
    FaultPlan,
    inject_worker_kills,
    kill_worker,
)

UNIVERSE = 1 << 14
CHUNK = 4 * 1024
PROBE = np.arange(256, dtype=np.int64)


@pytest.fixture(autouse=True)
def _force_obs_on():
    """Record metrics regardless of the suite-wide ``REPRO_OBS`` mode.

    The certification assertions read ``repro_worker_restarts_total``
    and friends; forcing the registry on keeps them meaningful under
    both CI observability modes.
    """
    registry = obs.get_registry()
    prev = registry.enabled
    registry.enabled = True
    yield
    registry.enabled = prev


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=512, seed=7)


SIS_UNIVERSE = 512


def sis_factory():
    return SisL0Estimator(SIS_UNIVERSE, eps=0.5, c=0.25, seed=37)


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


def restarts_metric_total():
    values = (
        obs.get_registry()
        .snapshot()["counters"]
        .get(WORKER_RESTARTS_METRIC, {})
        .get("values", {})
    )
    return sum(values.values())


# -- the retry policy, no sockets --------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_capped_exponential_delays(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5
        )
        assert [policy.delay(n) for n in range(5)] == [
            0.1,
            0.2,
            0.4,
            0.5,
            0.5,
        ]

    def test_schedule_exhausts_after_max_attempts(self):
        schedule = RetryPolicy(
            max_attempts=3, base_delay=0.01, deadline=None
        ).start()
        assert schedule.next_delay() is not None
        assert schedule.next_delay() is not None
        assert schedule.next_delay() is None

    def test_deadline_bounds_the_episode_and_clips_the_last_sleep(self):
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=100,
            base_delay=4.0,
            multiplier=1.0,
            max_delay=4.0,
            deadline=10.0,
        )
        schedule = policy.start(clock=clock)
        assert schedule.next_delay() == 4.0
        clock.advance(4.0)
        assert schedule.next_delay() == 4.0
        clock.advance(4.0)
        # 8s elapsed: the next sleep is clipped to the 2s remaining...
        assert schedule.next_delay() == pytest.approx(2.0)
        clock.advance(2.0)
        # ...and the budget is gone.
        assert schedule.next_delay() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"base_delay": 1.0, "max_delay": 0.5},
            {"deadline": 0.0},
            {"op_timeout": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# -- the fault plan: seeded determinism ---------------------------------------


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(777, chunks=10, frames=10, worker_kills=2, wire_faults=3)
        b = FaultPlan(777, chunks=10, frames=10, worker_kills=2, wire_faults=3)
        assert a.events == b.events
        assert a.digest() == b.digest()

    def test_digest_is_pinned(self):
        # Cross-run / cross-machine reproducibility: the schedule derives
        # from random.Random(seed) alone, so this digest is a constant.
        plan = FaultPlan(
            777, chunks=10, frames=10, worker_kills=2, wire_faults=3
        )
        assert plan.digest() == (
            "6c1149e593e19212cecca283fe501ed382b61aefecada100a8213bbbf81e4361"
        )

    def test_different_seed_different_schedule(self):
        a = FaultPlan(1, chunks=32, frames=32, worker_kills=2, wire_faults=4)
        b = FaultPlan(2, chunks=32, frames=32, worker_kills=2, wire_faults=4)
        assert a.digest() != b.digest()

    def test_events_land_inside_their_ranges(self):
        plan = FaultPlan(
            42, chunks=8, frames=12, worker_kills=3, wire_faults=5, num_shards=2
        )
        for event in plan.worker_kills():
            assert 1 <= event.at < 8
            assert event.target in (0, 1)
        for at, event in plan.wire_faults().items():
            assert 1 <= at < 12
            assert event.kind in WIRE_FAULT_KINDS

    def test_kind_repertoire_is_respected(self):
        plan = FaultPlan(
            9, chunks=8, frames=32, wire_faults=8, kinds=("frame_delay",)
        )
        assert plan.kinds() <= {"worker_kill", "frame_delay"}
        with pytest.raises(ValueError):
            FaultPlan(9, chunks=8, frames=8, kinds=("melt_cpu",))


# -- exactly-once sequenced feeds ---------------------------------------------


class TestExactlyOnceFeeds:
    """Sequenced-feed dedup on :class:`SketchClient`;
    :class:`TestExactlyOnceFeedsAsync` reruns it on the async client."""

    transport = "sync"

    def test_duplicate_seq_acks_without_reapplying(self):
        items, deltas = stream(2, 500)
        server = SketchServer(count_min_factory)
        with server.run_in_thread():
            with connect(
                self.transport, "127.0.0.1", server.port, client_id="c1"
            ) as client, connect(
                self.transport, "127.0.0.1", server.port, client_id="c2"
            ) as other:
                first = client.feed(items, deltas, seq=1)
                assert first == {"count": 500, "position": 500}
                # The retransmit: acked as a duplicate, never re-applied.
                dup = client.feed(items, deltas, seq=1)
                assert dup == {"count": 0, "position": 500, "duplicate": True}
                # A skip is rejected before the engine sees it.
                with pytest.raises(SequenceGap, match="resend from seq 2"):
                    client.feed(items, deltas, seq=3)
                second = client.feed(items, deltas, seq=2)
                assert second["position"] == 1000
                # An unknown client's first seq is accepted as-is.
                assert other.feed(items, deltas, seq=41)["position"] == 1500
                snapshot = client.snapshot()
        # Three applications exactly, despite five feed frames.
        reference = count_min_factory()
        for _ in range(3):
            reference.feed_batch(items, deltas)
        assert np.array_equal(
            reference.estimate_batch(PROBE),
            count_min_factory().restore(snapshot).estimate_batch(PROBE),
        )

    def test_sequenced_feed_validates_its_fields(self):
        server = SketchServer(count_min_factory)
        items, deltas = stream(3, 10)
        with server.run_in_thread():
            with connect(self.transport, "127.0.0.1", server.port) as client:
                # feed(seq=) only sends integers, so build the frame the
                # call surface would refuse through the core's request.
                with pytest.raises(ServiceError, match="integer 'seq'"):
                    client._run(
                        client._call(
                            "feed",
                            items=items,
                            deltas=deltas,
                            client="c1",
                            seq="one",
                        )
                    )

    def test_resend_of_a_rejected_feed_gets_its_error_again(self):
        """A sequenced feed whose apply raised is never acked: not as
        sent, and not as a duplicate when resent; nor is it re-applied."""
        good = np.arange(40, dtype=np.int64)
        ones = np.ones(40, dtype=np.int64)
        bad = np.array([1, 2, SIS_UNIVERSE + 5, 3], dtype=np.int64)
        server = SketchServer(sis_factory)
        with server.run_in_thread():
            with connect(
                self.transport, "127.0.0.1", server.port, client_id="c1"
            ) as client:
                assert client.feed(good, ones, seq=1)["position"] == 40
                for _ in range(2):
                    with pytest.raises(ServiceError, match="outside universe") as info:
                        client.feed(bad, np.ones(4, dtype=np.int64), seq=2)
                    assert info.value.kind == "ValueError"
                assert client.feed(good, ones, seq=3)["position"] == 80
                snapshot = client.snapshot()
        reference = sis_factory()
        for _ in range(2):
            reference.feed_batch(good, ones)
        assert snapshot == reference.snapshot()


class TestExactlyOnceFeedsAsync(TestExactlyOnceFeeds):
    transport = "async"


# -- graceful degradation: the busy reply -------------------------------------

# The slow sketch blocks its first batch on an event the test controls,
# so "the engine is saturated" is a fact, not a sleep-length guess.
_ENGINE_ENTERED = threading.Event()
_ENGINE_RELEASE = threading.Event()


class GatedCountMin(CountMinSketch):
    def feed_batch(self, items, deltas):
        _ENGINE_ENTERED.set()
        _ENGINE_RELEASE.wait(timeout=10.0)
        return super().feed_batch(items, deltas)


def gated_factory():
    return GatedCountMin(universe_size=UNIVERSE, depth=4, width=512, seed=7)


class TestServerBusyShedding:
    def test_saturated_queue_sheds_with_retryable_busy(self):
        _ENGINE_ENTERED.clear()
        _ENGINE_RELEASE.clear()
        items, deltas = stream(4, 800)
        server = SketchServer(
            gated_factory, queue_depth=1, queue_deadline=0.05
        )
        with server.run_in_thread():
            slow = SketchClient.connect("127.0.0.1", server.port)
            fast = SketchClient.connect("127.0.0.1", server.port)
            blocker = threading.Thread(
                target=slow.feed, args=(items, deltas), daemon=True
            )
            blocker.start()
            assert _ENGINE_ENTERED.wait(timeout=5.0)
            # The engine slot is provably held: the next request must be
            # shed within the queue deadline, untouched by the engine.
            with pytest.raises(ServerBusy, match="retry"):
                fast.feed(items, deltas)
            # A resilient feed rides the busy replies out: release the
            # engine shortly, and the backoff loop lands the chunk.
            threading.Timer(0.4, _ENGINE_RELEASE.set).start()
            result = fast.feed_chunks(
                [(items, deltas)],
                window=1,
                retry=RetryPolicy(
                    max_attempts=10, base_delay=0.1, max_delay=0.5,
                    deadline=10.0,
                ),
            )
            blocker.join(timeout=10)
            assert result["count"] == 800
            assert fast.retries >= 1
            # Exactly-once accounting: one blocked feed + one resilient
            # feed applied; the shed request never touched the engine.
            assert fast.ping()["position"] == 1600
            stats = fast.stats()
            assert stats["busy"] >= 1
            assert stats["queue_deadline"] == pytest.approx(0.05)
            slow.close()
            fast.close()


# -- wire faults, one kind at a time ------------------------------------------


class TestWireFaults:
    """Each wire fault on :class:`SketchClient`;
    :class:`TestWireFaultsAsync` reruns them on the async client."""

    transport = "sync"

    @pytest.mark.parametrize("kind", WIRE_FAULT_KINDS)
    def test_each_kind_completes_bit_exact(self, kind):
        items, deltas = stream(5, 4 * CHUNK)
        chunks = chunked(items, deltas)
        server = SketchServer(count_min_factory, 2, "serial")
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.02, deadline=20.0, op_timeout=5.0
        )
        with server.run_in_thread():
            with ChaosProxy("127.0.0.1", server.port) as proxy:
                client = connect(
                    self.transport, "127.0.0.1", proxy.port, retry=policy
                )
                # Register after the handshake so the fault hits a feed
                # frame (the resilient loop owns all replay from there).
                target = proxy.frames_seen + 2
                proxy.faults[target] = FaultEvent(
                    at=target, kind=kind, param=0.2
                )
                result = client.feed_chunks(
                    iter(chunks), window=2, retry=policy
                )
                assert proxy.faults_applied
                client.close()
            assert result == {"count": len(items), "position": len(items)}
            with SketchClient.connect("127.0.0.1", server.port) as direct:
                snapshot = direct.snapshot()
        assert snapshot == serial_reference(items, deltas).snapshot()
        if kind in ("conn_reset", "frame_truncate"):
            assert client.retries >= 1
        else:
            # Delays and slow reads are absorbed by timeouts, not retries.
            assert client.retries == 0

    def test_replayed_frames_own_their_arrays(self):
        # The source refills one buffer per chunk; frames still in the
        # window when the connection resets are resent after the refill.
        items, deltas = stream(8, 4 * 1000)
        buffer_items = np.empty(1000, dtype=np.int64)
        buffer_deltas = np.empty(1000, dtype=np.int64)

        def refilled():
            for start in range(0, len(items), 1000):
                buffer_items[:] = items[start : start + 1000]
                buffer_deltas[:] = deltas[start : start + 1000]
                yield buffer_items, buffer_deltas

        server = SketchServer(count_min_factory, 2, "serial")
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.02, deadline=20.0, op_timeout=5.0
        )
        with server.run_in_thread():
            with ChaosProxy("127.0.0.1", server.port) as proxy:
                client = connect(
                    self.transport, "127.0.0.1", proxy.port, retry=policy
                )
                target = proxy.frames_seen + 2
                proxy.faults[target] = FaultEvent(at=target, kind="conn_reset")
                result = client.feed_chunks(refilled(), window=4, retry=policy)
                assert proxy.faults_applied
                client.close()
            assert result == {"count": len(items), "position": len(items)}
            with SketchClient.connect("127.0.0.1", server.port) as direct:
                snapshot = direct.snapshot()
        assert snapshot == serial_reference(items, deltas).snapshot()

    def test_retry_exhaustion_raises_the_last_error(self):
        # Every frame after the handshake gets reset; a one-retry policy
        # must give up with the transport error instead of looping.
        items, deltas = stream(6, 2 * CHUNK)
        server = SketchServer(count_min_factory)
        policy = RetryPolicy(
            max_attempts=2, base_delay=0.01, deadline=2.0, op_timeout=2.0
        )
        with server.run_in_thread():
            with ChaosProxy("127.0.0.1", server.port) as proxy:
                client = connect(
                    self.transport, "127.0.0.1", proxy.port, retry=policy
                )
                proxy.faults.update(
                    {
                        at: FaultEvent(at=at, kind="conn_reset")
                        for at in range(
                            proxy.frames_seen + 1, proxy.frames_seen + 40
                        )
                    }
                )
                with pytest.raises((OSError, ProtocolError)):
                    client.feed_chunks(
                        iter(chunked(items, deltas)), window=2, retry=policy
                    )
                client.close()


class TestWireFaultsAsync(TestWireFaults):
    transport = "async"


# -- supervised respawn over the wire -----------------------------------------


class TestSupervisedRecovery:
    def test_sigkill_mid_ingest_recovers_bit_exact(self):
        plan = FaultPlan(
            777, chunks=10, frames=10, worker_kills=2, wire_faults=3,
            num_shards=2,
        )
        assert plan.kinds() >= {"worker_kill", "conn_reset", "slow_read"}
        items, deltas = stream(7, 10 * CHUNK)
        chunks = chunked(items, deltas)
        assert len(chunks) == 10
        server = SketchServer(
            count_min_factory,
            2,
            "process",
            snapshot_every=4,
            queue_deadline=5.0,
        )
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.02, deadline=30.0, op_timeout=10.0
        )
        before = restarts_metric_total()
        with server.run_in_thread():
            with ChaosProxy("127.0.0.1", server.port) as proxy:
                client = SketchClient.connect(
                    "127.0.0.1", proxy.port, retry=policy
                )
                proxy.faults.update(
                    {
                        at + proxy.frames_seen: event
                        for at, event in plan.wire_faults().items()
                    }
                )
                source = inject_worker_kills(
                    iter(chunks),
                    plan,
                    lambda event: kill_worker(server, event.target),
                )
                result = client.feed_chunks(source, window=4, retry=policy)
                client.close()
            assert result == {"count": len(items), "position": len(items)}
            health = server.engine.algorithm.health()
            assert health["restarts"] == len(plan.worker_kills()) == 2
            assert health["ok"]
            with SketchClient.connect("127.0.0.1", server.port) as direct:
                snapshot = direct.snapshot()
        assert snapshot == serial_reference(items, deltas).snapshot()
        assert restarts_metric_total() >= before + 2

    def test_kill_worker_waits_on_the_killed_process_not_its_successor(
        self, monkeypatch
    ):
        context = multiprocessing.get_context("fork")
        victim = context.Process(target=time.sleep, args=(60,), daemon=True)
        successor = context.Process(target=time.sleep, args=(60,), daemon=True)
        victim.start()
        successor.start()
        pool = FakePool([victim])
        signal_process = os.kill

        def kill_then_respawn(pid, signum):
            # The engine thread reaps the corpse and installs a respawned
            # worker before the killer looks at the pool again.
            signal_process(pid, signum)
            victim.join(timeout=5)
            pool._processes[0] = successor

        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "kill", kill_then_respawn)
                assert kill_worker(pool, 0, wait=2.0) == victim.pid
            assert not victim.is_alive()
            assert successor.is_alive()
        finally:
            successor.kill()
            successor.join(timeout=5)


class FakePool:
    """The process-pool surface :func:`kill_worker` reads."""

    def __init__(self, processes):
        self._processes = processes

    def worker_pids(self):
        return [process.pid for process in self._processes]


# -- the acceptance scenario: a 4-client swarm under the full repertoire ------


class TestChaosSwarm:
    def test_swarm_survives_full_fault_repertoire_bit_exact(self):
        # Seed 2030's schedule spans all five fault kinds (two SIGKILLs
        # plus truncate/delay/reset/slow-read on the wire).
        plan = FaultPlan(
            2030, chunks=12, frames=20, worker_kills=2, wire_faults=4,
            num_shards=2,
        )
        assert len(plan.kinds()) >= 3
        assert plan.kinds() == {
            "worker_kill",
            "frame_truncate",
            "frame_delay",
            "conn_reset",
            "slow_read",
        }
        num_clients = 4
        items, deltas = stream(8, 20 * CHUNK)
        slices = [
            (items[k::num_clients], deltas[k::num_clients])
            for k in range(num_clients)
        ]
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=0.02,
            max_delay=0.5,
            deadline=60.0,
            op_timeout=15.0,
        )
        server = SketchServer(
            count_min_factory,
            2,
            "process",
            snapshot_every=4,
            queue_deadline=5.0,
        )
        before = restarts_metric_total()
        results: dict = {}
        errors: list = []
        with server.run_in_thread():
            with ChaosProxy("127.0.0.1", server.port) as proxy:
                clients = [
                    SketchClient.connect("127.0.0.1", proxy.port, retry=policy)
                    for _ in range(num_clients)
                ]
                # Handshakes are done; every scheduled fault now lands on
                # swarm traffic (or its replays).
                base = proxy.frames_seen
                proxy.faults.update(
                    {
                        at + base: event
                        for at, event in plan.wire_faults().items()
                    }
                )

                def run_client(k):
                    try:
                        results[k] = clients[k].feed_chunks(
                            iter(chunked(*slices[k])),
                            window=4,
                            retry=policy,
                        )
                    except Exception as exc:  # surfaced after the join
                        errors.append((k, exc))

                threads = [
                    threading.Thread(target=run_client, args=(k,), daemon=True)
                    for k in range(num_clients)
                ]
                for thread in threads:
                    thread.start()
                # Zero manual intervention: the kills fire on the plan's
                # schedule (frame thresholds), the stack does the rest.
                for event in plan.worker_kills():
                    deadline = time.monotonic() + 60.0
                    while proxy.frames_seen < base + event.at:
                        assert time.monotonic() < deadline, (
                            "swarm stalled before the scheduled kill"
                        )
                        time.sleep(0.005)
                    kill_worker(server, event.target)
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive(), "client thread wedged"
                for client in clients:
                    client.close()
            assert errors == []
            assert sum(r["count"] for r in results.values()) == len(items)
            health = server.engine.algorithm.health()
            assert health["restarts"] >= 1
            with SketchClient.connect("127.0.0.1", server.port) as direct:
                assert direct.ping()["position"] == len(items)
                snapshot = direct.snapshot()
        # Byte-identical to one serial engine fed the whole stream: the
        # sketches' update rules commute, so the swarm's interleaving --
        # kills, resets, and replays included -- must leave no trace.
        assert snapshot == serial_reference(items, deltas).snapshot()
        assert restarts_metric_total() >= before + 1


# -- coordinator failover -----------------------------------------------------


class TestCoordinatorFailover:
    def test_degraded_reads_and_readmission(self):
        items, deltas = stream(9, 8 * CHUNK)
        reference = serial_reference(items, deltas)
        expected = reference.estimate_batch(PROBE)

        async def scenario():
            first = SketchServer(count_min_factory)
            second = SketchServer(count_min_factory)
            ctx1 = first.run_in_thread()
            ctx1.__enter__()
            ctx2 = second.run_in_thread()
            ctx2.__enter__()
            second_port = None
            try:
                second_port = second.port
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", first.port), ("127.0.0.1", second_port)],
                )
                await coordinator.connect(
                    retry=RetryPolicy(max_attempts=5, base_delay=0.05)
                )
                await coordinator.feed_chunks(chunked(items, deltas))
                merged = await coordinator.merged()
                assert np.array_equal(
                    merged.estimate_batch(PROBE), expected
                )
                assert coordinator.last_read["degraded"] is False

                # Outage: server 1 goes away mid-deployment.
                ctx2.__exit__(None, None, None)
                ctx2 = None
                health = await coordinator.health()
                assert health[0]["ok"] is True
                assert health[1]["ok"] is False and "error" in health[1]

                # Reads degrade to the cached snapshot -- annotated, and
                # still exact here because nothing fed since the cache.
                degraded = await coordinator.merged()
                assert np.array_equal(
                    degraded.estimate_batch(PROBE), expected
                )
                read = coordinator.last_read
                assert read["degraded"] is True and read["stale"] == [1]
                assert read["stale_positions"][1] == coordinator.position
                assert coordinator.degraded_reads >= 1

                # A checkpoint must never freeze a dead shard's past.
                with pytest.raises((OSError, ProtocolError, ServiceError)):
                    await coordinator.checkpoint("/tmp/never-written.ckpt")

                # Recovery: a fresh (empty) server on the same address is
                # re-admitted and restored from the cached snapshot.
                replacement = SketchServer(
                    count_min_factory, port=second_port
                )
                ctx2 = replacement.run_in_thread()
                ctx2.__enter__()
                report = await coordinator.readmit(1)
                assert report["restored"] is True
                assert report["position"] == coordinator.position

                healed = await coordinator.merged()
                assert coordinator.last_read["degraded"] is False
                assert np.array_equal(
                    healed.estimate_batch(PROBE), expected
                )
                await coordinator.close()
            finally:
                if ctx2 is not None:
                    ctx2.__exit__(None, None, None)
                ctx1.__exit__(None, None, None)

        asyncio.run(scenario())

    def test_a_rejected_slice_raises_at_once_and_is_never_acked(self):
        """An engine error is the server's answer to the slice, not a
        fault: ``feed`` raises it without resending, and no server's
        journal claims the rejected slice."""
        rng = np.random.default_rng(5)
        items = rng.integers(0, SIS_UNIVERSE, size=100, dtype=np.int64)
        deltas = np.ones(100, dtype=np.int64)
        bad_items = np.array([3, 77, SIS_UNIVERSE + 9, 200], dtype=np.int64)
        bad_deltas = np.ones(4, dtype=np.int64)

        async def scenario(ports):
            coordinator = SketchCoordinator(
                sis_factory, [("127.0.0.1", port) for port in ports]
            )
            await coordinator.connect(
                retry=RetryPolicy(max_attempts=3, base_delay=0.01)
            )
            assert await coordinator.feed(items, deltas) == 100
            with pytest.raises(ServiceError, match="outside universe") as info:
                await coordinator.feed(bad_items, bad_deltas)
            assert info.value.kind == "ValueError"
            assert coordinator.position == 100
            positions = [stats["position"] for stats in await coordinator.stats()]
            assert positions == coordinator.routed_updates
            merged = await coordinator.merged(allow_degraded=False)
            accepted = [
                part
                for part in coordinator.partitioner.split(bad_items, bad_deltas)
                if part is not None and SIS_UNIVERSE + 9 not in part[0]
            ]
            await coordinator.close()
            return merged, accepted

        with contextlib.ExitStack() as stack:
            ports = [
                stack.enter_context(SketchServer(sis_factory).run_in_thread()).port
                for _ in range(2)
            ]
            merged, accepted = asyncio.run(scenario(ports))
        reference = sis_factory()
        engine = StreamEngine()
        for part_items, part_deltas in [(items, deltas), *accepted]:
            engine.drive_arrays([reference], part_items, part_deltas)
        assert merged.snapshot() == reference.snapshot()

    def test_two_dropped_connections_reconnect_and_resend_together(self):
        """Both servers' connections drop in the same feed, and each
        resend then takes ``pause`` to reach its server: the two
        reconnect-and-resend rounds overlap, so the feed takes about one
        pause, not one per server, and nothing is applied twice."""
        pause = 0.5
        items, deltas = stream(12, 2 * CHUNK)

        async def scenario(proxies):
            coordinator = SketchCoordinator(
                count_min_factory,
                [("127.0.0.1", proxy.port) for proxy in proxies],
            )
            await coordinator.connect(
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, op_timeout=5.0)
            )
            await coordinator.feed(items[:CHUNK], deltas[:CHUNK])
            for proxy in proxies:
                # The next feed frame is dropped with its connection, the
                # reconnect's hello passes, and the resend is held up.
                after = proxy.frames_seen
                proxy.faults[after + 1] = FaultEvent(at=after + 1, kind="conn_reset")
                proxy.faults[after + 3] = FaultEvent(
                    at=after + 3, kind="frame_delay", param=pause
                )
            started = time.perf_counter()
            await coordinator.feed(items[CHUNK:], deltas[CHUNK:])
            elapsed = time.perf_counter() - started
            merged = await coordinator.merged(allow_degraded=False)
            await coordinator.close()
            return elapsed, merged

        with contextlib.ExitStack() as stack:
            proxies = []
            for _ in range(2):
                server = SketchServer(count_min_factory)
                port = stack.enter_context(server.run_in_thread()).port
                proxies.append(stack.enter_context(ChaosProxy("127.0.0.1", port)))
            elapsed, merged = asyncio.run(scenario(proxies))
            applied = [[fault.kind for fault in p.faults_applied] for p in proxies]
        assert applied == [["conn_reset", "frame_delay"]] * 2
        assert elapsed < 1.6 * pause, elapsed
        assert merged.snapshot() == serial_reference(items, deltas).snapshot()

    def test_readmit_rejects_a_differently_constructed_server(self):
        from repro.distributed.codec import FingerprintMismatch

        def other_factory():
            return CountMinSketch(
                universe_size=UNIVERSE, depth=4, width=512, seed=8
            )

        async def scenario():
            first = SketchServer(count_min_factory)
            ctx1 = first.run_in_thread()
            ctx1.__enter__()
            imposter_ctx = None
            try:
                coordinator = SketchCoordinator(
                    count_min_factory, [("127.0.0.1", first.port)]
                )
                await coordinator.connect()
                port = first.port
                ctx1.__exit__(None, None, None)
                ctx1 = None
                imposter = SketchServer(other_factory, port=port)
                imposter_ctx = imposter.run_in_thread()
                imposter_ctx.__enter__()
                with pytest.raises(FingerprintMismatch, match="re-admit"):
                    await coordinator.readmit(0)
                await coordinator.close()
            finally:
                if imposter_ctx is not None:
                    imposter_ctx.__exit__(None, None, None)
                if ctx1 is not None:
                    ctx1.__exit__(None, None, None)

        asyncio.run(scenario())
