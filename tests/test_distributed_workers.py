"""Process-backend equivalence: worker fleets must be observationally
identical to the single engine.

``ShardedAlgorithm(backend="process")`` routes chunks to
``multiprocessing`` workers over shared memory and fans state back in as
wire-format snapshots; these tests enforce that the merged state stays
bit-identical to the single-engine (and thread/serial-backend) state for
every mergeable sketch family, that the white-box game plays out
identically against a process fleet (the adaptive-adversary requirement
of the acceptance criteria), and that pool mechanics (buffer growth,
per-update routing, checkpoint restore into workers, close semantics)
hold up.  Worker counts stay at 2 so the suite passes on 1-CPU runners.
"""

import random

import numpy as np
import pytest

from repro.core.adversary import ObliviousAdversary
from repro.core.engine import StreamEngine
from repro.core.game import frequency_truth
from repro.core.stream import Update
from repro.distinct.exact_l0 import ExactL0
from repro.distinct.kmv import KMVEstimator
from repro.distinct.sis_l0 import SisL0Estimator
from repro.distributed.replay import merge_states
from repro.distributed.workers import ProcessShardPool, WorkerDied
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.heavyhitters.misra_gries import MisraGriesAlgorithm
from repro.moments.ams import AMSSketch
from repro.moments.frequency import ExactFpMoment
from repro.parallel import ShardedAlgorithm
from repro.testing.faults import kill_worker

FAMILIES = {
    "count-min": (
        lambda: CountMinSketch(500, width=32, depth=4, seed=9),
        500,
        False,
    ),
    "count-sketch": (
        lambda: CountSketch(400, width=16, depth=5, seed=11),
        400,
        False,
    ),
    "ams": (lambda: AMSSketch(128, rows=8, seed=13), 128, False),
    "exact-fp": (lambda: ExactFpMoment(300, p=2), 300, False),
    "exact-l0": (lambda: ExactL0(300), 300, False),
    "kmv": (lambda: KMVEstimator(5000, k=32, seed=29), 5000, True),
    "sis-l0": (
        lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37),
        512,
        False,
    ),
}


def turnstile_updates(universe, length, seed, insertions_only=False):
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        delta = rng.randint(1, 9)
        if not insertions_only and rng.random() < 0.4:
            delta = -delta
        updates.append(Update(rng.randrange(universe), delta))
    return updates


class TestProcessBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_merged_state_bit_identical_to_single_engine(self, name):
        make, universe, insertions_only = FAMILIES[name]
        updates = turnstile_updates(universe, 1500, 17, insertions_only)
        single = make()
        StreamEngine(chunk_size=64).drive(single, updates)
        with ShardedAlgorithm(make, num_shards=2, backend="process") as fleet:
            StreamEngine(chunk_size=64).drive(fleet, updates)
            merged = fleet.merged()
            single_view = single.state_view()
            merged_view = merged.state_view()
            assert dict(single_view.fields) == dict(merged_view.fields)
            assert single_view.randomness == merged_view.randomness
            assert single.updates_processed == merged.updates_processed
            assert single.space_bits() == merged.space_bits()
            assert single.query() == fleet.query()

    def test_process_matches_serial_and_thread_backends(self):
        make, universe, _ = FAMILIES["count-min"]
        updates = turnstile_updates(universe, 1200, 29)
        states = {}
        for backend in ("serial", "thread", "process"):
            with ShardedAlgorithm(make, num_shards=2, backend=backend) as fleet:
                StreamEngine(chunk_size=128).drive(fleet, updates)
                states[backend] = dict(fleet.state_view().fields)
        assert states["serial"] == states["thread"] == states["process"]

    def test_per_update_routing_through_workers(self):
        """The scalar process() path crosses the pipe, not shared memory."""
        make, universe, _ = FAMILIES["exact-l0"]
        updates = turnstile_updates(universe, 200, 31)
        single = make()
        for update in updates:
            single.feed(update)
        with ShardedAlgorithm(make, num_shards=2, backend="process") as fleet:
            for update in updates:
                fleet.feed(update)
            assert dict(fleet.state_view().fields) == dict(
                single.state_view().fields
            )

    def test_shard_loads_cover_stream(self):
        make, universe, _ = FAMILIES["exact-l0"]
        updates = turnstile_updates(universe, 900, 37)
        with ShardedAlgorithm(make, num_shards=2, backend="process") as fleet:
            StreamEngine(chunk_size=64).drive(fleet, updates)
            loads = fleet.shard_loads()
            assert sum(loads) == len(updates)
            assert all(load > 0 for load in loads)

    def test_buffer_growth_beyond_initial_capacity(self):
        """A scatter part larger than the shared block forces a remap."""
        universe = 1000
        items = np.arange(universe, dtype=np.int64).repeat(40)
        deltas = np.ones(len(items), dtype=np.int64)
        single = CountMinSketch(universe, width=16, depth=3, seed=7)
        single.feed_batch(items, deltas)
        make = lambda: CountMinSketch(universe, width=16, depth=3, seed=7)  # noqa: E731
        shards = [make(), make()]
        with ProcessShardPool(shards, buffer_capacity=256) as pool:
            from repro.parallel.partition import UniversePartitioner

            parts = UniversePartitioner(2).split(items, deltas)
            pool.scatter(parts)  # each part >> 256 updates
            merged = make()
            snapshots = pool.snapshots()
            merged.restore(snapshots[0])
            merged.merge_snapshot(snapshots[1])
        assert np.array_equal(merged.table, single.table)

    def test_white_box_game_against_process_fleet(self):
        """The batched oblivious game answers from the merged worker state
        exactly as the single engine does."""
        universe = 64
        rng = random.Random(3)
        updates = [Update(rng.randrange(universe), 1) for _ in range(300)]
        make = lambda: ExactL0(universe)  # noqa: E731
        single_result = StreamEngine(chunk_size=32).play(
            make(),
            ObliviousAdversary(updates),
            frequency_truth(universe, lambda v: v.l0()),
            validator=lambda answer, exact: answer == exact,
            max_rounds=len(updates),
            query_every=64,
        )
        with ShardedAlgorithm(make, num_shards=2, backend="process") as fleet:
            sharded_result = StreamEngine(chunk_size=32).play(
                fleet,
                ObliviousAdversary(updates),
                frequency_truth(universe, lambda v: v.l0()),
                validator=lambda answer, exact: answer == exact,
                max_rounds=len(updates),
                query_every=64,
            )
        assert sharded_result.algorithm_won and single_result.algorithm_won
        assert sharded_result.final_answer == single_result.final_answer
        assert sharded_result.rounds_played == single_result.rounds_played
        assert sharded_result.final_space_bits == single_result.final_space_bits

    def test_restore_into_worker(self):
        """Checkpoint recovery path: snapshot state lands inside a worker."""
        make, universe, _ = FAMILIES["count-min"]
        updates = turnstile_updates(universe, 600, 41)
        source = make()
        for update in updates:
            source.feed(update)
        with ShardedAlgorithm(make, num_shards=2, backend="process") as fleet:
            fleet.load_snapshot(source.snapshot())
            assert fleet.updates_processed == len(updates)
            assert dict(fleet.state_view().fields) == dict(
                source.state_view().fields
            )

    def test_merge_snapshot_takes_one_worker_snapshot(self):
        """The migration hand-off folds a snapshot into shard 0, so only
        shard 0's worker is asked for its state."""
        rng = np.random.default_rng(11)
        own = (rng.integers(0, 500, 300, dtype=np.int64), rng.integers(-3, 9, 300, dtype=np.int64))
        donor = count_min_500()
        donor.feed_batch(rng.integers(0, 500, 200, dtype=np.int64), np.ones(200, dtype=np.int64))
        reference = count_min_500()
        reference.feed_batch(*own)
        reference.merge_snapshot(donor.snapshot())
        algorithm = ShardedAlgorithm(count_min_500, 2, backend="process", supervise=True)
        asked = []
        try:
            algorithm.process_batch(*own)
            for shard, connection in enumerate(algorithm._pool._connections):

                def send(message, _send=connection.send, _shard=shard):
                    if message[0] == "snapshot":
                        asked.append(_shard)
                    _send(message)

                connection.send = send
            algorithm.merge_snapshot(donor.snapshot())
            assert asked == [0]
            assert algorithm.merged().snapshot() == reference.snapshot()
        finally:
            algorithm.close()


class TestPoolMechanics:
    def test_non_serializable_sketch_rejected(self):
        with pytest.raises(TypeError):
            ProcessShardPool(
                [MisraGriesAlgorithm(universe_size=100, accuracy=0.1)]
            )

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            ProcessShardPool([])

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProcessShardPool(
                [CountMinSketch(100, width=8, depth=2, seed=1)],
                buffer_capacity=0,
            )

    def test_close_is_idempotent(self):
        pool = ProcessShardPool([CountMinSketch(100, width=8, depth=2, seed=1)])
        pool.close()
        pool.close()

    def test_closed_process_wrapper_refuses_further_use(self):
        """After close() the worker state is gone; routing/querying must
        raise instead of silently answering from empty parent replicas."""
        fleet = ShardedAlgorithm(lambda: ExactL0(100), num_shards=2, backend="process")
        engine = StreamEngine()
        engine.drive(fleet, [Update(1, 1), Update(2, 1)])
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.drive(fleet, [Update(3, 1)])
        with pytest.raises(RuntimeError, match="closed"):
            fleet.query()

    def test_non_page_aligned_buffer_capacity(self):
        """Odd capacities (not page multiples) must not skew the deltas
        row: the layout is carried explicitly, never derived from the
        possibly page-rounded shm size."""
        universe = 500
        updates = turnstile_updates(universe, 700, 43)
        single = CountMinSketch(universe, width=16, depth=3, seed=7)
        for update in updates:
            single.feed(update)
        make = lambda: CountMinSketch(universe, width=16, depth=3, seed=7)  # noqa: E731
        shards = [make(), make()]
        items = np.array([u.item for u in updates], dtype=np.int64)
        deltas = np.array([u.delta for u in updates], dtype=np.int64)
        with ProcessShardPool(shards, buffer_capacity=100) as pool:
            from repro.parallel.partition import UniversePartitioner

            pool.scatter(UniversePartitioner(2).split(items, deltas))
            merged = make()
            snapshots = pool.snapshots()
            merged.restore(snapshots[0])
            merged.merge_snapshot(snapshots[1])
        assert np.array_equal(merged.table, single.table)
        assert merged.total == single.total

    def test_engine_close_shuts_pool_down(self):
        fleet = ShardedAlgorithm(lambda: ExactL0(100), num_shards=2, backend="process")
        StreamEngine().drive(fleet, [Update(1, 1), Update(2, 1)])
        fleet.close()
        fleet.close()
        # As a context manager, the end of the block closes the fleet.
        with ShardedAlgorithm(
            lambda: ExactL0(100), num_shards=2, backend="process"
        ) as fleet:
            StreamEngine().drive(fleet, [Update(1, 1), Update(2, 1)])
            workers = list(fleet._pool._processes)
            assert all(worker.is_alive() for worker in workers)
        assert not any(worker.is_alive() for worker in workers)
        assert fleet.health()["closed"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardedAlgorithm(lambda: ExactL0(100), num_shards=2, backend="gpu")

    def test_worker_failure_surfaces_original_error(self):
        """A sketch rejecting an update inside a worker reports the real
        error (and points at checkpoint recovery), not a dead pipe."""
        with ShardedAlgorithm(
            lambda: KMVEstimator(1000, k=8, seed=1),
            num_shards=2,
            backend="process",
        ) as fleet:
            with pytest.raises(RuntimeError, match="insertion-only"):
                # KMV rejects deletions; the worker dies informatively.
                # The double-buffered scatter is pipelined, so the error
                # surfaces at the next synchronization point -- here the
                # merge's flush -- rather than inside the dispatch itself.
                fleet.process_batch(
                    np.array([1, 2], dtype=np.int64),
                    np.array([-1, -1], dtype=np.int64),
                )
                fleet.merged()


def count_min_500():
    return CountMinSketch(500, width=32, depth=4, seed=9)


def on_shard(partitioner, shard, universe=500):
    """An item the partitioner routes to ``shard``."""
    return next(item for item in range(universe) if partitioner.assign(item) == shard)


class TestWorkerDeath:
    """Supervised pools rebuild a dead worker from its replay log;
    unsupervised ones raise :class:`WorkerDied`, which names the remedy."""

    def test_supervised_recovery_replays_both_kinds_of_entry(self):
        # snapshot_every=3: shard 0's fourth journaled feed refreshes its
        # baseline first.  The 2**70 delta takes the per-update path.
        rng = np.random.default_rng(3)
        batches = [
            (rng.integers(0, 500, 64, dtype=np.int64), rng.integers(-3, 9, 64, dtype=np.int64))
            for _ in range(4)
        ]
        algorithm = ShardedAlgorithm(
            count_min_500, 2, backend="process", supervise=True, snapshot_every=3
        )
        reference = count_min_500()
        zero = on_shard(algorithm.partitioner, 0)

        def batch(index):
            algorithm.process_batch(*batches[index])
            reference.feed_batch(*batches[index])

        def single(delta):
            algorithm.process(Update(zero, delta))
            reference.feed(Update(zero, delta))

        try:
            batch(0)
            single(2**70)
            batch(1)
            batch(2)  # shard 0: refresh, then this batch's part is journaled
            kill_worker(algorithm, 0)
            single(-3)
            batch(3)  # shard 0's journal: arrays, pairs, arrays
            kill_worker(algorithm, 0)
            assert algorithm.merged().snapshot() == reference.snapshot()
            assert algorithm.health()["restarts"] == 2
        finally:
            algorithm.close()

    def test_a_one_shard_journal_owns_its_entries(self):
        # A one-shard split hands the pool the caller's arrays, and the
        # caller refills them before the worker dies.
        items = np.arange(40, dtype=np.int64)
        deltas = np.ones(40, dtype=np.int64)
        algorithm = ShardedAlgorithm(count_min_500, 1, backend="process", supervise=True)
        reference = count_min_500()
        try:
            for _ in range(2):
                algorithm.process_batch(items, deltas)
                reference.feed_batch(items.copy(), deltas.copy())
                items += 40
                deltas += 1
            kill_worker(algorithm, 0)
            assert algorithm.merged().snapshot() == reference.snapshot()
            assert algorithm.health()["restarts"] == 1
        finally:
            algorithm.close()

    def test_a_multi_shard_pool_owns_the_parts_it_is_given(self):
        # A direct caller of a two-shard pool that reuses its part
        # buffers hands over a copy of each part: the pool journals the
        # very arrays it is given, and replays them after a death.
        rng = np.random.default_rng(5)
        buffers = [
            (rng.integers(0, 500, 48, dtype=np.int64), np.ones(48, dtype=np.int64))
            for _ in range(2)
        ]
        reference = count_min_500()
        with ProcessShardPool(
            [count_min_500(), count_min_500()], supervise=True
        ) as pool:
            for _ in range(2):
                parts = [(items.copy(), deltas.copy()) for items, deltas in buffers]
                pool.scatter(parts)
                for shard, (items, deltas) in enumerate(parts):
                    assert pool._logs[shard].entries[-1][1] is items
                    reference.feed_batch(items, deltas)
                for _, deltas in buffers:
                    deltas += 1
            kill_worker(pool, 0)
            merged = merge_states(count_min_500(), pool.snapshots())
            assert pool.restarts == [1, 0]
        assert merged.snapshot() == reference.snapshot()

    def test_unsupervised_death_raises_worker_died(self):
        algorithm = ShardedAlgorithm(count_min_500, 2, backend="process")
        try:
            data = algorithm.merged().snapshot()
            kill_worker(algorithm, 0)
            with pytest.raises(WorkerDied):
                algorithm.load_snapshot(data)
            with pytest.raises(WorkerDied):
                algorithm.process(Update(on_shard(algorithm.partitioner, 0), 1))
        finally:
            algorithm.close()
