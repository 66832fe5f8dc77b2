"""Sharded vs single-engine equivalence: the merge contract, enforced.

A k-shard :class:`ShardedAlgorithm` driven by a :class:`StreamEngine`
must be observationally identical to one sketch driven by the same
engine over the same stream: identical
merged tables/registers, identical estimates, identical randomness
transcripts, identical ``space_bits()``.  These tests enforce that
bit-for-bit on random turnstile (or insertion) streams for every
mergeable sketch, mirroring ``tests/test_batch_equivalence.py``'s role
for the batching contract, plus the partitioner's scalar/vector
agreement, merge error handling, the sharded white-box game, and the
batched game's array-native traces.
"""

import random

import numpy as np
import pytest

from repro.core.adversary import ObliviousAdversary
from repro.core.engine import StreamEngine
from repro.core.game import frequency_truth, run_game
from repro.core.stream import Update
from repro.distinct.exact_l0 import ExactL0
from repro.distinct.kmv import KMVEstimator
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.heavyhitters.misra_gries import MisraGriesAlgorithm
from repro.moments.ams import AMSSketch
from repro.moments.frequency import ExactFpMoment
from repro.parallel import ShardedAlgorithm, UniversePartitioner


def turnstile_updates(universe, length, seed, insertions_only=False):
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        delta = rng.randint(1, 9)
        if not insertions_only and rng.random() < 0.4:
            delta = -delta
        updates.append(Update(rng.randrange(universe), delta))
    return updates


def skewed_updates(universe, length, seed, insertions_only=False):
    """Mostly unit deltas with a large one every few hundred updates: a
    stream whose per-batch ``max|delta| * n`` differs from its exact
    ``sum(|delta|)`` in almost every batch."""
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        delta = 50 if rng.random() < 0.005 else 1
        if not insertions_only and rng.random() < 0.4:
            delta = -delta
        updates.append(Update(rng.randrange(universe), delta))
    return updates


def drive_pair(make, updates, num_shards, chunk_size=64):
    """A single-engine instance and a k-shard twin fed the same stream."""
    single = make()
    StreamEngine(chunk_size=chunk_size).drive(single, updates)
    fleet = ShardedAlgorithm(make, num_shards=num_shards)
    StreamEngine(chunk_size=chunk_size).drive(fleet, updates)
    return single, fleet


def assert_merged_identical(single, fleet):
    merged = fleet.merged()
    single_view = single.state_view()
    merged_view = merged.state_view()
    assert dict(single_view.fields) == dict(merged_view.fields)
    assert single_view.randomness == merged_view.randomness
    assert single.updates_processed == merged.updates_processed
    assert single.updates_processed == fleet.updates_processed
    assert single.space_bits() == merged.space_bits()
    assert single.space_bits() == fleet.space_bits()
    assert single.query() == fleet.query()


SKETCHES = {
    "count-min": (
        lambda: CountMinSketch(500, width=32, depth=4, seed=9),
        dict(universe=500, insertions_only=False),
    ),
    "count-sketch": (
        lambda: CountSketch(400, width=16, depth=5, seed=11),
        dict(universe=400, insertions_only=False),
    ),
    "ams": (
        lambda: AMSSketch(128, rows=8, seed=13),
        dict(universe=128, insertions_only=False),
    ),
    "exact-fp": (
        lambda: ExactFpMoment(300, p=2),
        dict(universe=300, insertions_only=False),
    ),
    "exact-l0": (
        lambda: ExactL0(300),
        dict(universe=300, insertions_only=False),
    ),
    "kmv": (
        lambda: KMVEstimator(5000, k=32, seed=29),
        dict(universe=5000, insertions_only=True),
    ),
    "sis-l0": (
        lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37),
        dict(universe=512, insertions_only=False),
    ),
    "sis-l0-exact": (
        lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37, force_exact=True),
        dict(universe=512, insertions_only=False),
    ),
}


class TestShardedEquivalence:
    @pytest.mark.parametrize("name", sorted(SKETCHES))
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_merged_state_bit_identical(self, name, num_shards):
        make, config = SKETCHES[name]
        updates = turnstile_updates(
            config["universe"], 2000, seed=17, insertions_only=config["insertions_only"]
        )
        single, fleet = drive_pair(make, updates, num_shards)
        assert_merged_identical(single, fleet)

    @pytest.mark.parametrize("name", sorted(SKETCHES))
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_merged_snapshot_bytes_identical(self, name, num_shards):
        """Snapshot bytes too, on a skewed stream."""
        make, config = SKETCHES[name]
        updates = skewed_updates(
            config["universe"], 4000, seed=19, insertions_only=config["insertions_only"]
        )
        single, fleet = drive_pair(make, updates, num_shards)
        assert fleet.merged().snapshot() == single.snapshot()

    def test_estimates_route_through_merged_view(self):
        make, _ = SKETCHES["count-min"]
        updates = turnstile_updates(500, 1500, seed=23)
        single, fleet = drive_pair(make, updates, 4)
        for item in range(0, 500, 11):
            assert fleet.estimate(item) == single.estimate(item)

    def test_per_update_and_batched_sharded_paths_agree(self):
        """Routing one update at a time equals routing vectorized chunks."""
        updates = turnstile_updates(300, 800, seed=29)
        make = lambda: CountMinSketch(300, width=16, depth=3, seed=5)  # noqa: E731
        looped = ShardedAlgorithm(make, num_shards=3)
        for update in updates:
            looped.feed(update)
        batched = ShardedAlgorithm(make, num_shards=3)
        StreamEngine(chunk_size=128).drive(batched, updates)
        assert dict(looped.state_view().fields) == dict(
            batched.state_view().fields
        )

    def test_shard_loads_cover_stream(self):
        updates = turnstile_updates(1000, 1200, seed=31)
        _, fleet = drive_pair(
            lambda: ExactL0(1000), updates, num_shards=4
        )
        loads = fleet.shard_loads()
        assert sum(loads) == len(updates)
        assert all(load > 0 for load in loads)  # the hash spreads the universe

    def test_parallel_scatter_matches_serial(self):
        updates = turnstile_updates(400, 1500, seed=41)
        make = lambda: CountMinSketch(400, width=16, depth=3, seed=7)  # noqa: E731
        serial = ShardedAlgorithm(make, num_shards=4)
        StreamEngine(chunk_size=64).drive(serial, updates)
        with ShardedAlgorithm(make, num_shards=4, backend="thread") as threaded:
            StreamEngine(chunk_size=64).drive(threaded, updates)
            assert dict(serial.state_view().fields) == dict(
                threaded.state_view().fields
            )


class TestMergeProtocol:
    def test_merge_requires_same_type(self):
        with pytest.raises(TypeError):
            CountMinSketch(100, width=8, depth=2, seed=1).merge(
                CountSketch(100, width=8, depth=2, seed=1)
            )

    def test_merge_requires_shared_construction_randomness(self):
        with pytest.raises(ValueError):
            CountMinSketch(100, width=8, depth=2, seed=1).merge(
                CountMinSketch(100, width=8, depth=2, seed=2)
            )

    def test_sharding_rejects_non_mergeable_algorithms(self):
        with pytest.raises(TypeError):
            ShardedAlgorithm(
                lambda: MisraGriesAlgorithm(universe_size=100, accuracy=0.1),
                num_shards=2,
            )

    def test_sharding_rejects_nondeterministic_factories(self):
        seeds = iter([1, 2])

        def sloppy_factory():
            return CountMinSketch(100, width=8, depth=2, seed=next(seeds))

        with pytest.raises(ValueError):
            ShardedAlgorithm(sloppy_factory, num_shards=2)

    def test_merge_batch_equals_sequential_merges(self):
        updates = turnstile_updates(200, 900, seed=43)
        thirds = [updates[0:300], updates[300:600], updates[600:900]]
        make = lambda: AMSSketch(200, rows=6, seed=3)  # noqa: E731
        replicas = []
        for part in thirds:
            replica = make()
            for update in part:
                replica.feed(update)
            replicas.append(replica)
        merged = make()
        merged.merge_batch(replicas)
        single = make()
        for update in updates:
            single.feed(update)
        assert merged.accumulators == single.accumulators
        assert merged.updates_processed == single.updates_processed

    def test_strict_frequency_vector_merge_rejects_negatives(self):
        from repro.core.stream import FrequencyVector

        strict = FrequencyVector(10, allow_negative=False)
        strict.apply(Update(1, 1))
        loose = FrequencyVector(10, allow_negative=True)
        loose.apply(Update(1, -2))
        with pytest.raises(ValueError):
            strict.merge_from(loose)

    def test_bern_mg_batch_rejects_negative_deltas_like_loop(self):
        """The batch path must reject exactly what the per-update path
        rejects -- even a negative delta that a later update cancels."""
        from repro.heavyhitters.bern_mg import BernMG

        instance = BernMG(
            universe_size=100, length_guess=1000, accuracy=0.2,
            failure_probability=0.05, seed=1,
        )
        with pytest.raises(ValueError):
            instance.process_batch([3, 3], [2, -1])

    def test_count_min_merge_promotes_before_overflow(self):
        """Two int64 tables whose sum would wrap merge into exact cells."""
        big = 2**62 - 1
        left = CountMinSketch(100, width=8, depth=2, seed=1)
        right = CountMinSketch(100, width=8, depth=2, seed=1)
        left.feed_batch([5], [big])
        right.feed_batch([5], [big])
        left.merge(right)
        assert left.estimate(5) == 2 * big
        assert left.total == 2 * big


class TestPartitioner:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 8, 16])
    def test_scalar_and_vector_paths_agree(self, num_shards):
        partitioner = UniversePartitioner(num_shards, seed=5)
        items = np.array(
            [0, 1, 2, 17, 999, 2**31, 2**62, 2**63 - 1], dtype=np.int64
        )
        vector = partitioner.assign_array(items)
        for item, shard in zip(items.tolist(), vector.tolist()):
            assert partitioner.assign(item) == shard

    def test_beyond_int64_items_assignable(self):
        partitioner = UniversePartitioner(4, seed=1)
        assert 0 <= partitioner.assign(2**80 + 3) < 4

    def test_split_preserves_order_and_content(self):
        partitioner = UniversePartitioner(3, seed=2)
        rng = np.random.default_rng(9)
        items = rng.integers(0, 1000, 500, dtype=np.int64)
        deltas = rng.integers(-5, 6, 500, dtype=np.int64)
        parts = partitioner.split(items, deltas)
        ids = partitioner.assign_array(items)
        for shard, part in enumerate(parts):
            mask = ids == shard
            if part is None:
                assert not mask.any()
                continue
            assert np.array_equal(part[0], items[mask])
            assert np.array_equal(part[1], deltas[mask])

    def test_seeds_cut_differently(self):
        items = np.arange(1000, dtype=np.int64)
        a = UniversePartitioner(4, seed=0).assign_array(items)
        b = UniversePartitioner(4, seed=1).assign_array(items)
        assert not np.array_equal(a, b)


class TestShardedGames:
    def _setup(self, universe=64, rounds=300, seed=3):
        rng = random.Random(seed)
        updates = [Update(rng.randrange(universe), 1) for _ in range(rounds)]
        truth = frequency_truth(universe, lambda v: v.l0())
        return updates, truth

    def test_sharded_play_matches_single_engine_game(self):
        universe = 64
        updates, _ = self._setup(universe)
        make = lambda: ExactL0(universe)  # noqa: E731
        single_result = StreamEngine(chunk_size=32).play(
            make(),
            ObliviousAdversary(updates),
            frequency_truth(universe, lambda v: v.l0()),
            validator=lambda answer, exact: answer == exact,
            max_rounds=len(updates),
            query_every=64,
        )
        sharded_result = StreamEngine(chunk_size=32).play(
            ShardedAlgorithm(make, num_shards=4),
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

    def test_adaptive_game_sees_merged_views_every_round(self):
        """Adaptive adversaries degrade to per-round play against the
        merged state -- the exact view a single engine would expose."""
        universe = 64
        observed_tables = []

        class Peeker(ObliviousAdversary):
            adaptive = True  # force the per-round loop

            def next_update(self, view):
                if view.latest_state is not None:
                    observed_tables.append(view.latest_state["counts"])
                return super().next_update(view)

        updates, truth = self._setup(universe, rounds=40)
        result = run_game(
            ShardedAlgorithm(lambda: ExactL0(universe), num_shards=3),
            Peeker(updates),
            truth,
            validator=lambda answer, exact: answer == exact,
            max_rounds=len(updates),
        )
        assert result.algorithm_won
        assert len(observed_tables) == len(updates) - 1
        # The final observed view reflects all but the last update.
        reference = ExactL0(universe)
        for update in updates[:-1]:
            reference.feed(update)
        assert observed_tables[-1] == reference.counts


class TestBatchedGameTraces:
    def test_chunk_traces_recorded(self):
        universe = 64
        rng = random.Random(7)
        updates = [Update(rng.randrange(universe), 1) for _ in range(200)]
        result = StreamEngine(chunk_size=32).play(
            ExactL0(universe),
            ObliviousAdversary(updates),
            frequency_truth(universe, lambda v: v.l0()),
            validator=lambda answer, exact: answer == exact,
            max_rounds=len(updates),
            query_every=64,
        )
        assert result.chunk_rounds == [32, 64, 96, 128, 160, 192, 200]
        assert len(result.chunk_space_bits) == len(result.chunk_rounds)
        assert all(bits > 0 for bits in result.chunk_space_bits)
        # Checkpoints: every >=64-round boundary plus stream end.
        assert result.checkpoint_rounds == [64, 128, 192, 200]
        assert result.checkpoint_answers[-1] == result.final_answer
        arrays = result.trace_arrays()
        assert arrays["rounds"].dtype == np.int64
        assert arrays["space_bits"].shape == arrays["rounds"].shape
        assert arrays["checkpoint_rounds"].tolist() == result.checkpoint_rounds

    def test_per_round_game_leaves_traces_empty(self):
        universe = 16
        updates = [Update(i % universe, 1) for i in range(50)]
        result = run_game(
            ExactL0(universe),
            ObliviousAdversary(updates),
            frequency_truth(universe, lambda v: v.l0()),
            validator=lambda answer, exact: answer == exact,
            max_rounds=len(updates),
        )
        assert result.chunk_rounds == []
        assert result.checkpoint_rounds == []
