"""Batched vs per-update equivalence: the StreamEngine batching contract.

``process_batch`` must leave every algorithm in *exactly* the state the
per-update path produces: identical tables, identical estimates, identical
randomness transcripts, identical space accounting.  These tests enforce
that bit-for-bit on random turnstile (or insertion) streams for every
vectorized override, plus the default-loop fallback.
"""

import random

import numpy as np
import pytest
from test_shard_equivalence import SKETCHES, skewed_updates

from repro.core.engine import StreamEngine
from repro.core.stream import Update, updates_from_arrays, updates_to_arrays
from repro.distinct.exact_l0 import ExactL0
from repro.distinct.kmv import KMVEstimator
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
from repro.moments.frequency import ExactFpMoment
from repro.parallel import chunk_updates, ingest
from repro.workloads.frequency import turnstile_arrays


def turnstile_updates(universe, length, seed, insertions_only=False):
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        delta = rng.randint(1, 9)
        if not insertions_only and rng.random() < 0.4:
            delta = -delta
        updates.append(Update(rng.randrange(universe), delta))
    return updates


def drive_pair(make, updates, chunk_size=64):
    """One instance fed per-update, a twin fed through the engine."""
    loop_alg, batch_alg = make(), make()
    for update in updates:
        loop_alg.feed(update)
    StreamEngine(chunk_size=chunk_size).drive(batch_alg, updates)
    return loop_alg, batch_alg


def assert_same_view(loop_alg, batch_alg):
    loop_view = loop_alg.state_view()
    batch_view = batch_alg.state_view()
    assert dict(loop_view.fields) == dict(batch_view.fields)
    assert loop_view.randomness == batch_view.randomness
    assert loop_alg.updates_processed == batch_alg.updates_processed
    assert loop_alg.space_bits() == batch_alg.space_bits()


class TestCountMinEquivalence:
    def test_tables_estimates_transcripts_identical(self):
        updates = turnstile_updates(500, 3000, seed=1)
        loop_alg, batch_alg = drive_pair(
            lambda: CountMinSketch(500, width=32, depth=4, seed=9), updates
        )
        assert np.array_equal(loop_alg.table, batch_alg.table)
        assert_same_view(loop_alg, batch_alg)
        assert loop_alg.total == batch_alg.total
        for item in range(0, 500, 7):
            assert loop_alg.estimate(item) == batch_alg.estimate(item)

    def test_direct_batch_call_matches(self):
        items, deltas = turnstile_arrays(200, 1000, seed=3)
        loop_alg = CountMinSketch(200, width=16, depth=3, seed=2)
        batch_alg = CountMinSketch(200, width=16, depth=3, seed=2)
        for update in updates_from_arrays(items, deltas):
            loop_alg.feed(update)
        batch_alg.feed_batch(items, deltas)
        assert np.array_equal(loop_alg.table, batch_alg.table)
        assert loop_alg.total == batch_alg.total


class TestCountSketchEquivalence:
    def test_tables_estimates_transcripts_identical(self):
        updates = turnstile_updates(400, 3000, seed=5)
        loop_alg, batch_alg = drive_pair(
            lambda: CountSketch(400, width=16, depth=5, seed=11), updates
        )
        assert np.array_equal(loop_alg.table, batch_alg.table)
        assert_same_view(loop_alg, batch_alg)
        assert loop_alg.f2_estimate() == batch_alg.f2_estimate()
        for item in range(0, 400, 13):
            assert loop_alg.estimate(item) == batch_alg.estimate(item)


class TestAMSEquivalence:
    def test_accumulators_and_query_identical(self):
        updates = turnstile_updates(128, 2000, seed=7)
        loop_alg, batch_alg = drive_pair(
            lambda: AMSSketch(128, rows=8, seed=13), updates
        )
        assert loop_alg.accumulators == batch_alg.accumulators
        assert loop_alg.query() == batch_alg.query()
        assert_same_view(loop_alg, batch_alg)


class TestMomentsDistinctEquivalence:
    def test_exact_fp_moment(self):
        updates = turnstile_updates(300, 2500, seed=17)
        loop_alg, batch_alg = drive_pair(
            lambda: ExactFpMoment(300, p=2), updates
        )
        assert loop_alg.query() == batch_alg.query()
        assert_same_view(loop_alg, batch_alg)

    def test_exact_l0(self):
        updates = turnstile_updates(300, 2500, seed=19)
        loop_alg, batch_alg = drive_pair(lambda: ExactL0(300), updates)
        assert loop_alg.counts == batch_alg.counts
        assert loop_alg.query() == batch_alg.query()
        assert_same_view(loop_alg, batch_alg)

    def test_kmv_insertions(self):
        updates = turnstile_updates(5000, 3000, seed=23, insertions_only=True)
        loop_alg, batch_alg = drive_pair(
            lambda: KMVEstimator(5000, k=32, seed=29), updates
        )
        assert loop_alg.query() == batch_alg.query()
        assert_same_view(loop_alg, batch_alg)

    def test_kmv_rejects_deletions_in_batch(self):
        kmv = KMVEstimator(100, k=4, seed=1)
        with pytest.raises(ValueError):
            kmv.feed_batch([1, 2], [1, -1])

    def test_sis_l0_turnstile(self):
        updates = turnstile_updates(512, 1500, seed=31)
        loop_alg, batch_alg = drive_pair(
            lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37), updates
        )
        assert loop_alg.sketches == batch_alg.sketches
        assert loop_alg.query() == batch_alg.query()
        assert_same_view(loop_alg, batch_alg)


class TestSnapshotBytesInvariance:
    """The snapshot, not only the state view, is independent of batching:
    a fleet's snapshot must equal a serial engine's byte for byte."""

    @pytest.mark.parametrize("chunk_size", [64, 1000, 4000])
    @pytest.mark.parametrize("name", sorted(SKETCHES))
    def test_snapshot_bytes_equal_the_loop(self, name, chunk_size):
        make, config = SKETCHES[name]
        updates = skewed_updates(
            config["universe"],
            4000,
            seed=53,
            insertions_only=config["insertions_only"],
        )
        loop_alg, batch_alg = drive_pair(make, updates, chunk_size=chunk_size)
        assert loop_alg.snapshot() == batch_alg.snapshot()


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("chunk_size", [1, 3, 257, 10_000])
    def test_count_min_any_chunking(self, chunk_size):
        updates = turnstile_updates(200, 1000, seed=41)
        loop_alg, batch_alg = drive_pair(
            lambda: CountMinSketch(200, width=16, depth=3, seed=43),
            updates,
            chunk_size=chunk_size,
        )
        assert np.array_equal(loop_alg.table, batch_alg.table)

    def test_huge_coefficients_fall_back_exactly(self):
        """Beyond-int64 deltas route through exact per-update arithmetic,
        on the engine and on the ingest pipeline alike."""
        huge = 2**80
        updates = [Update(3, huge), Update(5, -huge), Update(3, -huge + 1)]
        loop_alg = ExactFpMoment(10, p=2)
        for update in updates:
            loop_alg.feed(update)
        batch_alg = ExactFpMoment(10, p=2)
        StreamEngine(chunk_size=8).drive(batch_alg, updates)
        ingested = ExactFpMoment(10, p=2)
        ingest(ingested, chunk_updates(updates, 8))
        assert loop_alg.query() == batch_alg.query() == ingested.query()
        with pytest.raises(OverflowError):
            updates_to_arrays(updates)

    def test_sketch_tables_promote_past_int64(self):
        """CountMin/CountSketch keep exact arithmetic on huge deltas.

        Kernel-attack streams carry rational-elimination coefficients far
        beyond int64; both the per-update and the engine path must neither
        raise nor wrap.
        """
        huge = 2**80
        for factory in (
            lambda: CountMinSketch(100, width=8, depth=2, seed=1),
            lambda: CountSketch(100, width=8, depth=2, seed=1),
        ):
            updates = [Update(3, huge), Update(3, -huge), Update(7, huge)]
            loop_alg = factory()
            for update in updates:
                loop_alg.feed(update)
            batch_alg = factory()
            StreamEngine(chunk_size=8).drive(batch_alg, updates)
            assert np.array_equal(
                np.asarray(loop_alg.table, dtype=object),
                np.asarray(batch_alg.table, dtype=object),
            )
            assert loop_alg.estimate(7) == batch_alg.estimate(7) != 0

    def test_int64_accumulation_never_wraps_silently(self):
        """In-range deltas whose *sum* exceeds int64 promote, not wrap."""
        big = 2**62 - 1  # fits int64 individually
        sketch = CountMinSketch(100, width=8, depth=2, seed=1)
        sketch.feed_batch([5, 5, 5, 5], [big, big, big, big])
        assert sketch.estimate(5) == 4 * big
        assert sketch.total == 4 * big


class TestDefaultLoopFallback:
    def test_base_class_batch_equals_loop(self):
        """Algorithms without an override get the default loop -- equal too."""
        from repro.heavyhitters.misra_gries import MisraGriesAlgorithm

        updates = turnstile_updates(100, 500, seed=47, insertions_only=True)
        loop_alg = MisraGriesAlgorithm(universe_size=100, accuracy=0.1)
        batch_alg = MisraGriesAlgorithm(universe_size=100, accuracy=0.1)
        for update in updates:
            loop_alg.feed(update)
        StreamEngine(chunk_size=64).drive(batch_alg, updates)
        assert loop_alg.query() == batch_alg.query()
        assert loop_alg.space_bits() == batch_alg.space_bits()
