"""The asyncio ingestion front-end: order, equivalence, backpressure."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.engine import StreamEngine
from repro.core.stream import Update
from repro.distinct.exact_l0 import ExactL0
from repro.heavyhitters.count_min import CountMinSketch
from repro.parallel import (
    ShardedAlgorithm,
    chunk_arrays,
    chunk_updates,
    ingest,
    ingest_async,
)


def stream_arrays(universe=500, length=5000, seed=3):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, universe, length, dtype=np.int64)
    deltas = rng.integers(1, 5, length, dtype=np.int64)
    return items, deltas


class TestChunkSources:
    def test_chunk_arrays_slices_everything(self):
        items, deltas = stream_arrays(length=1000)
        chunks = list(chunk_arrays(items, deltas, chunk_size=256))
        assert [len(c[0]) for c in chunks] == [256, 256, 256, 232]
        assert np.array_equal(np.concatenate([c[0] for c in chunks]), items)

    def test_chunk_updates_batches_iterables(self):
        updates = [Update(i % 7, 1) for i in range(100)]
        chunks = list(chunk_updates(iter(updates), chunk_size=30))
        assert [len(c[0]) for c in chunks] == [30, 30, 30, 10]
        assert int(sum(c[1].sum() for c in chunks)) == 100

    def test_chunk_arrays_validates(self):
        with pytest.raises(ValueError):
            list(chunk_arrays([1, 2], [1], chunk_size=8))
        with pytest.raises(ValueError):
            list(chunk_arrays([1], [1], chunk_size=0))


class TestIngestEquivalence:
    def test_matches_synchronous_drive(self):
        items, deltas = stream_arrays()
        reference = CountMinSketch(500, width=32, depth=4, seed=1)
        StreamEngine().drive_arrays(reference, items, deltas)
        target = CountMinSketch(500, width=32, depth=4, seed=1)
        stats = ingest(target, chunk_arrays(items, deltas, chunk_size=512))
        assert np.array_equal(reference.table, target.table)
        assert stats.updates == len(items)
        assert stats.chunks == 10
        assert stats.updates_per_second > 0

    def test_lockstep_targets_all_see_every_chunk(self):
        items, deltas = stream_arrays(length=2000)
        sketch = CountMinSketch(500, width=16, depth=3, seed=2)
        exact = ExactL0(500)
        stats = ingest([sketch, exact], chunk_arrays(items, deltas, 256))
        assert stats.targets == 2
        reference = ExactL0(500)
        reference.feed_batch(items, deltas)
        assert exact.counts == reference.counts
        assert sketch.total == int(deltas.sum())

    def test_feeds_sharded_engines(self):
        items, deltas = stream_arrays()
        fleet = ShardedAlgorithm(
            lambda: CountMinSketch(500, width=32, depth=4, seed=5), num_shards=4
        )
        ingest(fleet, chunk_arrays(items, deltas, 1024))
        reference = CountMinSketch(500, width=32, depth=4, seed=5)
        reference.feed_batch(items, deltas)
        assert np.array_equal(fleet.merged().table, reference.table)

    def test_async_source_supported(self):
        items, deltas = stream_arrays(length=1500)

        async def produce():
            for chunk in chunk_arrays(items, deltas, 300):
                await asyncio.sleep(0)
                yield chunk

        async def run():
            target = ExactL0(500)
            stats = await ingest_async(target, produce(), queue_depth=2)
            return target, stats

        target, stats = asyncio.run(run())
        reference = ExactL0(500)
        reference.feed_batch(items, deltas)
        assert target.counts == reference.counts
        assert stats.chunks == 5

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError):
            ingest(ExactL0(10), [], queue_depth=0)

    def test_empty_source(self):
        stats = ingest(ExactL0(10), [])
        assert stats.chunks == 0 and stats.updates == 0

    def test_producer_errors_propagate(self):
        def bad_source():
            yield np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
            raise RuntimeError("packet ring died")

        with pytest.raises(RuntimeError, match="packet ring died"):
            ingest(ExactL0(10), bad_source())

    def test_stats_count_with_telemetry_off(self, tmp_path):
        """IngestStats is the loop's own result, not a telemetry read."""
        items, deltas = stream_arrays(length=5000)
        registry = obs.get_registry()
        previous, registry.enabled = registry.enabled, False
        try:
            stats = ingest(
                CountMinSketch(500, width=32, depth=4, seed=1),
                chunk_arrays(items, deltas, 1000),
                checkpoint_path=tmp_path / "run.ckpt",
                checkpoint_every=2000,
                start_position=7,
            )
        finally:
            registry.enabled = previous
        # Saves at 2007 and 4007, plus the final one at 5007.
        assert (stats.chunks, stats.updates, stats.checkpoints, stats.position) == (
            5, 5000, 3, 5007,
        )


class _FailingTarget(ExactL0):
    def process_batch(self, items, deltas):
        raise RuntimeError("scatter failed")


class _SlowTarget(ExactL0):
    def process_batch(self, items, deltas):
        time.sleep(0.01)
        super().process_batch(items, deltas)


def _leftovers():
    """Tasks other than the current one, and live ``ingest-*`` threads."""
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    threads = [t.name for t in threading.enumerate() if t.name.startswith("ingest-")]
    return tasks, threads


class TestProducerShutdown:
    """A run that stops early must not leave its producer behind, blocked
    on a full queue nobody reads any more."""

    def test_failed_scatter_leaves_no_producer(self):
        items, deltas = stream_arrays(length=400_000)

        async def run():
            with pytest.raises(RuntimeError, match="scatter failed"):
                await ingest_async(
                    _FailingTarget(500),
                    chunk_arrays(items, deltas, 1000),
                    queue_depth=2,
                )
            return _leftovers()

        assert asyncio.run(run()) == (set(), [])

    def test_cancelled_run_leaves_no_producer(self):
        items, deltas = stream_arrays(length=400_000)

        async def run():
            task = asyncio.ensure_future(
                ingest_async(
                    _SlowTarget(500),
                    chunk_arrays(items, deltas, 1000),
                    queue_depth=2,
                )
            )
            await asyncio.sleep(0.1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return _leftovers()

        assert asyncio.run(run()) == (set(), [])

    def test_cancelled_run_waits_for_its_source_without_blocking_the_loop(self):
        """A sync source's in-flight ``next()`` (here a quiet socket's
        1.5 s read) ends on its own thread, while the loop keeps running:
        a 10 ms watchdog never sees a long gap."""
        items, deltas = stream_arrays(length=2_000)

        def quiet_source():
            yield items[:1_000], deltas[:1_000]
            time.sleep(1.5)
            yield items[1_000:], deltas[1_000:]

        async def run():
            gaps = []

            async def watchdog():
                last = time.perf_counter()
                while True:
                    await asyncio.sleep(0.01)
                    now = time.perf_counter()
                    gaps.append(now - last)
                    last = now

            dog = asyncio.ensure_future(watchdog())
            task = asyncio.ensure_future(
                ingest_async(ExactL0(500), quiet_source(), queue_depth=2)
            )
            await asyncio.sleep(0.2)  # the second next() is asleep by now
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            dog.cancel()
            await asyncio.wait((dog,))
            return max(gaps), _leftovers()

        gap, leftovers = asyncio.run(run())
        assert gap < 0.2
        assert leftovers == (set(), [])
