"""Asyncio ingestion front-end: overlap chunk production with scatter.

Network-style workloads (see ``examples/network_monitoring.py``) produce
update chunks from a live source -- a packet ring, a socket, a Python
generator -- while the engine scatters the previous chunk into the
sketches.  Serially those two phases alternate; this module pipelines them
with a bounded :class:`asyncio.Queue` between a producer (pulling chunks
from a sync or async source) and a consumer (calling ``feed_batch``), each
running on its own single-thread executor so generator-side Python work and
GIL-releasing numpy scatter genuinely overlap on multi-core hosts.

The pipeline preserves stream order end to end: one producer, one consumer,
a FIFO queue.  Targets therefore end in exactly the state the synchronous
``StreamEngine.drive_arrays`` path produces -- the ingest tests assert that
bit-for-bit -- and any :class:`~repro.core.algorithm.StreamAlgorithm`
works, including :class:`~repro.parallel.sharded.ShardedAlgorithm` (whose
scatter then fans out a second time, across shards).

Checkpointed ingestion (:mod:`repro.distributed.checkpoint`): pass
``checkpoint_path`` and the consumer snapshots the (first) target to disk
every ``checkpoint_every`` updates, at chunk boundaries, plus once at
stream end.  A killed run resumes with ``resume_from`` + ``tail_chunks``
and replays only the unabsorbed tail -- the kill-and-resume tests verify
the resumed state is bit-identical to an uninterrupted run.

Signatures follow the :class:`~repro.core.engine.StreamEngine` driving
conventions (the ``repro.api`` facade re-exports both): ``(targets,
source)`` positionally -- where ``source`` may also be one ``(items,
deltas)`` array pair, chunked by ``chunk_size`` exactly like
``drive_arrays`` -- then keyword-only tuning, an ``on_chunk(position)``
callback with ``drive``'s semantics, and the same checkpoint parameter
names (``checkpoint_path`` / ``checkpoint_every`` / ``start_position``)
``StreamEngine.drive`` accepts.  Both entry points always return
:class:`IngestStats`.

Usage::

    stats = ingest(sketch, (items, deltas), chunk_size=8192)
    # equivalently, with an explicit chunk source:
    stats = ingest(sketch, chunk_arrays(items, deltas, 8192))
    # or, inside an event loop:
    stats = await ingest_async(sketch, source)

    # crash-safe: checkpoint every 2^16 updates, resume after a kill
    stats = ingest(sketch, source, checkpoint_path="run.ckpt")
    position = resume_from("run.ckpt", fresh_sketch)
    ingest(fresh_sketch, tail_chunks(source_again, position),
           checkpoint_path="run.ckpt", start_position=position)
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterable, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.algorithm import StreamAlgorithm
from repro.core.engine import DEFAULT_CHUNK_SIZE
from repro.core.stream import Update, updates_to_arrays
from repro.obs import get_registry as _get_obs_registry

__all__ = [
    "IngestStats",
    "chunk_arrays",
    "chunk_updates",
    "ingest",
    "ingest_async",
]

_obs_registry = _get_obs_registry()
_obs_ingest_chunks = _obs_registry.counter(
    "repro_ingest_chunks_total", "Chunks scattered by ingestion pipelines"
)
_obs_ingest_updates = _obs_registry.counter(
    "repro_ingest_updates_total", "Updates scattered by ingestion pipelines"
)
_obs_ingest_checkpoints = _obs_registry.counter(
    "repro_ingest_checkpoints_total",
    "Checkpoints written by ingestion pipelines",
)

#: One (items, deltas) array pair.
Chunk = tuple[np.ndarray, np.ndarray]
ChunkSource = Union[Iterable[Chunk], AsyncIterable[Chunk]]

_SENTINEL = object()


@dataclass
class IngestStats:
    """What one ingestion run did (throughput bookkeeping for benchmarks).

    The fields remain the per-run view callers read; :meth:`bump` is the
    sanctioned mutation path and *mirrors* each increment into the
    process-wide obs registry (``repro_ingest_{chunks,updates,
    checkpoints}_total``), so concurrent runs keep exact per-run numbers
    while the merged exposition shows process totals.
    """

    chunks: int = 0
    updates: int = 0
    seconds: float = 0.0
    #: Time the consumer spent inside ``feed_batch`` (scatter-bound share).
    scatter_seconds: float = 0.0
    queue_depth: int = 0
    targets: int = field(default=1)
    #: Checkpoints written during this run (0 when checkpointing is off).
    checkpoints: int = 0
    #: Absolute stream position after the run (includes ``start_position``).
    position: int = 0

    @property
    def updates_per_second(self) -> float:
        return self.updates / self.seconds if self.seconds > 0 else 0.0

    def bump(
        self,
        *,
        chunks: int = 0,
        updates: int = 0,
        checkpoints: int = 0,
        scatter_seconds: float = 0.0,
        position: int = 0,
    ) -> None:
        """Advance the per-run counts and mirror them into the registry."""
        self.chunks += chunks
        self.updates += updates
        self.checkpoints += checkpoints
        self.scatter_seconds += scatter_seconds
        self.position += position
        if _obs_registry.enabled:
            if chunks:
                _obs_ingest_chunks.add(chunks)
            if updates:
                _obs_ingest_updates.add(updates)
            if checkpoints:
                _obs_ingest_checkpoints.add(checkpoints)


def chunk_arrays(items, deltas, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Chunk]:
    """Slice one big array pair into engine-sized chunks."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    items = np.asarray(items, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if len(items) != len(deltas):
        raise ValueError(
            f"items/deltas length mismatch: {len(items)} != {len(deltas)}"
        )
    for start in range(0, len(items), chunk_size):
        yield items[start : start + chunk_size], deltas[start : start + chunk_size]


def chunk_updates(
    updates: Iterable[Update], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[Chunk]:
    """Batch an :class:`Update` iterable into array chunks."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    pending: list[Update] = []
    for update in updates:
        pending.append(update)
        if len(pending) >= chunk_size:
            yield updates_to_arrays(pending)
            pending = []
    if pending:
        yield updates_to_arrays(pending)


def _as_chunk_source(source, chunk_size: Optional[int]) -> ChunkSource:
    """Normalize ``source``: one array pair becomes engine-sized chunks.

    Mirrors ``StreamEngine.drive_arrays``: a ``(items, deltas)`` pair of
    equal-length array-likes is sliced into ``chunk_size`` chunks (the
    engine default when unset).  Anything else must already be a sync or
    async iterable of chunks, for which ``chunk_size`` has no meaning --
    passing it there is an error, not a silent no-op.
    """
    is_pair = (
        isinstance(source, tuple)
        and len(source) == 2
        and all(hasattr(part, "__len__") for part in source)
        and not isinstance(source[0], tuple)
    )
    if is_pair:
        return chunk_arrays(
            source[0], source[1], chunk_size or DEFAULT_CHUNK_SIZE
        )
    if chunk_size is not None:
        raise ValueError(
            "chunk_size only applies when source is one (items, deltas) "
            "array pair; this source already yields chunks"
        )
    return source


async def ingest_async(
    targets,
    source: ChunkSource,
    *,
    chunk_size: Optional[int] = None,
    on_chunk: Optional[Callable[[int], None]] = None,
    queue_depth: int = 4,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    start_position: int = 0,
) -> IngestStats:
    """Pipelined ingestion: produce chunk ``t+1`` while scattering chunk ``t``.

    Parameters
    ----------
    targets:
        One :class:`StreamAlgorithm` or a lockstep sequence (every target
        sees every chunk, in order, like ``StreamEngine.drive``).
    source:
        Sync or async iterable of ``(items, deltas)`` chunks, or one
        ``(items, deltas)`` array pair (chunked like ``drive_arrays``).
    chunk_size:
        Chunk size used when ``source`` is one array pair (defaults to
        the engine's ``DEFAULT_CHUNK_SIZE``; an error for pre-chunked
        sources).
    on_chunk:
        ``on_chunk(position)`` fires after each chunk's scatter completes
        -- ``StreamEngine.drive``'s hook, with absolute positions
        (``start_position`` included) when resuming.
    queue_depth:
        Bound on produced-but-unscattered chunks (backpressure).
    checkpoint_path:
        When given, the first target is snapshotted here every
        ``checkpoint_every`` updates (at chunk boundaries) and at stream
        end; see :mod:`repro.distributed.checkpoint`.
    checkpoint_every:
        Checkpoint cadence in updates (defaults to the checkpoint
        module's cadence).
    start_position:
        Absolute position of the first incoming update -- nonzero when
        resuming, so recorded checkpoint positions stay absolute.

    Returns
    -------
    IngestStats
        Always -- throughput, scatter share, checkpoint count, position.
    """
    source = _as_chunk_source(source, chunk_size)
    if queue_depth <= 0:
        raise ValueError(f"queue_depth must be positive, got {queue_depth}")
    if start_position < 0:
        raise ValueError(
            f"start_position must be non-negative, got {start_position}"
        )
    single = isinstance(targets, StreamAlgorithm)
    target_list: Sequence[StreamAlgorithm] = [targets] if single else list(targets)
    writer = None
    if checkpoint_path is not None:
        from repro.distributed.checkpoint import (
            DEFAULT_CHECKPOINT_EVERY,
            CheckpointWriter,
        )

        writer = CheckpointWriter(
            checkpoint_path,
            target_list[0],
            every=checkpoint_every
            if checkpoint_every is not None
            else DEFAULT_CHECKPOINT_EVERY,
        )
        writer.last_position = start_position
    stats = IngestStats(
        queue_depth=queue_depth,
        targets=len(target_list),
        position=start_position,
    )
    queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
    loop = asyncio.get_running_loop()
    started = time.perf_counter()

    async def produce() -> None:
        # The sentinel must reach the consumer even when the source raises
        # mid-stream, or the pipeline would deadlock on queue.get(); the
        # source's exception then surfaces through `await producer`.
        try:
            if hasattr(source, "__aiter__"):
                async for chunk in source:
                    await queue.put(chunk)
            else:
                iterator = iter(source)
                with ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="ingest-produce"
                ) as pool:
                    while True:
                        chunk = await loop.run_in_executor(
                            pool, next, iterator, _SENTINEL
                        )
                        if chunk is _SENTINEL:
                            break
                        await queue.put(chunk)
        finally:
            await queue.put(_SENTINEL)

    async def consume() -> None:
        def scatter(chunk: Chunk) -> float:
            items, deltas = chunk
            scatter_started = time.perf_counter()
            for target in target_list:
                target.feed_batch(items, deltas)
            return time.perf_counter() - scatter_started

        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ingest-scatter"
        ) as pool:
            while True:
                chunk = await queue.get()
                if chunk is _SENTINEL:
                    return
                scatter_seconds = await loop.run_in_executor(
                    pool, scatter, chunk
                )
                stats.bump(
                    chunks=1,
                    updates=len(chunk[0]),
                    position=len(chunk[0]),
                    scatter_seconds=scatter_seconds,
                )
                if on_chunk is not None:
                    on_chunk(stats.position)
                # Chunk-boundary checkpointing: the scatter for this chunk
                # has completed, so the snapshot is a consistent prefix
                # state at an exactly-known position.
                if writer is not None and writer.maybe(stats.position):
                    stats.bump(checkpoints=1)

    producer = asyncio.ensure_future(produce())
    try:
        await consume()
        await producer
    finally:
        producer.cancel()
    if writer is not None and writer.last_position != stats.position:
        # Final checkpoint at stream end, so a clean finish is resumable
        # (and re-runnable) without replaying anything.
        writer.flush(stats.position)
        stats.bump(checkpoints=1)
    stats.seconds = time.perf_counter() - started
    return stats


def ingest(
    targets,
    source: ChunkSource,
    *,
    chunk_size: Optional[int] = None,
    on_chunk: Optional[Callable[[int], None]] = None,
    queue_depth: int = 4,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    start_position: int = 0,
) -> IngestStats:
    """Synchronous wrapper around :func:`ingest_async` (runs its own loop).

    Same signature and :class:`IngestStats` return as the async form.
    """
    return asyncio.run(
        ingest_async(
            targets,
            source,
            chunk_size=chunk_size,
            on_chunk=on_chunk,
            queue_depth=queue_depth,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            start_position=start_position,
        )
    )
