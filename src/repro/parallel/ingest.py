"""Asyncio ingestion front-end: overlap chunk production with scatter.

Network-style workloads (see ``examples/network_monitoring.py``) produce
update chunks from a live source -- a packet ring, a socket, a Python
generator -- while the engine scatters the previous chunk into the
sketches.  Serially those two phases alternate; this module pipelines them
with a bounded :class:`asyncio.Queue` between a producer (pulling chunks
from a sync or async source on its own ``ingest-produce`` thread) and the
engine's one chunk loop (:func:`repro.core.engine.chunk_loop`), whose feed
step runs on an ``ingest-scatter`` thread, so generator-side Python work
and GIL-releasing numpy scatter genuinely overlap on multi-core hosts.

Only the producer, the queue and the scatter thread are this module's
own.  The rest is the loop ``StreamEngine.drive`` and ``drive_arrays``
run -- target list, positions, ``on_chunk``, checkpoints, the per-update
fallback beyond int64, ``engine.chunk`` telemetry (``path="ingest"``) --
on the caller's thread, between the awaits.  One producer, one consumer
and a FIFO queue keep stream order, so targets end in exactly the state
the synchronous engine produces (the ingest tests assert that
bit-for-bit), and any :class:`~repro.core.algorithm.StreamAlgorithm`
works, including :class:`~repro.parallel.sharded.ShardedAlgorithm`
(whose scatter then fans out a second time, across shards).

Checkpointed ingestion (:mod:`repro.distributed.checkpoint`): pass
``checkpoint_path`` and the (first) target is snapshotted to disk every
``checkpoint_every`` updates, at chunk boundaries, plus once at stream
end.  A killed run resumes with ``resume_from`` + ``tail_chunks`` and
replays only the unabsorbed tail -- the kill-and-resume tests verify the
resumed state is bit-identical to an uninterrupted run.

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
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterable, Callable, Iterable, Optional, Union

import numpy as np

from repro.core.engine import (
    DEFAULT_CHUNK_SIZE,
    END,
    chunk_arrays,
    chunk_loop,
    chunk_updates,
)

__all__ = [
    "IngestStats",
    "chunk_arrays",
    "chunk_updates",
    "ingest",
    "ingest_async",
]

#: One (items, deltas) array pair.
Chunk = tuple[np.ndarray, np.ndarray]
ChunkSource = Union[Iterable[Chunk], AsyncIterable[Chunk]]


@dataclass
class IngestStats:
    """What one ingestion run did (throughput bookkeeping for benchmarks).

    A plain per-run record: the chunk loop's result fills ``targets``,
    ``chunks``, ``updates``, ``checkpoints`` and ``position``, and the
    runner adds its own timings, so every field counts with telemetry
    off (``REPRO_OBS=0``) too.  The loop's ``path="ingest"`` telemetry
    series carry the same counts process-wide.
    """

    chunks: int = 0
    updates: int = 0
    seconds: float = 0.0
    #: Time the scatter thread spent feeding chunks (scatter-bound share).
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
        Sync or async iterable of ``(items, deltas)`` chunks (or of
        :func:`chunk_updates` chunks), or one ``(items, deltas)`` array
        pair (chunked like ``drive_arrays``).
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
    steps = chunk_loop(
        targets,
        "ingest",
        on_chunk,
        checkpoint_path,
        checkpoint_every,
        start_position,
    )
    step = next(steps)  # bad loop arguments raise before the producer starts
    queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    scatter_seconds = 0.0

    async def produce() -> None:
        # The runner waits on queue.get() until END or the source's
        # failure arrives.  A cancelled producer sends neither: its runner
        # stopped reading, so a full queue would block it for ever.
        try:
            if hasattr(source, "__aiter__"):
                async for chunk in source:
                    await queue.put(chunk)
            else:
                iterator = iter(source)
                pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="ingest-produce"
                )
                pending = pool.submit(next, iterator, END)
                try:
                    while (chunk := await asyncio.wrap_future(pending)) is not END:
                        await queue.put(chunk)
                        pending = pool.submit(next, iterator, END)
                finally:
                    # A cancelled producer can leave a next() in flight (a
                    # quiet socket can hold it for seconds): wait for it
                    # here, on the loop, so the join below is immediate
                    # instead of blocking every task on the loop.
                    pool.shutdown(wait=False)
                    if not pending.done():
                        with contextlib.suppress(Exception):
                            await asyncio.wrap_future(pending)
                    pool.shutdown(wait=True)
        except Exception as exc:
            await queue.put(exc)
        else:
            await queue.put(END)

    def scatter(feed) -> float:
        scatter_started = time.perf_counter()
        feed()
        return time.perf_counter() - scatter_started

    producer = asyncio.ensure_future(produce())
    try:
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ingest-scatter"
        ) as pool:
            while True:
                if step is None:
                    answer = await queue.get()
                    if isinstance(answer, Exception):
                        raise answer
                else:
                    scatter_seconds += await loop.run_in_executor(pool, scatter, step)
                    answer = None
                try:
                    step = steps.send(answer)
                except StopIteration as stop:
                    run = stop.value
                    break
    finally:
        steps.close()
        producer.cancel()
        await asyncio.wait((producer,))
    return IngestStats(
        **run,
        seconds=time.perf_counter() - started,
        scatter_seconds=scatter_seconds,
        queue_depth=queue_depth,
    )


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
