"""Sharded / asynchronous scaling layer over the batched stream engine.

Three pieces, designed to compose:

* :mod:`repro.parallel.partition` -- the deterministic vectorized
  item -> shard hash every path (batched, per-update, beyond-int64) agrees
  on;
* :mod:`repro.parallel.sharded` -- :class:`ShardedAlgorithm`, N mergeable
  replicas behind the single-algorithm interface, answering queries and
  white-box state views from the bit-exact merged state; a
  :class:`~repro.core.engine.StreamEngine` drives it like any other
  algorithm;
* :mod:`repro.parallel.ingest` -- the asyncio front-end that overlaps
  chunk production with scatter (optionally checkpointing to disk via
  ``checkpoint_path=``; see :mod:`repro.distributed.checkpoint`).

The underlying merge protocol is
:class:`repro.core.algorithm.MergeableSketch`, implemented by CountMin,
CountSketch, AMS, exact F_p/L0, KMV, and SIS-L0.  The fleet's
``backend="process"`` mode and the wire-format snapshot fan-in behind it
live in :mod:`repro.distributed`.
"""

from repro.parallel.ingest import (
    IngestStats,
    chunk_arrays,
    chunk_updates,
    ingest,
    ingest_async,
)
from repro.parallel.partition import UniversePartitioner
from repro.parallel.sharded import ShardedAlgorithm

__all__ = [
    "IngestStats",
    "ShardedAlgorithm",
    "UniversePartitioner",
    "chunk_arrays",
    "chunk_updates",
    "ingest",
    "ingest_async",
]
