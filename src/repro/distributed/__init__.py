"""Distributed deployment layer: wire-format snapshots, process-parallel
shard workers, replay logs, and checkpoint/recovery.

Four pieces, stacked on the merge protocol
(:class:`repro.core.MergeableSketch` /
:class:`repro.core.SerializableSketch`):

* :mod:`repro.distributed.codec` -- the canonical, versioned byte
  representation of sketch state (construction-fingerprinted headers,
  deterministic ndarray/scalar payloads) behind ``snapshot()`` /
  ``restore()`` / ``merge_snapshot()``;
* :mod:`repro.distributed.workers` -- :class:`ProcessShardPool`, the
  ``multiprocessing`` scatter backend of a sharded fleet
  (shared-memory chunk transport out, snapshot transport back), giving
  ``ShardedAlgorithm(backend="process")`` real parallelism for
  Python-bound sketches;
* :mod:`repro.distributed.replay` -- :class:`ReplayLog`, a baseline
  state plus the batches applied since (the coordinator's per-server
  cache, the pool's supervised respawn), and :func:`merge_states`, the
  one fan-in behind the coordinator's view and
  ``ShardedAlgorithm.merged``;
* :mod:`repro.distributed.checkpoint` -- periodic engine snapshots to
  disk plus ``resume_from``, so a killed ingestion run replays only the
  tail of the stream.
"""

from repro.distributed.checkpoint import (
    Checkpoint,
    CheckpointWriter,
    load_checkpoint,
    resume_from,
    save_checkpoint,
    tail_chunks,
    verify_checkpoint_resume,
)
from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    construction_fingerprint,
    decode_value,
    encode_value,
    restore_sketch,
    snapshot_sketch,
)
from repro.distributed.replay import ReplayLog, merge_states
from repro.distributed.workers import ProcessShardPool

__all__ = [
    "Checkpoint",
    "CheckpointWriter",
    "FingerprintMismatch",
    "ProcessShardPool",
    "ReplayLog",
    "SnapshotError",
    "construction_fingerprint",
    "decode_value",
    "encode_value",
    "load_checkpoint",
    "merge_states",
    "restore_sketch",
    "resume_from",
    "save_checkpoint",
    "snapshot_sketch",
    "tail_chunks",
    "verify_checkpoint_resume",
]
