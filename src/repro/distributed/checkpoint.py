"""Checkpoint/recovery: periodic engine snapshots, resume from the tail.

A long ingestion run that dies at update ``t`` should not replay updates
``1..t``.  Because every mergeable sketch has an exact wire-format
snapshot (:mod:`repro.distributed.codec`), a checkpoint is tiny and
lossless: the sketch state at a chunk boundary plus the stream position.
Resuming restores the state and replays only the tail -- and since the
snapshot round-trip is bit-exact and the sketches are deterministic given
the stream, the resumed run's final answers equal the uninterrupted
run's, bit for bit (:func:`verify_checkpoint_resume` certifies that, and
the ``--checkpoint`` experiment paths run it inside e02/e06/e11).

Sharded engines checkpoint their *merged* state: merging is exact, so
restoring the merged snapshot into shard 0 of a fresh fleet (shards 1..N
empty) yields an engine whose merged state -- the only observable state
-- continues identically.  A checkpoint taken on a 4-shard process
fleet can therefore resume on a single engine, a thread fleet, or an
8-shard fleet; the wire format is the common coin.

File format (atomic: written to a temp sibling, then ``os.replace``)::

    MAGIC "RCKP" | version u8 | sha256(body) | body =
        encode({"position": int, "meta": dict, "snapshot": bytes,
                "dedup": dict})

The body digest means a crash mid-write (or disk corruption) surfaces as
:class:`~repro.distributed.codec.SnapshotError`, never as silently wrong
state; the construction fingerprint inside the inner snapshot still
guards against resuming with the wrong seed or parameters.

Version 2 added ``dedup``: a sketch server's exactly-once state for
sequenced feeds (:mod:`repro.service.core`), per client id ``{"seq":
last applied seq, "failed": {seq: (error kind, message)}}``.  It sits in
the digested body beside the snapshot it belongs to, so a resumed
server's dedup table always matches its state.  Version 1 files (no
``dedup``) still load, with an empty table.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.distributed.codec import SnapshotError, decode_value, encode_value

__all__ = [
    "Checkpoint",
    "CheckpointWriter",
    "checkpoint_candidates",
    "load_checkpoint",
    "load_latest_checkpoint",
    "resume_from",
    "save_checkpoint",
    "tail_chunks",
    "verify_checkpoint_resume",
]

MAGIC = b"RCKP"
VERSION = 2
_DIGEST_BYTES = 32

#: Default checkpoint cadence (updates between snapshots) used by the
#: ingestion front-end when none is given.
DEFAULT_CHECKPOINT_EVERY = 1 << 16


@dataclass
class Checkpoint:
    """One recovered checkpoint: stream position + sketch snapshot."""

    position: int
    snapshot: bytes
    meta: dict = field(default_factory=dict)
    dedup: dict = field(default_factory=dict)


def _algorithm_snapshot(algorithm) -> bytes:
    """Wire snapshot of an algorithm (sharded wrappers use the merged view)."""
    if hasattr(algorithm, "merged"):
        return algorithm.merged().snapshot()
    return algorithm.snapshot()


def _algorithm_restore(algorithm, data: bytes) -> None:
    """Load snapshot bytes into an algorithm or sharded wrapper."""
    if hasattr(algorithm, "load_snapshot"):
        algorithm.load_snapshot(data)
    else:
        algorithm.restore(data)


def _rotate_checkpoints(path: Path, keep: int) -> None:
    """Shift ``path`` -> ``path.1`` -> ... -> ``path.keep`` (oldest drops).

    Runs *before* the new head is renamed into place, so after every save
    the newest ``keep`` predecessors survive as numbered siblings -- the
    fallback chain :func:`load_latest_checkpoint` walks when the head is
    torn or corrupt.
    """
    oldest = path.with_name(f"{path.name}.{keep}")
    if oldest.exists():
        oldest.unlink()
    for index in range(keep - 1, 0, -1):
        older = path.with_name(f"{path.name}.{index}")
        if older.exists():
            os.replace(older, path.with_name(f"{path.name}.{index + 1}"))
    if path.exists():
        os.replace(path, path.with_name(f"{path.name}.1"))


def checkpoint_candidates(path) -> list[Path]:
    """The head checkpoint plus its rotated predecessors, newest first."""
    path = Path(path)
    candidates = [path] if path.exists() else []
    index = 1
    while True:
        rotated = path.with_name(f"{path.name}.{index}")
        if not rotated.exists():
            break
        candidates.append(rotated)
        index += 1
    return candidates


def save_checkpoint(
    path,
    algorithm,
    position: int,
    meta: dict | None = None,
    *,
    keep: int = 0,
    dedup: dict | None = None,
) -> Path:
    """Snapshot ``algorithm`` at stream position ``position`` to ``path``.

    Atomic: a torn write can never shadow a previous good checkpoint --
    the bytes land in a temp sibling first, are fsync'd, and renamed
    into place (with the containing directory fsync'd after).  With
    ``keep=N`` the previous head survives as ``path.1`` (and so on up to
    ``path.N``) so a later corruption of the head still leaves verified
    ancestors to fall back to.  ``dedup`` is a server's dedup table
    (see the module notes).  Returns the path.
    """
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    if keep < 0:
        raise ValueError(f"keep must be non-negative, got {keep}")
    path = Path(path)
    body = encode_value(
        {
            "position": int(position),
            "meta": dict(meta or {}),
            "snapshot": _algorithm_snapshot(algorithm),
            "dedup": dict(dedup or {}),
        }
    )
    blob = MAGIC + bytes([VERSION]) + hashlib.sha256(body).digest() + body
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        # Data must be durable *before* the rename: otherwise a machine
        # crash can make the rename stick while the blocks are still
        # unwritten, replacing the previous good checkpoint with garbage.
        os.fsync(handle.fileno())
    if keep > 0:
        _rotate_checkpoints(path, keep)
    os.replace(temp, path)
    try:
        directory = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return path
    try:
        os.fsync(directory)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(directory)
    return path


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint file (raises :class:`SnapshotError`)."""
    data = Path(path).read_bytes()
    header = len(MAGIC) + 1 + _DIGEST_BYTES
    if len(data) < header or data[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: not a checkpoint file (bad magic)")
    version = data[len(MAGIC)]
    if version not in (1, VERSION):
        raise SnapshotError(
            f"{path}: unsupported checkpoint version {version} "
            f"(expected 1 or {VERSION})"
        )
    digest = data[len(MAGIC) + 1 : header]
    body = data[header:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path}: checkpoint corrupted (digest mismatch)")
    decoded = decode_value(body)
    if (
        not isinstance(decoded, dict)
        or "position" not in decoded
        or "snapshot" not in decoded
        or not isinstance(decoded.get("dedup", {}), dict)
    ):
        raise SnapshotError(f"{path}: checkpoint body malformed")
    return Checkpoint(
        position=decoded["position"],
        snapshot=decoded["snapshot"],
        meta=decoded.get("meta", {}),
        dedup=decoded.get("dedup", {}),
    )


def load_latest_checkpoint(path) -> tuple[Checkpoint, Path]:
    """The newest *verifiable* checkpoint among head + rotated siblings.

    Walks :func:`checkpoint_candidates` newest-first, skipping files
    whose magic/digest/body checks fail (a torn head write, a truncated
    rotation) and returning the first one that verifies, with its path.
    Raises :class:`SnapshotError` carrying every candidate's failure when
    none survives -- silent resurrection of garbage is exactly what the
    digest exists to prevent.
    """
    candidates = checkpoint_candidates(path)
    if not candidates:
        raise SnapshotError(f"{path}: no checkpoint file (or rotated sibling)")
    failures = []
    for candidate in candidates:
        try:
            return load_checkpoint(candidate), candidate
        except (SnapshotError, OSError) as exc:
            failures.append(f"{candidate.name}: {exc}")
    raise SnapshotError(
        f"{path}: no verifiable checkpoint among {len(candidates)} "
        "candidate(s) -- " + "; ".join(failures)
    )


def resume_from(path, algorithm, *, fallback: bool = False) -> int:
    """Restore ``algorithm`` from a checkpoint; return the stream position.

    The caller replays the stream's tail from that position (e.g. via
    :func:`tail_chunks`).  Fingerprint verification happens inside
    ``restore``: resuming with the wrong seed or parameters raises
    :class:`~repro.distributed.codec.FingerprintMismatch`.

    ``fallback=True`` resumes from the newest *verifiable* checkpoint
    (see :func:`load_latest_checkpoint`) instead of failing outright on
    a truncated or corrupt head file -- replaying a slightly longer tail
    beats replaying the whole stream.
    """
    if fallback:
        checkpoint, _ = load_latest_checkpoint(path)
    else:
        checkpoint = load_checkpoint(path)
    _algorithm_restore(algorithm, checkpoint.snapshot)
    return checkpoint.position


class CheckpointWriter:
    """Periodic checkpoint policy: snapshot every ``every`` updates.

    Used by :func:`repro.parallel.ingest` (``checkpoint_path=...``); also
    usable standalone around any drive loop.  ``maybe(position)`` saves
    when at least ``every`` updates passed since the last save;
    ``flush(position)`` saves unconditionally (end of stream).
    ``every=None`` means :data:`DEFAULT_CHECKPOINT_EVERY`; ``position``
    is where the stream starts (nonzero when resuming), so the first
    save is due ``every`` updates past it.  ``keep=N`` retains the N
    previous checkpoints as rotated numbered siblings (the durability
    fallback chain).  ``dedup``, when given, is called at each save
    for the dedup table written beside the snapshot (a sketch server's).
    """

    def __init__(
        self,
        path,
        algorithm,
        every: int | None = None,
        meta: dict | None = None,
        *,
        keep: int = 0,
        position: int = 0,
        dedup: Callable[[], dict] | None = None,
    ) -> None:
        if every is None:
            every = DEFAULT_CHECKPOINT_EVERY
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        if keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        self.path = Path(path)
        self.algorithm = algorithm
        self.every = every
        self.meta = dict(meta or {})
        self.keep = keep
        self.dedup = dedup
        self.last_position = position
        self.saves = 0

    def maybe(self, position: int) -> bool:
        """Checkpoint if due; returns whether a snapshot was written."""
        if position - self.last_position < self.every:
            return False
        self.flush(position)
        return True

    def flush(self, position: int) -> None:
        """Checkpoint unconditionally at ``position``."""
        save_checkpoint(
            self.path,
            self.algorithm,
            position,
            meta=self.meta,
            keep=self.keep,
            dedup=self.dedup() if self.dedup is not None else None,
        )
        self.last_position = position
        self.saves += 1


def tail_chunks(source: Iterable, skip: int) -> Iterator:
    """Drop the first ``skip`` updates from an ``(items, deltas)`` chunk
    stream -- the replay primitive for resuming: feed the same source the
    dead run consumed and only the unabsorbed tail reaches the sketch.
    Chunks straddling the boundary are sliced, so resumption is exact at
    any position, not just chunk boundaries.
    """
    if skip < 0:
        raise ValueError(f"skip must be non-negative, got {skip}")
    remaining = skip
    for items, deltas in source:
        count = len(items)
        if remaining >= count:
            remaining -= count
            continue
        if remaining:
            yield items[remaining:], deltas[remaining:]
            remaining = 0
        else:
            yield items, deltas


def verify_checkpoint_resume(
    factory,
    items,
    deltas,
    path,
    cut: int | None = None,
    chunk_size: int = 4096,
) -> bool:
    """Certify kill-and-resume exactness for one sketch family.

    Simulates the full lifecycle: an uninterrupted reference run; a run
    killed at ``cut`` updates (checkpointing on its way out); a *fresh*
    instance resumed from the checkpoint file that replays only the tail.
    Returns ``True`` iff the resumed state equals the reference bit for
    bit (white-box state fields, ``space_bits``, query, stream position).
    Used by the ``--checkpoint`` experiment paths and the distributed CI
    smoke.
    """
    from repro.core.engine import StreamEngine

    items = np.asarray(items, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if cut is None:
        cut = len(items) // 2
    if not 0 <= cut <= len(items):
        raise ValueError(f"cut {cut} outside stream [0, {len(items)}]")
    engine = StreamEngine(chunk_size=chunk_size)

    reference = factory()
    engine.drive_arrays(reference, items, deltas)

    dying = factory()
    engine.drive_arrays(dying, items[:cut], deltas[:cut])
    save_checkpoint(path, dying, cut)
    del dying  # the "killed" process

    resumed = factory()
    position = resume_from(path, resumed)
    engine.drive_arrays(resumed, items[position:], deltas[position:])

    reference_view = reference.state_view()
    resumed_view = resumed.state_view()
    return (
        dict(reference_view.fields) == dict(resumed_view.fields)
        and reference_view.randomness == resumed_view.randomness
        and reference.updates_processed == resumed.updates_processed
        and reference.space_bits() == resumed.space_bits()
        and reference.query() == resumed.query()
    )
