"""Checkpoint/recovery: a killed run resumed from disk must reproduce the
uninterrupted run bit for bit.

Covers the file format (round trip, atomicity guarantees via digest
verification, corruption/truncation rejection), the periodic writer, the
``tail_chunks`` replay primitive, checkpointed ingestion through
``repro.parallel.ingest`` (including a producer that dies mid-stream),
resume across engine shapes (single sketch, serial fleet, process fleet
-- the wire format is the common coin), and one *actual* SIGKILL of an
ingesting child process followed by recovery from whatever checkpoint it
managed to write.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.engine import StreamEngine
from repro.distinct.sis_l0 import SisL0Estimator
from repro.distributed.checkpoint import (
    CheckpointWriter,
    checkpoint_candidates,
    load_checkpoint,
    load_latest_checkpoint,
    resume_from,
    save_checkpoint,
    tail_chunks,
    verify_checkpoint_resume,
)
from repro.distributed.codec import FingerprintMismatch, SnapshotError
from repro.heavyhitters.count_min import CountMinSketch
from repro.parallel import ShardedAlgorithm, chunk_arrays, ingest
from repro.workloads.frequency import uniform_arrays

UNIVERSE = 5000
STREAM_SEED = 2026


def make_sketch():
    return CountMinSketch(UNIVERSE, width=32, depth=4, seed=7)


def stream_arrays(length=40_000):
    return uniform_arrays(UNIVERSE, length, seed=STREAM_SEED)


def assert_state_identical(expected, actual):
    assert dict(expected.state_view().fields) == dict(actual.state_view().fields)
    assert expected.updates_processed == actual.updates_processed
    assert expected.space_bits() == actual.space_bits()
    assert expected.query() == actual.query()


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        items, deltas = stream_arrays(5000)
        sketch = make_sketch()
        sketch.feed_batch(items, deltas)
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, sketch, 5000, meta={"stream_seed": STREAM_SEED})
        checkpoint = load_checkpoint(path)
        assert checkpoint.position == 5000
        assert checkpoint.meta == {"stream_seed": STREAM_SEED}
        resumed = make_sketch()
        assert resume_from(path, resumed) == 5000
        assert_state_identical(sketch, resumed)

    def test_negative_position_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", make_sketch(), -1)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, make_sketch(), 10)
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, make_sketch(), 10)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(SnapshotError):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(SnapshotError):
            load_checkpoint(path)

    def test_resume_with_wrong_seed_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, make_sketch(), 10)
        stranger = CountMinSketch(UNIVERSE, width=32, depth=4, seed=8)
        with pytest.raises(FingerprintMismatch):
            resume_from(path, stranger)

    def test_overwrite_keeps_latest(self, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = make_sketch()
        save_checkpoint(path, sketch, 0)
        items, deltas = stream_arrays(100)
        sketch.feed_batch(items, deltas)
        save_checkpoint(path, sketch, 100)
        assert load_checkpoint(path).position == 100


class TestCheckpointRotation:
    def test_keep_retains_last_n_predecessors(self, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = make_sketch()
        items, deltas = stream_arrays(400)
        for step in range(4):
            sketch.feed_batch(
                items[step * 100 : (step + 1) * 100],
                deltas[step * 100 : (step + 1) * 100],
            )
            save_checkpoint(path, sketch, (step + 1) * 100, keep=2)
        # head = 400, .1 = 300, .2 = 200; 100 rotated off the end
        assert load_checkpoint(path).position == 400
        assert load_checkpoint(tmp_path / "run.ckpt.1").position == 300
        assert load_checkpoint(tmp_path / "run.ckpt.2").position == 200
        assert not (tmp_path / "run.ckpt.3").exists()
        candidates = checkpoint_candidates(path)
        assert [c.name for c in candidates] == [
            "run.ckpt",
            "run.ckpt.1",
            "run.ckpt.2",
        ]

    def test_truncated_head_falls_back_to_newest_verifiable(self, tmp_path):
        """A torn head write (injected partial write) must not lose the
        run: resume falls back to the newest rotated sibling that still
        verifies, and replaying the slightly longer tail reproduces the
        uninterrupted run bit for bit."""
        path = tmp_path / "run.ckpt"
        items, deltas = stream_arrays(300)
        sketch = make_sketch()
        sketch.feed_batch(items[:100], deltas[:100])
        save_checkpoint(path, sketch, 100, keep=2)
        sketch.feed_batch(items[100:200], deltas[100:200])
        save_checkpoint(path, sketch, 200, keep=2)
        # inject a partial write: the head is cut mid-body
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        checkpoint, source = load_latest_checkpoint(path)
        assert checkpoint.position == 100
        assert source.name == "run.ckpt.1"
        with pytest.raises(SnapshotError):
            resume_from(path, make_sketch())  # strict mode still fails
        resumed = make_sketch()
        position = resume_from(path, resumed, fallback=True)
        assert position == 100
        resumed.feed_batch(items[position:], deltas[position:])
        reference = make_sketch()
        reference.feed_batch(items, deltas)
        assert_state_identical(reference, resumed)

    def test_corrupt_head_and_sibling_fall_through_in_order(self, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = make_sketch()
        for position in (10, 20, 30):
            save_checkpoint(path, sketch, position, keep=2)
        for victim in (path, tmp_path / "run.ckpt.1"):
            blob = bytearray(victim.read_bytes())
            blob[-1] ^= 0xFF
            victim.write_bytes(bytes(blob))
        checkpoint, source = load_latest_checkpoint(path)
        assert checkpoint.position == 10
        assert source.name == "run.ckpt.2"

    def test_nothing_verifiable_raises_with_every_failure(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, make_sketch(), 10, keep=1)
        save_checkpoint(path, make_sketch(), 20, keep=1)
        for victim in (path, tmp_path / "run.ckpt.1"):
            victim.write_bytes(b"garbage")
        with pytest.raises(SnapshotError, match="no verifiable checkpoint"):
            load_latest_checkpoint(path)
        with pytest.raises(SnapshotError, match="no checkpoint file"):
            load_latest_checkpoint(tmp_path / "absent.ckpt")

    def test_writer_passes_keep_through(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, make_sketch(), every=10, keep=1)
        writer.flush(10)
        writer.flush(20)
        assert load_checkpoint(path).position == 20
        assert load_checkpoint(tmp_path / "run.ckpt.1").position == 10
        with pytest.raises(ValueError):
            CheckpointWriter(path, make_sketch(), keep=-1)
        with pytest.raises(ValueError):
            save_checkpoint(path, make_sketch(), 0, keep=-2)


class TestCheckpointWriter:
    def test_cadence(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, make_sketch(), every=100)
        assert not writer.maybe(50)
        assert writer.maybe(100)
        assert not writer.maybe(150)
        assert writer.maybe(260)
        assert writer.saves == 2
        assert load_checkpoint(path).position == 260

    def test_flush_is_unconditional(self, tmp_path):
        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, make_sketch(), every=10**9)
        writer.flush(7)
        assert load_checkpoint(path).position == 7

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path / "x", make_sketch(), every=0)

    def test_ingest_rejects_zero_cadence(self, tmp_path):
        """An explicit checkpoint_every=0 is an error, not the default."""
        items, deltas = stream_arrays(100)
        with pytest.raises(ValueError):
            ingest(
                make_sketch(),
                chunk_arrays(items, deltas, 64),
                checkpoint_path=tmp_path / "x.ckpt",
                checkpoint_every=0,
            )


class TestTailChunks:
    def test_skips_exactly(self):
        items, deltas = stream_arrays(1000)
        for skip in (0, 1, 250, 256, 999, 1000):
            tail = list(tail_chunks(chunk_arrays(items, deltas, 256), skip))
            flat_items = np.concatenate([c[0] for c in tail]) if tail else np.array([])
            assert np.array_equal(flat_items, items[skip:])

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            list(tail_chunks([], -1))


class TestResumeExactness:
    def test_verify_checkpoint_resume_mid_chunk(self, tmp_path):
        items, deltas = stream_arrays()
        # A cut that is not a chunk multiple: resumption slices mid-chunk.
        assert verify_checkpoint_resume(
            make_sketch, items, deltas, tmp_path / "run.ckpt", cut=13_777
        )

    def test_verify_checkpoint_resume_detects_divergence(self, tmp_path):
        """The certifier is not a rubber stamp: feeding a different tail
        after resume must fail the comparison."""
        items, deltas = stream_arrays(2000)
        path = tmp_path / "run.ckpt"
        reference = make_sketch()
        StreamEngine(chunk_size=512).drive_arrays(reference, items, deltas)
        dying = make_sketch()
        StreamEngine(chunk_size=512).drive_arrays(
            dying, items[:1000], deltas[:1000]
        )
        save_checkpoint(path, dying, 1000)
        resumed = make_sketch()
        position = resume_from(path, resumed)
        # Tamper with the tail: one delta off by one.
        wrong = deltas.copy()
        wrong[1500] += 1
        StreamEngine(chunk_size=512).drive_arrays(
            resumed, items[position:], wrong[position:]
        )
        assert dict(reference.state_view().fields) != dict(
            resumed.state_view().fields
        )

    def test_sis_l0_resume(self, tmp_path):
        items, deltas = stream_arrays(20_000)
        assert verify_checkpoint_resume(
            lambda: SisL0Estimator(UNIVERSE, eps=0.5, c=0.25, seed=3),
            items,
            deltas,
            tmp_path / "sis.ckpt",
        )

    def test_sharded_resume_across_backends(self, tmp_path):
        """A checkpoint from a process fleet resumes on a serial fleet of a
        different width -- merged state is the only observable state."""
        items, deltas = stream_arrays(20_000)
        path = tmp_path / "fleet.ckpt"
        reference = make_sketch()
        reference.feed_batch(items, deltas)

        with ShardedAlgorithm(make_sketch, num_shards=2, backend="process") as dying:
            StreamEngine().drive_arrays(dying, items[:12_000], deltas[:12_000])
            save_checkpoint(path, dying, 12_000)

        with ShardedAlgorithm(make_sketch, num_shards=3) as resumed:
            position = resume_from(path, resumed)
            assert position == 12_000
            StreamEngine().drive_arrays(resumed, items[position:], deltas[position:])
            assert_state_identical(reference, resumed.merged())


class TestCheckpointedIngest:
    def test_ingest_writes_checkpoints_and_final_flush(self, tmp_path):
        items, deltas = stream_arrays(10_000)
        path = tmp_path / "ingest.ckpt"
        sketch = make_sketch()
        stats = ingest(
            sketch,
            chunk_arrays(items, deltas, 1024),
            checkpoint_path=path,
            checkpoint_every=2048,
        )
        assert stats.checkpoints >= 4
        assert stats.position == 10_000
        assert load_checkpoint(path).position == 10_000
        resumed = make_sketch()
        assert resume_from(path, resumed) == 10_000
        assert_state_identical(sketch, resumed)

    def test_crashed_producer_leaves_resumable_checkpoint(self, tmp_path):
        """A source that dies mid-stream surfaces its error, but the last
        periodic checkpoint on disk resumes to a bit-exact finish."""
        items, deltas = stream_arrays(10_000)
        path = tmp_path / "ingest.ckpt"
        reference = make_sketch()
        reference.feed_batch(items, deltas)

        def dying_source():
            for index, chunk in enumerate(chunk_arrays(items, deltas, 512)):
                if index == 10:
                    raise ConnectionError("packet ring went away")
                yield chunk

        sketch = make_sketch()
        with pytest.raises(ConnectionError):
            ingest(
                sketch,
                dying_source(),
                checkpoint_path=path,
                checkpoint_every=1024,
            )
        position = load_checkpoint(path).position
        assert 0 < position < 10_000
        resumed = make_sketch()
        assert resume_from(path, resumed) == position
        stats = ingest(
            resumed,
            tail_chunks(chunk_arrays(items, deltas, 512), position),
            checkpoint_path=path,
            start_position=position,
        )
        assert stats.position == 10_000
        assert_state_identical(reference, resumed)


def _ingest_until_killed(path, length):
    """Child-process body: checkpointed ingestion of a deterministic
    stream, slowed so the parent can SIGKILL it mid-run."""
    items, deltas = uniform_arrays(UNIVERSE, length, seed=STREAM_SEED)

    def slow_source():
        for chunk in chunk_arrays(items, deltas, 512):
            yield chunk
            time.sleep(0.002)

    ingest(
        make_sketch(),
        slow_source(),
        checkpoint_path=path,
        checkpoint_every=1024,
    )


class TestKillAndResume:
    def test_sigkill_mid_ingest_then_resume_bit_exact(self, tmp_path):
        """The heart of the CI smoke: SIGKILL an ingesting process (no
        cleanup handlers run), then resume from whatever checkpoint
        survived.
        Atomic writes guarantee the file is a complete, verified
        snapshot; determinism guarantees the resumed finish is exact."""
        length = 40_000
        path = tmp_path / "killed.ckpt"
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_ingest_until_killed, args=(str(path), length)
        )
        child.start()
        try:
            deadline = time.monotonic() + 30
            position = 0
            while time.monotonic() < deadline:
                if path.exists():
                    try:
                        position = load_checkpoint(path).position
                    except SnapshotError:
                        position = 0  # mid-replace; retry
                    if 0 < position < length:
                        break
                time.sleep(0.01)
            assert 0 < position < length, "child never checkpointed"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=10)

        # The file may have advanced between our read and the kill; what
        # matters is that whatever is on disk is complete and resumable.
        checkpoint = load_checkpoint(path)
        assert 0 < checkpoint.position < length

        items, deltas = uniform_arrays(UNIVERSE, length, seed=STREAM_SEED)
        reference = make_sketch()
        reference.feed_batch(items, deltas)

        resumed = make_sketch()
        position = resume_from(path, resumed)
        ingest(
            resumed,
            tail_chunks(chunk_arrays(items, deltas, 512), position),
            checkpoint_path=path,
            start_position=position,
        )
        assert_state_identical(reference, resumed)
        assert load_checkpoint(path).position == length
