"""StreamEngine: chunked, vectorized driving of streams, games, experiments.

Why an engine
-------------
Every algorithm in the library exposes the one-update interface
``process(update)`` the paper's game is defined over.  Driving a 10^6-update
workload through that interface costs 10^6 Python-level calls per algorithm
-- the dominant cost of every large experiment.  The engine instead slices a
workload into chunks of ``(items, deltas)`` numpy arrays and hands each chunk
to :meth:`~repro.core.algorithm.StreamAlgorithm.feed_batch`, which the
array-backed sketches (CountMin, CountSketch, AMS, the exact moment/distinct
structures) override with vectorized scatter updates.

The batching contract
---------------------
``process_batch(items, deltas)`` must leave the algorithm in *exactly* the
state that feeding the same updates one at a time would: identical tables,
identical estimates, identical randomness transcript, identical
``space_bits()``.  Vectorized overrides satisfy this because their update
rules are commutative integer additions whose hash parameters were all drawn
at construction time -- processing draws no randomness, so the transcript is
untouched on either path.  ``tests/test_batch_equivalence.py`` enforces the
contract bit-for-bit on random turnstile streams.

Two situations force the chunk size down to 1:

* **Adaptive adversaries.**  In the white-box game the adversary chooses
  update ``u_{t+1}`` after observing the state view at time ``t``.  Batching
  would hide intermediate states, so :meth:`StreamEngine.play` inspects the
  adversary's ``adaptive`` flag and degrades to the per-round
  :func:`repro.core.game.run_game` loop whenever it is ``True`` (the safe
  default).  Non-adaptive adversaries (e.g.
  :class:`~repro.core.adversary.ObliviousAdversary`) commit to their stream
  in advance, so their games batch freely -- validation then happens at
  chunk boundaries instead of every round, which cannot change who *can*
  win, only how often the referee looks.
* **Huge coefficients.**  The vectorized paths use int64 arrays.  Updates
  whose items or deltas exceed int64 (kernel-attack streams built from exact
  rational elimination can produce them) are detected via
  :class:`OverflowError` and routed through the per-update path, preserving
  Python's arbitrary-precision arithmetic.

Intermediate answers
--------------------
``query_every`` in :meth:`drive` mirrors the game runner's thinning: the
engine queries at chunk boundaries, never inside a chunk.  Experiments that
only read final answers (most of them) keep ``query_every=None`` and pay
zero query overhead.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Optional

import numpy as np

from repro.obs import (
    PHASE_SECONDS_HELP,
    PHASE_SECONDS_METRIC,
    TIME_BUCKETS,
    get_registry as _get_obs_registry,
    get_tracer as _get_obs_tracer,
)
from repro.core.adversary import BudgetExhausted, WhiteBoxAdversary
from repro.core.algorithm import StreamAlgorithm
from repro.core.game import (
    GameResult,
    GroundTruth,
    RoundRecord,
    Validator,
    run_game,
)
from repro.core.stream import updates_to_arrays

__all__ = ["StreamEngine", "DEFAULT_CHUNK_SIZE"]

#: Default chunk size: large enough to amortize numpy dispatch, small enough
#: that per-chunk scratch arrays stay cache-friendly.
DEFAULT_CHUNK_SIZE = 8192

# Chunk-granularity telemetry (never per update): one enabled-flag branch
# on the hot path when observability is off; when on, the chunk loops pay
# two perf_counter reads plus one local list append per chunk, and fold
# the whole call's log into the registry and tracer once at call end.
_obs_registry = _get_obs_registry()
_obs_tracer = _get_obs_tracer()
_obs_chunks = _obs_registry.counter(
    "repro_engine_chunks_total", "Chunks driven through StreamEngine, by path"
)
_obs_chunk_updates = _obs_registry.counter(
    "repro_engine_updates_total", "Updates driven through StreamEngine, by path"
)
_obs_phase_seconds = _obs_registry.histogram(
    PHASE_SECONDS_METRIC, PHASE_SECONDS_HELP, buckets=TIME_BUCKETS
)
# Per-path bound series (label keys pre-resolved) -- the flush pays one
# registry-lock acquisition per drive call, not one per chunk.
_obs_chunk_seconds = _obs_phase_seconds.bind(phase="engine.chunk")
_obs_by_path = {
    path: (_obs_chunks.bind(path=path), _obs_chunk_updates.bind(path=path))
    for path in ("drive", "drive_arrays", "game")
}


def _flush_chunks(path: str, log: list) -> None:
    """Fold one drive call's accumulated chunk log into the telemetry.

    ``log`` rows are ``(started, duration, position, count)``.  Counter
    totals land at call boundaries rather than per chunk -- a concurrent
    scrape mid-drive sees the previous call's totals -- which keeps the
    final totals (and the serial-vs-process fan-in equality) exact while
    the loop itself stays near-free.  Per-chunk latency still reaches the
    ``repro_phase_seconds{phase="engine.chunk"}`` histogram and the span
    ring at full resolution.
    """
    if not log:
        return
    chunks, chunk_updates = _obs_by_path[path]
    with _obs_registry.lock:
        chunks.add_unlocked(len(log))
        chunk_updates.add_unlocked(sum(row[3] for row in log))
        observe = _obs_chunk_seconds.observe_unlocked
        for row in log:
            observe(row[1])
    _obs_tracer.record_batch(
        "engine.chunk",
        (
            (started, duration,
             {"path": path, "position": position, "updates": count})
            for started, duration, position, count in log
        ),
    )


class StreamEngine:
    """Drives streams through algorithms in vectorized chunks.

    Parameters
    ----------
    chunk_size:
        Number of updates handed to ``feed_batch`` at a time.  ``1`` turns
        the engine into the classic per-update loop.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    # -- plain streams ------------------------------------------------------

    def _checkpoint_writer(
        self,
        targets,
        checkpoint_path,
        checkpoint_every: Optional[int],
        start_position: int,
    ):
        """Build the chunk-boundary checkpoint policy ``drive`` paths share.

        Same parameter names and semantics as :func:`repro.parallel.ingest`:
        the first target snapshots to ``checkpoint_path`` every
        ``checkpoint_every`` updates and once at stream end, with positions
        kept absolute via ``start_position``.
        """
        if start_position < 0:
            raise ValueError(
                f"start_position must be non-negative, got {start_position}"
            )
        if checkpoint_path is None:
            return None
        from repro.distributed.checkpoint import CheckpointWriter

        return CheckpointWriter(
            checkpoint_path, targets[0], every=checkpoint_every, position=start_position
        )

    def drive(
        self,
        algorithms,
        updates,
        on_chunk: Optional[Callable[[int], None]] = None,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        start_position: int = 0,
    ):
        """Feed ``updates`` to one algorithm (or a lockstep list of them).

        Accepts a single :class:`StreamAlgorithm` or a sequence of them; all
        algorithms see every chunk, in order, exactly as the per-update
        lockstep loops in the experiments did.  ``updates`` may be a list or
        any iterable (generators are consumed chunk by chunk).
        ``on_chunk(position)`` fires after each chunk (position = number of
        updates consumed so far, plus ``start_position``) -- experiments
        hook intermediate measurements there.

        The checkpoint parameters mirror :func:`repro.parallel.ingest`
        exactly: pass ``checkpoint_path`` and the first algorithm snapshots
        there every ``checkpoint_every`` updates at chunk boundaries (plus
        once at stream end), with ``start_position`` keeping recorded
        positions absolute across resumes.

        Returns the algorithm (or list) for chaining.
        """
        single = isinstance(algorithms, StreamAlgorithm)
        targets = [algorithms] if single else list(algorithms)
        writer = self._checkpoint_writer(
            targets, checkpoint_path, checkpoint_every, start_position
        )
        position = start_position
        chunk_log: list = []
        try:
            for chunk in _chunked(updates, self.chunk_size):
                observing = _obs_registry.enabled
                started = time.perf_counter() if observing else 0.0
                try:
                    items, deltas = updates_to_arrays(chunk)
                except OverflowError:
                    # Beyond-int64 coefficients: exact per-update arithmetic.
                    for target in targets:
                        for update in chunk:
                            target.feed(update)
                else:
                    for target in targets:
                        target.feed_batch(items, deltas)
                position += len(chunk)
                if observing:
                    chunk_log.append(
                        (started, time.perf_counter() - started, position,
                         len(chunk))
                    )
                if on_chunk is not None:
                    on_chunk(position)
                if writer is not None:
                    writer.maybe(position)
        finally:
            _flush_chunks("drive", chunk_log)
        if writer is not None and writer.last_position != position:
            writer.flush(position)
        return algorithms

    def drive_arrays(
        self,
        algorithms,
        items,
        deltas,
        on_chunk: Optional[Callable[[int], None]] = None,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        start_position: int = 0,
    ):
        """Feed a pre-built ``(items, deltas)`` array pair in chunks.

        The array-native fast path for workload generators that never
        materialize :class:`Update` objects at all.  ``on_chunk`` and the
        checkpoint parameters behave exactly as in :meth:`drive`.
        """
        single = isinstance(algorithms, StreamAlgorithm)
        targets = [algorithms] if single else list(algorithms)
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if len(items) != len(deltas):
            raise ValueError(
                f"items/deltas length mismatch: {len(items)} != {len(deltas)}"
            )
        writer = self._checkpoint_writer(
            targets, checkpoint_path, checkpoint_every, start_position
        )
        position = start_position
        chunk_log: list = []
        try:
            for start in range(0, len(items), self.chunk_size):
                observing = _obs_registry.enabled
                started = time.perf_counter() if observing else 0.0
                sl = slice(start, start + self.chunk_size)
                for target in targets:
                    target.feed_batch(items[sl], deltas[sl])
                position = start_position + min(
                    start + self.chunk_size, len(items)
                )
                if observing:
                    chunk_log.append(
                        (started, time.perf_counter() - started, position,
                         position - start_position - start)
                    )
                if on_chunk is not None:
                    on_chunk(position)
                if writer is not None:
                    writer.maybe(position)
        finally:
            _flush_chunks("drive_arrays", chunk_log)
        if writer is not None and writer.last_position != position:
            writer.flush(position)
        return algorithms

    # -- games --------------------------------------------------------------

    def play(
        self,
        algorithm: StreamAlgorithm,
        adversary: WhiteBoxAdversary,
        ground_truth: GroundTruth,
        validator: Validator,
        max_rounds: int,
        query_every: int = 1,
        record_failures: int = 16,
        retain_history: Optional[int] = 64,
        probe_items=None,
    ) -> GameResult:
        """Play the white-box game, batching when the adversary permits.

        Adaptive adversaries (``adversary.adaptive`` is ``True``, the safe
        default) need the state view after *every* update, so the engine
        degrades to chunk size 1 by delegating to
        :func:`repro.core.game.run_game` unchanged.  Non-adaptive adversaries
        committed to their stream up front; their updates are pulled in
        chunks and batch-fed to the algorithm and the ground truth.

        Batched-mode semantics (explicitly coarser than ``run_game``):

        * Validation happens at chunk boundaries, at the first boundary
          where at least ``query_every`` rounds have elapsed since the last
          check (plus always at stream end).  ``query_every`` finer than the
          chunk size is therefore coarsened to the chunk size, and
          ``total_failures`` counts failed *checkpoints*, not failed rounds
          -- don't compare it numerically against a per-round game.
        * ``probe_items`` (either mode) turns every validation checkpoint
          into a batched point-query round as well: one vectorized
          ``estimate_batch(probe_items)`` call per checkpoint, recorded in
          ``checkpoint_estimates`` -- the batched per-round query path,
          answering exactly what per-item ``estimate`` calls would.
        * ``retain_history`` does not apply: no per-round history is
          accumulated (the adversary declared it reads none).  Instead the
          result carries the array-native transcript: ``chunk_rounds`` /
          ``chunk_space_bits`` sample space at every chunk boundary and
          ``checkpoint_rounds`` / ``checkpoint_answers`` record each
          validated answer (see :meth:`GameResult.trace_arrays`).
        """
        if getattr(adversary, "adaptive", True) or self.chunk_size == 1:
            return run_game(
                algorithm,
                adversary,
                ground_truth,
                validator,
                max_rounds,
                query_every=query_every,
                record_failures=record_failures,
                retain_history=retain_history,
                probe_items=probe_items,
            )
        return self._play_batched(
            algorithm,
            adversary,
            ground_truth,
            validator,
            max_rounds,
            query_every,
            record_failures,
            probe_items,
        )

    def _play_batched(
        self,
        algorithm: StreamAlgorithm,
        adversary: WhiteBoxAdversary,
        ground_truth: GroundTruth,
        validator: Validator,
        max_rounds: int,
        query_every: int,
        record_failures: int,
        probe_items=None,
    ) -> GameResult:
        """Chunked game loop for adversaries that committed to their stream."""
        if query_every <= 0:
            raise ValueError(f"query_every must be positive, got {query_every}")
        result = GameResult(rounds_played=0)
        failure_count = 0
        round_index = 0
        last_checked = 0
        last_update = None
        ended = False

        def validate() -> None:
            nonlocal failure_count, last_checked
            last_checked = round_index
            answer = algorithm.query()
            truth = ground_truth.truth()
            result.final_answer = answer
            result.final_truth = truth
            result.checkpoint_rounds.append(round_index)
            result.checkpoint_answers.append(answer)
            if probe_items is not None:
                result.checkpoint_estimates.append(
                    algorithm.estimate_batch(probe_items)
                )
            if not validator(answer, truth):
                failure_count += 1
                if len(result.failures) < record_failures:
                    result.failures.append(
                        RoundRecord(
                            round_index - 1, last_update, answer, truth, False
                        )
                    )
        # Non-adaptive adversaries may expose their committed stream as a
        # slice; otherwise we pull per-round with history-free views.
        committed = getattr(adversary, "committed_updates", None)
        chunk_log: list = []

        while round_index < max_rounds and not ended:
            want = min(self.chunk_size, max_rounds - round_index)
            if committed is not None:
                pending = list(committed(round_index, want))
                if len(pending) < want:
                    result.adversary_gave_up = True
                    ended = True
            else:
                pending = []
                while len(pending) < want:
                    view = _blind_view(round_index + len(pending))
                    try:
                        update = adversary.next_update(view)
                    except BudgetExhausted:
                        result.budget_exhausted = True
                        ended = True
                        break
                    if update is None:
                        result.adversary_gave_up = True
                        ended = True
                        break
                    pending.append(update)
            if not pending:
                break

            ingest_batch = getattr(ground_truth, "ingest_batch", None)
            observing = _obs_registry.enabled
            started = time.perf_counter() if observing else 0.0
            try:
                items, deltas = updates_to_arrays(pending)
            except OverflowError:
                for update in pending:
                    ground_truth.ingest(update)
                    algorithm.feed(update)
            else:
                if ingest_batch is not None:
                    ingest_batch(items, deltas)
                else:
                    for update in pending:
                        ground_truth.ingest(update)
                algorithm.feed_batch(items, deltas)
            round_index += len(pending)
            if observing:
                chunk_log.append(
                    (started, time.perf_counter() - started, round_index,
                     len(pending))
                )
            result.rounds_played = round_index
            last_update = pending[-1]

            at_end = ended or round_index >= max_rounds
            if round_index - last_checked >= query_every or at_end:
                validate()
            space = algorithm.space_bits()
            result.final_space_bits = space
            result.max_space_bits = max(result.max_space_bits, space)
            # Array-native game transcript: one (position, space) sample per
            # chunk; answers were sampled inside validate().
            result.chunk_rounds.append(round_index)
            result.chunk_space_bits.append(space)

        _flush_chunks("game", chunk_log)
        # The stream may have ended on an empty pull after unvalidated
        # chunks; always leave with a fresh final answer.
        if round_index > last_checked:
            validate()
        result.total_failures = failure_count
        return result


def _chunked(updates, size: int):
    """Yield ``updates`` in lists of at most ``size`` (sequence or iterable)."""
    if hasattr(updates, "__len__") and hasattr(updates, "__getitem__"):
        for start in range(0, len(updates), size):
            yield updates[start : start + size]
        return
    iterator = iter(updates)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _blind_view(round_index: int):
    """A history-free view for non-adaptive adversaries inside a chunk.

    They declared (``adaptive = False``) that their choices never read
    states/outputs, so only ``round_index`` is populated.
    """
    from repro.core.adversary import AdversaryView

    return AdversaryView(
        round_index=round_index, updates=(), states=(), outputs=()
    )
