"""Process-parallel shard workers: real parallelism past the GIL.

The PR-2 sharded engine scatters per-shard sub-chunks on threads, which
overlaps the numpy kernels (they release the GIL) but serializes every
Python-bound update path -- AMS sign evaluation, exact-dict maintenance,
KMV heap work.  :class:`ProcessShardPool` moves each shard replica into
its own ``multiprocessing`` worker process:

* **chunk data out** travels through *two* shared-memory blocks per
  worker (each a ``(2, capacity)`` int64 array holding items and
  deltas), so scatter never pickles update arrays -- the parent writes,
  the worker copies out, and a pipe message carries only the count and
  the buffer index;
* **state back** travels as wire-format snapshots
  (:mod:`repro.distributed.codec`): fan-in asks every worker for
  ``snapshot()`` bytes and the parent rebuilds the merged sketch via
  ``restore`` + ``merge_snapshot``, construction-fingerprint-verified --
  exactly the multi-host merge path, exercised on one host.

**Double-buffered pipelined scatter.**  ``scatter`` no longer waits for
worker acknowledgements (the PR-3 barrier): it writes each sub-chunk
into whichever of the shard's two blocks is free, dispatches, and
returns.  A block is reused only after the acknowledgement for its
*previous* feed has been drained (at most two feeds in flight per
shard), so chunk ``t+1``'s partition and copy in the parent overlap
chunk ``t``'s scatter work in every worker.  In-order delivery per shard
is the pipe's FIFO; every state-reading operation (snapshots, loads,
restore, the per-update path, close) drains all outstanding
acknowledgements first, so observable state is always a chunk-boundary
state and the merged result stays bit-identical to the serial backend.
Worker failures surface at the next synchronization point -- a later
``scatter`` needing the buffer, or the flush before a query -- with all
other pipes drained first, exactly like the old barrier's error path.

Workers are started with the ``fork`` start method: each child inherits
its already-constructed replica (factories never need to be picklable,
matching the thread backend's contract).  On platforms without ``fork``
the pool raises -- callers keep the thread backend there.

**Supervision.**  With ``supervise=True`` the pool heals worker *deaths*
(SIGKILL, OOM, a crashed interpreter -- anything that closes the pipe or
flips ``is_alive()``) instead of failing the run.  Recovery is built on
the same state protocol as fan-in: each shard keeps a
:class:`~repro.distributed.replay.ReplayLog` -- a **baseline** (the
replica's wire-format snapshot, refreshed every ``snapshot_every``
chunks and for free on every ``snapshots()`` fan-in) plus a **journal**
of the feeds dispatched since that baseline.  A death detected at any
synchronization point forks a fresh worker from the untouched parent
template, restores the baseline, and replays the journal synchronously
-- the rebuilt replica is bit-exact, so the merged result is identical
to a fault-free run.  Respawns are counted (``restarts`` per shard and
the ``repro_worker_restarts_total`` counter) and ``recovering()`` is
visible pipe-free so readiness probes flip during the rebuild.  Only
transport-level deaths are supervised: a worker that *reports* an error
(a sketch rejecting an update) still fails the run -- replaying the same
bad update would crash-loop the shard forever.

Exactness: every replica still sees exactly the sub-stream of its items
in stream order (one pipe per worker, drained in FIFO order; a block is
never overwritten while its feed is unacknowledged), and the merge
protocol is byte-identical to the in-process one, so
``ShardedAlgorithm(backend="process").merged()`` is bit-identical to the
single-engine state -- the process-backend equivalence tests enforce it
against every mergeable sketch family.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithm import SerializableSketch, StreamAlgorithm
from repro.core.stream import Update
from repro.distributed.replay import ReplayLog
from repro.obs import (
    PHASE_SECONDS_HELP,
    PHASE_SECONDS_METRIC,
    TIME_BUCKETS,
    WORKER_RESTARTS_METRIC,
    get_registry as _get_obs_registry,
    get_tracer as _get_obs_tracer,
    reset as _obs_reset,
)

__all__ = ["ProcessShardPool", "WorkerDied"]

_obs_registry = _get_obs_registry()
_obs_tracer = _get_obs_tracer()
_obs_feeds = _obs_registry.counter(
    "repro_pool_feeds_total",
    "Sub-chunk feeds dispatched to process-shard workers",
)
_obs_remaps = _obs_registry.counter(
    "repro_pool_remaps_total",
    "Shared-memory capacity growths (block remaps) in process pools",
)
_obs_restarts = _obs_registry.counter(
    WORKER_RESTARTS_METRIC,
    "Supervised shard-worker respawns (baseline restore + journal replay)",
)
_obs_phase_seconds = _obs_registry.histogram(
    PHASE_SECONDS_METRIC, PHASE_SECONDS_HELP, buckets=TIME_BUCKETS
)

#: Initial shared-memory capacity (updates per block); grows on demand.
DEFAULT_BUFFER_CAPACITY = 1 << 14

#: Blocks (and therefore feeds in flight) per worker.
_BUFFERS_PER_SHARD = 2

#: Default per-shard baseline snapshot cadence under supervision: a new
#: baseline every this many journaled feeds bounds replay work (and
#: journal memory) without snapshotting every chunk.
DEFAULT_SNAPSHOT_EVERY = 32


class WorkerDied(RuntimeError):
    """A shard worker's transport died (pipe EOF / broken pipe / SIGKILL).

    Distinct from a worker-*reported* error (which stays a plain
    :class:`RuntimeError`): only transport deaths are safe to heal by
    respawn-and-replay -- a reported sketch error would recur on replay.
    """


def _shard_worker(
    connection, shm_names: Sequence[str], capacity: int, sketch: StreamAlgorithm
) -> None:
    """One worker: drain commands in FIFO order against the local replica.

    Commands (tuples; first element is the verb):

    * ``("feed", count, buf)`` -- consume ``count`` updates from shared
      block ``buf`` (0 or 1), ack ``("ok",)``;
    * ``("feed_obj", pairs)`` -- per-update path for beyond-int64
      coefficients (exact Python ints over the pipe), ack ``("ok",)``;
    * ``("remap", names, capacity)`` -- switch to a grown pair of shared
      blocks, ack;
    * ``("snapshot",)`` -- reply ``("snap", bytes)``;
    * ``("restore", data)`` -- replace replica state from snapshot bytes
      (checkpoint recovery), ack;
    * ``("load",)`` -- reply ``("load", updates_processed)``;
    * ``("obs",)`` -- reply ``("obs", snapshot_dict)`` with the worker's
      metrics-registry snapshot (the telemetry analogue of fan-in);
    * ``("stop",)`` -- ack and exit.

    The row layout of each shared block is ``(2, capacity)`` with the
    capacity carried explicitly (at start and in every remap): deriving
    it from ``shm.size`` would break on platforms that round shared
    segments up to page multiples (macOS), silently misaligning the
    deltas row against the parent's view.

    A command that raises (e.g. a sketch rejecting an invalid update)
    replies ``("error", message)`` and kills the worker: a failed feed
    may have been partially applied, so the replica can no longer claim
    exactness -- the parent surfaces the original error and deployments
    recover from the last checkpoint.
    """
    # The fork-inherited registry still holds the parent's counts; clear
    # it so this worker's snapshots carry only worker-side activity
    # (parent + worker snapshots must partition the work under merge).
    _obs_reset()
    shms = [shared_memory.SharedMemory(name=name) for name in shm_names]
    try:
        while True:
            message = connection.recv()
            verb = message[0]
            try:
                if verb == "feed":
                    count, buf = message[1], message[2]
                    block = np.ndarray(
                        (2, capacity), dtype=np.int64, buffer=shms[buf].buf
                    )
                    sketch.feed_batch(
                        block[0, :count].copy(), block[1, :count].copy()
                    )
                    connection.send(("ok",))
                elif verb == "feed_obj":
                    for item, delta in message[1]:
                        sketch.feed(Update(item, delta))
                    connection.send(("ok",))
                elif verb == "remap":
                    for shm in shms:
                        shm.close()
                    shms = [
                        shared_memory.SharedMemory(name=name)
                        for name in message[1]
                    ]
                    capacity = message[2]
                    connection.send(("ok",))
                elif verb == "snapshot":
                    connection.send(("snap", sketch.snapshot()))
                elif verb == "restore":
                    sketch.restore(message[1])
                    connection.send(("ok",))
                elif verb == "load":
                    connection.send(("load", sketch.updates_processed))
                elif verb == "obs":
                    connection.send(("obs", _obs_registry.snapshot()))
                elif verb == "stop":
                    connection.send(("ok",))
                    return
                else:  # pragma: no cover - protocol bug guard
                    raise RuntimeError(f"unknown worker command {verb!r}")
            except Exception as exc:
                connection.send(("error", f"{type(exc).__name__}: {exc}"))
                raise
    except (EOFError, OSError, KeyboardInterrupt):  # parent died; exit quietly
        pass
    finally:
        for shm in shms:
            shm.close()


class ProcessShardPool:
    """Owns one worker process (and two shared blocks) per shard replica.

    Parameters
    ----------
    shards:
        The constructed replicas.  Each worker inherits its replica at
        fork time; the parent's copies stay untouched and serve only as
        templates for fan-in (``ShardedAlgorithm.merged`` restores
        snapshots into forks of shard 0).
    buffer_capacity:
        Initial per-block shared-memory capacity in updates; both of a
        worker's blocks grow automatically when a scatter part exceeds
        them.
    supervise:
        Heal worker *deaths* (pipe EOF, ``is_alive()`` false) by
        respawning from the parent template, restoring the last baseline
        snapshot, and replaying the journal of feeds since -- bit-exact.
        Worker-reported errors still fail the run (replay would recur).
    snapshot_every:
        Baseline snapshot cadence under supervision, in journaled feeds
        per shard: smaller = cheaper replay after a death, larger =
        fewer snapshot round-trips during healthy runs.
    """

    def __init__(
        self,
        shards: Sequence[StreamAlgorithm],
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        *,
        supervise: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        if not shards:
            raise ValueError("ProcessShardPool needs at least one shard")
        if buffer_capacity <= 0:
            raise ValueError(
                f"buffer_capacity must be positive, got {buffer_capacity}"
            )
        if snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        if not isinstance(shards[0], SerializableSketch):
            raise TypeError(
                f"{type(shards[0]).__name__} is not a SerializableSketch; "
                "process-backend fan-in needs wire-format snapshots"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process backend requires the 'fork' start method (so shard "
                "factories need not be picklable); use backend='thread' on "
                "this platform"
            )
        self._context = multiprocessing.get_context("fork")
        self.num_shards = len(shards)
        self.supervise = bool(supervise)
        self.snapshot_every = snapshot_every
        #: Completed respawns per shard (functional accounting: always
        #: counts, unlike the kill-switchable registry counter).
        self.restarts = [0] * self.num_shards
        self._recovering = [False] * self.num_shards
        #: The untouched replicas: respawn templates and fan-in scaffolding.
        self._templates = list(shards)
        #: Per-shard baseline plus journal (supervised pools only); an
        #: entry is ``("arrays", items, deltas)`` or ``("pairs", pairs)``.
        self._logs: list[ReplayLog] = []
        self._capacities = [buffer_capacity] * self.num_shards
        self._blocks: list[list[shared_memory.SharedMemory]] = []
        self._connections = []
        self._processes = []
        #: Unacknowledged feeds per shard (0..2) and the next block to use.
        self._outstanding = [0] * self.num_shards
        self._next_buf = [0] * self.num_shards
        self._closed = False
        try:
            for shard in range(self.num_shards):
                self._blocks.append(self._create_block_pair(buffer_capacity))
                connection, process = self._start_process(shard)
                self._connections.append(connection)
                self._processes.append(process)
            if self.supervise:
                # Workers inherit their replicas at fork, so the template
                # snapshot *is* each worker's initial state.
                self._logs = [
                    ReplayLog(template.snapshot()) for template in self._templates
                ]
        except BaseException:
            self.close()
            raise

    def _start_process(self, shard: int):
        """Fork one worker for ``shard`` against its current blocks."""
        parent_end, worker_end = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker,
            args=(
                worker_end,
                [block.name for block in self._blocks[shard]],
                self._capacities[shard],
                self._templates[shard],
            ),
            daemon=True,
        )
        process.start()
        worker_end.close()
        return parent_end, process

    @staticmethod
    def _create_block_pair(capacity: int) -> list[shared_memory.SharedMemory]:
        """Create one worker's two blocks; leak-free on partial failure."""
        pair: list[shared_memory.SharedMemory] = []
        try:
            for _ in range(_BUFFERS_PER_SHARD):
                pair.append(
                    shared_memory.SharedMemory(
                        create=True, size=2 * 8 * capacity
                    )
                )
        except BaseException:
            for block in pair:
                block.close()
                block.unlink()
            raise
        return pair

    # -- ack plumbing ------------------------------------------------------

    def _expect(self, shard: int, verb: str):
        try:
            reply = self._connections[shard].recv()
        except EOFError:
            raise WorkerDied(
                f"shard worker {shard} died (pipe closed); state is lost -- "
                "resume from the last checkpoint"
            ) from None
        except OSError as exc:
            # A worker SIGKILLed with unread data still queued on its end
            # of the pipe surfaces as ECONNRESET, not a clean EOF.  It is
            # the same death either way; normalizing here keeps every
            # recovery path (drain, scatter, sync round-trips) on the one
            # WorkerDied contract instead of leaking a raw transport
            # error past the ack accounting.
            raise WorkerDied(
                f"shard worker {shard} died mid-reply ({exc}); state is "
                "lost -- resume from the last checkpoint"
            ) from None
        if reply[0] == "error":
            raise RuntimeError(
                f"shard worker {shard} failed and shut down ({reply[1]}); "
                "its replica state is no longer exact -- resume from the "
                "last checkpoint"
            )
        if reply[0] != verb:
            raise RuntimeError(
                f"shard worker {shard}: expected {verb!r}, got {reply[0]!r}"
            )
        return reply

    # -- supervision -------------------------------------------------------

    def _recover_or_raise(self, shard: int, exc: Exception) -> None:
        """Respawn ``shard`` after a transport death, or re-raise.

        ``OSError`` (a send into a dead worker's pipe) is normalized to
        :class:`WorkerDied` first.  Unsupervised pools, pools mid-close,
        and deaths *during* a recovery replay all propagate -- the last
        guard is what keeps a crash-looping worker from recursing.
        """
        if isinstance(exc, OSError):
            exc = WorkerDied(f"shard worker {shard} died ({exc})")
        if not self.supervise or self._closed or self._recovering[shard]:
            raise exc
        self._recover(shard, exc)

    def _recover(self, shard: int, cause: Exception) -> None:
        """Respawn one dead worker and rebuild its replica bit-exactly.

        Fork a fresh worker from the untouched parent template (same
        shared blocks -- the dead process can no longer write them),
        restore the last baseline snapshot, then replay the journal of
        feeds dispatched since that baseline, synchronously and in
        order.  Construction-state fingerprints make the restore exact;
        in-order replay makes the replica state exact.  A second death
        during the replay propagates (no nested recovery).
        """
        observing = _obs_registry.enabled
        started = time.perf_counter() if observing else 0.0
        self._recovering[shard] = True
        try:
            try:
                self._connections[shard].close()
            except OSError:  # pragma: no cover - already torn down
                pass
            process = self._processes[shard]
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung, not dead
                process.terminate()
                process.join(timeout=5)
            self._outstanding[shard] = 0
            self._next_buf[shard] = 0
            connection, process = self._start_process(shard)
            self._connections[shard] = connection
            self._processes[shard] = process
            log = self._logs[shard]
            connection.send(("restore", log.baseline))
            self._expect(shard, "ok")
            for entry in log.entries:
                if entry[0] == "arrays":
                    self._feed_block_sync(shard, entry[1], entry[2])
                else:
                    connection.send(("feed_obj", entry[1]))
                    self._expect(shard, "ok")
            self.restarts[shard] += 1
            if observing:
                _obs_restarts.add(1, shard=str(shard))
                duration = time.perf_counter() - started
                _obs_phase_seconds.observe(duration, phase="pool.recover")
                _obs_tracer.record(
                    "pool.recover",
                    started,
                    duration,
                    shard=shard,
                    replayed=len(log.entries),
                )
        finally:
            self._recovering[shard] = False

    def _feed_block_sync(self, shard: int, items, deltas) -> None:
        """One synchronous block feed (recovery replay path).

        Capacity never shrinks and every journaled part passed
        ``_ensure_capacity`` when first dispatched, so replayed parts
        always fit the current blocks.
        """
        count = len(items)
        buf = self._next_buf[shard]
        block = np.ndarray(
            (2, self._capacities[shard]),
            dtype=np.int64,
            buffer=self._blocks[shard][buf].buf,
        )
        block[0, :count] = items
        block[1, :count] = deltas
        self._connections[shard].send(("feed", count, buf))
        self._expect(shard, "ok")
        self._next_buf[shard] = buf ^ 1

    def _journal_feed(self, shard: int, entry: tuple) -> None:
        """Record one dispatched feed, first rebasing the shard's log on a
        fresh snapshot once ``snapshot_every`` feeds are journaled.  A
        snapshot covers only feeds already acknowledged, so the entry
        about to be dispatched goes into the fresh journal."""
        log = self._logs[shard]
        if len(log.entries) >= self.snapshot_every:
            self.snapshot(shard)
        log.entries.append(entry)

    def _sync_request(self, shard: int, message: tuple, verb: str):
        """One synchronous round-trip, respawning once on a dead worker."""
        try:
            self._connections[shard].send(message)
            return self._expect(shard, verb)
        except (WorkerDied, OSError) as exc:
            self._recover_or_raise(shard, exc)
            self._connections[shard].send(message)
            return self._expect(shard, verb)

    def recovering(self) -> bool:
        """Whether any shard is mid-respawn (pipe-free; probe-safe)."""
        return any(self._recovering)

    def worker_pids(self) -> list[Optional[int]]:
        """Per-worker process ids (fault injection targets them directly)."""
        return [process.pid for process in self._processes]

    def _drain_shard(self, shard: int) -> Optional[Exception]:
        """Drain every outstanding feed ack of one shard.

        Returns the failure (instead of raising) so callers can finish
        draining the *other* shards first: leaving a queued ``("ok",)``
        unread would let a later command's ack check return stale before
        its worker copied a chunk out of shared memory -- silent
        divergence.  Under supervision a transport death recovers in
        place (respawn + replay) and counts as success; worker-reported
        errors still fail.  After an unrecovered failure the shard's
        pipe is dead; its outstanding count is zeroed so cleanup can
        proceed.
        """
        try:
            while self._outstanding[shard] > 0:
                self._outstanding[shard] -= 1
                self._expect(shard, "ok")
        except WorkerDied as exc:
            self._outstanding[shard] = 0
            try:
                self._recover_or_raise(shard, exc)
            except RuntimeError as failure:
                return failure
            return None
        except RuntimeError as exc:
            self._outstanding[shard] = 0
            return exc
        return None

    def flush(self) -> None:
        """Drain all outstanding feed acks (the pipeline's sync point).

        Every state-reading operation calls this first, so queries only
        ever observe chunk-boundary states.  Raises the first worker
        failure -- after draining every other shard's pipe.
        """
        observing = _obs_registry.enabled and any(self._outstanding)
        started = time.perf_counter() if observing else 0.0
        failures = []
        for shard in range(self.num_shards):
            failure = self._drain_shard(shard)
            if failure is not None:
                failures.append(failure)
        if observing:
            duration = time.perf_counter() - started
            _obs_phase_seconds.observe(duration, phase="pool.scatter.drain")
            _obs_tracer.record("pool.scatter.drain", started, duration)
        if failures:
            raise failures[0]

    # -- scatter -----------------------------------------------------------

    def _ensure_capacity(self, shard: int, count: int) -> None:
        if count <= self._capacities[shard]:
            return
        capacity = self._capacities[shard]
        while capacity < count:
            capacity *= 2
        # The worker must be idle before its blocks are swapped out.
        failure = self._drain_shard(shard)
        if failure is not None:
            raise failure
        grown = self._create_block_pair(capacity)
        try:
            self._connections[shard].send(
                ("remap", [block.name for block in grown], capacity)
            )
            self._expect(shard, "ok")
        except (WorkerDied, OSError) as exc:
            # Reclaim the untracked segments, heal the worker (it comes
            # back on the *old* blocks), then redo the whole growth.
            for block in grown:
                block.close()
                block.unlink()
            self._recover_or_raise(shard, exc)
            self._ensure_capacity(shard, count)
            return
        except BaseException:
            # Not yet tracked in self._blocks -- reclaim the segments
            # here or they leak for the process lifetime.
            for block in grown:
                block.close()
                block.unlink()
            raise
        old = self._blocks[shard]
        self._blocks[shard] = grown
        self._capacities[shard] = capacity
        self._next_buf[shard] = 0
        for block in old:
            block.close()
            block.unlink()
        if _obs_registry.enabled:
            _obs_remaps.add(1, shard=str(shard))

    def scatter(self, parts) -> None:
        """Dispatch per-shard ``(items, deltas)`` parts without a barrier.

        ``parts`` aligns with the shard list (``None`` = no updates for
        that shard this chunk).  Each part is written into the shard's
        free block and dispatched; the call returns as soon as every
        part is in flight, leaving up to two chunks per worker
        unacknowledged -- the caller's next partition/copy overlaps the
        workers' scatter.  A block is reused only after its previous
        feed's ack arrives, so data is never overwritten mid-read.  On
        any worker failure every shard's outstanding acks are drained
        before the first error is raised, so surviving workers' pipes
        stay synchronized.

        A supervised pool journals the parts for replay, so it takes
        ownership of them: the caller must not write to a part's arrays
        afterwards.  ``ShardedAlgorithm.process_batch`` hands over the
        fresh shard-grouped arrays its split makes; only a one-shard
        pool copies, because a one-part split returns the caller's own
        arrays.
        """
        observing = _obs_registry.enabled
        started = time.perf_counter() if observing else 0.0
        ack_wait = 0.0
        fed = 0
        try:
            # Opportunistically consume acks that already arrived: keeps
            # the outstanding counts low and surfaces worker failures as
            # early as the pipe delivers them, without ever blocking.
            for shard in range(self.num_shards):
                try:
                    while self._outstanding[shard] and self._connections[shard].poll(0):
                        self._outstanding[shard] -= 1
                        self._expect(shard, "ok")
                except WorkerDied as exc:
                    self._outstanding[shard] = 0
                    self._recover_or_raise(shard, exc)
            for shard, part in enumerate(parts):
                if part is None:
                    continue
                items, deltas = part
                count = len(items)
                self._ensure_capacity(shard, count)
                if self.supervise:
                    # Journal before any transport: a death at any later
                    # point replays this part along with the rest, so the
                    # recovery paths below can simply skip the dispatch.
                    # A one-shard split hands over the caller's arrays.
                    if self.num_shards == 1:
                        items, deltas = items.copy(), deltas.copy()
                    self._journal_feed(shard, ("arrays", items, deltas))
                if self._outstanding[shard] >= _BUFFERS_PER_SHARD:
                    wait_started = time.perf_counter() if observing else 0.0
                    try:
                        while self._outstanding[shard] >= _BUFFERS_PER_SHARD:
                            self._outstanding[shard] -= 1
                            self._expect(shard, "ok")
                    except WorkerDied as exc:
                        self._outstanding[shard] = 0
                        self._recover_or_raise(shard, exc)
                        if observing:
                            ack_wait += time.perf_counter() - wait_started
                        fed += 1
                        continue  # the replay already delivered this part
                    if observing:
                        ack_wait += time.perf_counter() - wait_started
                buf = self._next_buf[shard]
                block = np.ndarray(
                    (2, self._capacities[shard]),
                    dtype=np.int64,
                    buffer=self._blocks[shard][buf].buf,
                )
                block[0, :count] = items
                block[1, :count] = deltas
                try:
                    self._connections[shard].send(("feed", count, buf))
                except OSError as exc:
                    self._recover_or_raise(shard, exc)
                    fed += 1
                    continue  # the replay already delivered this part
                self._outstanding[shard] += 1
                self._next_buf[shard] = buf ^ 1
                fed += 1
            if observing:
                duration = time.perf_counter() - started
                if fed:
                    _obs_feeds.add(fed)
                _obs_phase_seconds.observe(duration, phase="pool.scatter.feed")
                if ack_wait > 0.0:
                    _obs_phase_seconds.observe(
                        ack_wait, phase="pool.scatter.ack"
                    )
                _obs_tracer.record(
                    "pool.scatter.feed",
                    started,
                    duration,
                    feeds=fed,
                    ack_wait=ack_wait,
                )
        except BaseException as exc:
            # Drain every shard before anything propagates, so surviving
            # pipes stay aligned -- and prefer a drained worker failure
            # (which names the original sketch error and the checkpoint
            # remedy) over a bare transport error like BrokenPipeError
            # from sending to the worker that just died.
            failures = []
            for shard in range(self.num_shards):
                failure = self._drain_shard(shard)
                if failure is not None:
                    failures.append(failure)
            if failures and isinstance(exc, (OSError, EOFError)):
                # Only transport errors are replaced; interrupts and the
                # already-informative RuntimeErrors propagate untouched.
                raise failures[0] from exc
            raise

    def feed_updates(self, shard: int, pairs: list[tuple[int, int]]) -> None:
        """Per-update path (exact Python ints; beyond-int64 coefficients).

        Synchronous: outstanding feeds drain first so the ack stream
        stays aligned, then the updates round-trip through the pipe.
        """
        failure = self._drain_shard(shard)
        if failure is not None:
            raise failure
        if self.supervise:
            self._journal_feed(shard, ("pairs", list(pairs)))
        try:
            self._connections[shard].send(("feed_obj", pairs))
            self._expect(shard, "ok")
        except (WorkerDied, OSError) as exc:
            # A supervised replay already delivered the journaled pairs.
            self._recover_or_raise(shard, exc)

    # -- fan-in ------------------------------------------------------------

    def _broadcast(self, message: tuple, verb: str) -> list[tuple]:
        """Concurrent fan-in round-trip with per-shard death recovery.

        Sends to every worker first (the round-trips overlap), then
        collects in shard order; a dead worker heals in place and its
        request is retried on the fresh process.
        """
        pending: list[Optional[Exception]] = []
        for shard in range(self.num_shards):
            try:
                self._connections[shard].send(message)
                pending.append(None)
            except OSError as exc:
                pending.append(exc)
        results = []
        for shard in range(self.num_shards):
            failure = pending[shard]
            if failure is None:
                try:
                    results.append(self._expect(shard, verb))
                    continue
                except WorkerDied as exc:
                    failure = exc
            self._recover_or_raise(shard, failure)
            self._connections[shard].send(message)
            results.append(self._expect(shard, verb))
        return results

    def snapshots(self) -> list[bytes]:
        """Wire-format snapshots of every replica (concurrent round-trip).

        Flushes the scatter pipeline first: snapshots always observe a
        chunk-boundary state, identical to the serial backend's.  Under
        supervision this is also a free baseline refresh: the collected
        snapshots *are* the new baselines, and the journals clear.
        """
        self.flush()
        data = [reply[1] for reply in self._broadcast(("snapshot",), "snap")]
        for log, snap in zip(self._logs, data):
            log.rebase(snap)
        return data

    def snapshot(self, shard: int) -> bytes:
        """One worker's wire-format snapshot, in one round trip.

        Drains that shard's outstanding feeds first, so the snapshot is
        at a chunk boundary; under supervision it also becomes the
        shard's new baseline.
        """
        failure = self._drain_shard(shard)
        if failure is not None:
            raise failure
        data = self._sync_request(shard, ("snapshot",), "snap")[1]
        if self.supervise:
            self._logs[shard].rebase(data)
        return data

    def restore(self, shard: int, data: bytes) -> None:
        """Replace one worker's replica state from snapshot bytes."""
        failure = self._drain_shard(shard)
        if failure is not None:
            raise failure
        self._sync_request(shard, ("restore", data), "ok")
        if self.supervise:
            self._logs[shard].rebase(data)

    def shard_loads(self) -> list[int]:
        """Updates processed by each worker's replica."""
        self.flush()
        return [reply[1] for reply in self._broadcast(("load",), "load")]

    def workers_alive(self) -> list[bool]:
        """Per-worker process liveness, pipe-free.

        Reads ``Process.is_alive()`` only -- no command round-trip, no
        pipeline flush -- so health probes can run from any thread while
        feeds are in flight without perturbing the ack stream.
        """
        return [process.is_alive() for process in self._processes]

    def metric_snapshots(self) -> list[dict]:
        """Every worker's metrics-registry snapshot (concurrent round-trip).

        The telemetry analogue of :meth:`snapshots`: flushes the scatter
        pipeline first so worker counters sit at a chunk boundary, then
        collects each worker's registry snapshot for
        :func:`repro.obs.merge_snapshots` fan-in.  Workers reset their
        fork-inherited registries at start, so parent and worker
        snapshots partition the work -- merging the parent's snapshot
        with these is bit-identical to the serial backend's registry.
        (Caveat: a respawned worker re-counts its replayed feeds and the
        dead worker's registry is gone, so telemetry equality only holds
        for fault-free runs -- sketch state stays exact regardless.)
        """
        self.flush()
        return [reply[1] for reply in self._broadcast(("obs",), "obs")]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers and release shared memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in range(len(self._connections)):
            # Best-effort drain so the stop ack below is really a stop ack;
            # failures are moot during teardown.
            self._drain_shard(shard)
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for shard, connection in enumerate(self._connections):
            try:
                connection.recv()
            except (EOFError, OSError):
                pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung-worker guard
                process.terminate()
                process.join(timeout=5)
        for pair in self._blocks:
            for block in pair:
                block.close()
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
