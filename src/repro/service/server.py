"""`SketchServer`: the asyncio collector in front of a sketch fleet.

Architecture
------------
One asyncio TCP server accepts many concurrent clients speaking the
:mod:`repro.service.protocol` frame format.  Each connection is one
:class:`~repro.service.protocol.FrameProtocol`, which receives frames
into its staging buffer (or, for a large frame, the frame's own buffer)
and decodes each one as it completes; the connection handler takes the
decoded requests in order.  An update batch costs one copy per array
on the way in -- out of the received frame into a fresh int64 array --
and then goes down the existing
:class:`~repro.parallel.sharded.ShardedStreamEngine` chunk path --
partition, scatter, (optionally) process-pool fan-out.

**Serialization point.**  Every engine operation (feeds from all
connections, queries, snapshots) runs on one engine thread, which takes
``(future, fn, args)`` jobs in FIFO order from a
:class:`queue.SimpleQueue` and settles each job's future with one
``call_soon_threadsafe`` -- one wake of the event loop per job.  So the
engine sees a linear history exactly like a local driver -- queries
observe chunk-boundary states, and the merged state stays bit-identical
to a serial run over the concatenation of all clients' updates in the
order the thread absorbed them (the sketches' update rules commute, so
*any* interleaving of client sub-streams lands in the same final state).
A request cancelled before the thread takes its job never runs.  While
the engine thread scatters chunk ``t``, the event loop keeps reading
chunk ``t+1`` off other sockets -- the same produce/scatter overlap
:func:`repro.parallel.ingest` pipelines, here fed by the network.

One answer is given off the engine thread: a ``snapshot`` request
whose ``unless`` equals the current state version ``(epoch,
mutations)`` gets the version alone straight from the event loop.  It
stays linearizable because the engine thread bumps the mutation count
*before* it changes any state (a feed's apply, a ``load_snapshot``), and
a feed is acked only after its apply returns.  So a version a client
holds from a reply, or predicts from its own acked feeds, is never one
whose apply is still running: while an apply runs the count is already
past it, the check mismatches, and it queues behind the apply on the
engine thread as every other request does.  A matching check takes no
engine slot, so ``queue_deadline`` never sheds it.

**Backpressure.**  At most ``queue_depth`` engine operations may be
queued for the engine thread at once (an :class:`asyncio.Semaphore`
guards its job queue); beyond that, connection handlers stop taking
requests, each connection's reader pauses once its decoded backlog
passes :data:`~repro.service.protocol.PAUSE_BYTES`, and the kernel's TCP
flow control pushes back on the clients -- a slow sketch never buffers
an unbounded stream in user space.

**Liveness & monitoring.**  ``stats`` / ``ping`` ops expose the
operational counters a deployed randomness-bearing component needs
(uptime, per-connection and aggregate update/query/error counts, seconds
since the last absorbed batch, checkpoint positions) in the spirit of
the beacon liveness/monitoring design this service's threat model
inherits -- an estimate-drift monitor polls ``stats`` and ``estimate``
without touching the ingest path.  The counters themselves live in the
obs metrics registry (:mod:`repro.obs`): ``ServerStats`` /
``ConnectionStats`` are thin views over labeled registry series, and the
``metrics`` op returns the fleet-merged registry snapshot (parent plus
process-backend workers) with its Prometheus text exposition -- the
``stats`` payload and the exposition reconcile exactly because they
render the same instruments.

**Checkpointing.**  ``checkpoint_path`` arms the same chunk-boundary
:class:`~repro.distributed.checkpoint.CheckpointWriter` policy the
ingest front-end uses, over the *merged* fleet state; a ``checkpoint``
op forces a write.  A restarted server resumes by restoring the
checkpoint snapshot -- over the wire via a ``load_snapshot`` request or
locally with ``resume_path`` -- after which reconnecting clients replay
only the tail (see ``tests/test_service.py``'s restart round-trip).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import queue
import secrets
import threading
import time
from typing import Callable, Optional

import numpy as np

from repro import __version__
from repro.core.algorithm import StreamAlgorithm
from repro.distributed.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointWriter,
    resume_from,
)
from repro.distributed.codec import (
    FingerprintMismatch,
    _parse_envelope,
    construction_fingerprint,
    snapshot_class_name,
)
from repro.obs import (
    EXPOSITION_CONTENT_TYPE,
    RegistryStatsBase,
    get_registry as _get_obs_registry,
    get_tracer as _get_obs_tracer,
    phase_histogram as _obs_phase_histogram,
    render_prometheus,
)
from repro.parallel.partition import UniversePartitioner
from repro.parallel.sharded import ShardedStreamEngine
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameProtocol,
    ProtocolError,
    SequenceGap,
    ServerBusy,
    make_error_reply,
    make_reply,
    pack_array,
    sanitize_value,
)

__all__ = ["ConnectionStats", "ServerStats", "SketchServer"]

_obs_registry = _get_obs_registry()
_obs_tracer = _get_obs_tracer()
_obs_request_seconds = _obs_phase_histogram().bind(phase="service.request")

#: Distinguishes the ``server=`` label when several servers share one
#: process (the coordinator tests host a whole fleet in-process).
_SERVER_SEQ = itertools.count()

#: Seed of a server's default partitioner.  A coordinator cuts the
#: universe with a seed-0 partitioner, so a seed-0 cut behind it would
#: only see items whose top hash bits already name the server: with
#: power-of-two widths every server would feed just the shards whose
#: bits match its own, leaving the rest idle.  Any other seed makes the
#: two cuts independent.
_SERVER_PARTITION_SEED = 1

#: Failed sequenced feeds remembered per client.  A client resends only
#: its unacknowledged window (``DEFAULT_WINDOW`` frames by default), so
#: the newest few cover every resend.
_FAILED_FEEDS_KEPT = 64


def _run_engine(jobs: queue.SimpleQueue, loop: asyncio.AbstractEventLoop) -> None:
    """The engine thread: run each queued job in order until ``None``,
    settling its future on the loop with one thread-safe call -- with
    the job's result, or the exception it raised, as an executor would.
    A job whose future is cancelled before the thread takes it never
    runs."""
    while (job := jobs.get()) is not None:
        future, fn, args = job
        if future.cancelled():
            continue
        try:
            outcome, failed = fn(*args), False
        except BaseException as exc:
            outcome, failed = exc, True
        loop.call_soon_threadsafe(_settle, future, outcome, failed)
        del job, future, fn, args, outcome  # hold nothing until the next job


def _settle(future: asyncio.Future, outcome, failed: bool) -> None:
    if future.cancelled():  # the request gave up while the job ran
        return
    if failed:
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


class ConnectionStats(RegistryStatsBase):
    """Per-connection counters (reported by the ``stats`` op).

    The counter fields are live views over per-connection label series in
    the obs registry (``repro_connection_*_total{server=,connection=}``);
    mutate them through :meth:`bump`.  The server :meth:`dispose`\\ s the
    label series when the connection closes, bounding cardinality.
    """

    _COUNTERS = {
        "frames": (
            "repro_connection_frames_total",
            "Frames received per open service connection",
        ),
        "updates": (
            "repro_connection_updates_total",
            "Updates absorbed per open service connection",
        ),
        "queries": (
            "repro_connection_queries_total",
            "Queries answered per open service connection",
        ),
        "errors": (
            "repro_connection_errors_total",
            "Errors per open service connection",
        ),
    }

    def __init__(
        self,
        peer: str = "",
        opened_at: float = 0.0,
        *,
        server: str = "srv?",
        connection: str = "0",
    ) -> None:
        self._init_metrics({"server": server, "connection": connection})
        self.peer = peer
        self.opened_at = opened_at


class ServerStats(RegistryStatsBase):
    """Aggregate liveness/monitoring counters for one server.

    Counter fields are live views over ``repro_service_*{server=}``
    series in the obs registry -- the ``stats`` payload and the
    ``metrics`` exposition therefore reconcile exactly, being two
    renderings of the same instruments.  :meth:`bump` is the only
    mutation; assigning a counter field raises :class:`AttributeError`.
    """

    _COUNTERS = {
        "connections_total": (
            "repro_service_connections_total",
            "Connections accepted since server start",
        ),
        "frames": (
            "repro_service_frames_total",
            "Request frames received",
        ),
        "updates": (
            "repro_service_updates_total",
            "Updates absorbed through feed requests",
        ),
        "queries": (
            "repro_service_queries_total",
            "Query-type requests answered",
        ),
        "errors": (
            "repro_service_errors_total",
            "Requests that failed (application or framing errors)",
        ),
        "checkpoints": (
            "repro_service_checkpoints_total",
            "Checkpoints written by the server",
        ),
        "busy": (
            "repro_service_busy_total",
            "Requests shed with a retryable busy reply (queue deadline)",
        ),
    }
    _GAUGES = {
        "connections_open": (
            "repro_service_connections_open",
            "Currently open connections",
        ),
    }

    def __init__(self, started_at: float = 0.0, *, server: str = "srv?") -> None:
        self._init_metrics({"server": server})
        self.started_at = started_at
        self.last_feed_at = 0.0
        #: Open connections' stats, keyed by a monotonically increasing id.
        self.connections: dict = {}


class SketchServer:
    """Asyncio TCP collector feeding one sharded sketch fleet.

    Parameters
    ----------
    factory:
        Zero-argument callable building one identically-seeded replica
        (the :class:`ShardedStreamEngine` contract).
    num_shards / backend / chunk_size / partitioner:
        Passed to :class:`ShardedStreamEngine` (``backend="process"``
        puts a worker-process fleet behind the socket).  The default
        partitioner is seeded apart from the seed-0 one a
        :class:`~repro.service.coordinator.SketchCoordinator` routes
        with, so a server behind a coordinator still spreads its part of
        the universe over all of its shards.  The merged state, and so
        every snapshot the server ships, does not depend on the cut.
    host / port:
        Listen address; port 0 picks a free port (read ``server.port``
        after :meth:`start`).
    queue_depth:
        Bound on engine operations queued for (or running on) the
        engine thread -- the service-side backpressure knob.
    queue_deadline:
        Graceful degradation: when set, a request that cannot claim an
        engine slot within this many seconds is *shed* with a retryable
        :class:`~repro.service.protocol.ServerBusy` error instead of
        waiting forever -- the request never touches the engine, so
        resending it is safe (and sequenced feeds stay exactly-once).
        ``None`` (the default) keeps the original unbounded wait, where
        TCP flow control alone pushes back.  A ``snapshot`` check at
        the current version is answered on the event loop and claims no
        slot, so it is never shed.
    supervise / snapshot_every:
        Passed to :class:`ShardedStreamEngine`: ``supervise=True`` (the
        default here -- a network service should outlive its workers)
        arms the process backend's supervised respawn, with a per-worker
        baseline snapshot refreshed every ``snapshot_every`` journaled
        feeds.  Ignored by the serial backend.
    max_frame:
        Per-frame byte cap (oversized frames close the connection).
    checkpoint_path / checkpoint_every / checkpoint_keep /
    start_position:
        The ingest/drive checkpoint convention, applied to the merged
        fleet state at batch boundaries; ``checkpoint_keep`` retains
        that many rotated predecessors of the checkpoint file so a
        torn head write can fall back to the newest verifiable one.
    resume_path:
        Restore this checkpoint file into the fleet before serving
        (sets the stream position; equivalent to a client-driven
        ``load_snapshot``).
    gateway_port:
        When given (0 picks a free port), :meth:`start` also binds an
        :class:`~repro.obs.gateway.ObservabilityGateway` on the
        server's own event loop (read ``server.gateway.port`` after
        start).  Its ``/metrics`` and ``/alerts`` providers run on
        the engine thread, so scrapes serialize with feeds exactly
        like the ``metrics`` op; ``/healthz`` answers loop-side without
        touching the engine (liveness must not queue behind a scatter),
        and ``/readyz`` is an engine round-trip under a timeout --
        ready means the fleet can actually absorb work *now*.
    alert_engine:
        Optional :class:`~repro.obs.alerts.AlertEngine` evaluated (on
        the engine thread, against the fleet-merged snapshot) by the
        ``alerts`` op and the gateway's ``/alerts`` endpoint.
    """

    def __init__(
        self,
        factory: Callable[[], StreamAlgorithm],
        num_shards: int = 1,
        backend: str = "serial",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: Optional[int] = None,
        partitioner: Optional[UniversePartitioner] = None,
        queue_depth: int = 8,
        queue_deadline: Optional[float] = None,
        supervise: bool = True,
        snapshot_every: Optional[int] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_keep: int = 0,
        start_position: int = 0,
        resume_path=None,
        gateway_port: Optional[int] = None,
        alert_engine=None,
    ) -> None:
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        if queue_deadline is not None and queue_deadline <= 0:
            raise ValueError(
                f"queue_deadline must be positive, got {queue_deadline}"
            )
        self.engine = ShardedStreamEngine(
            factory,
            num_shards,
            chunk_size=chunk_size,
            partitioner=partitioner
            or UniversePartitioner(num_shards, seed=_SERVER_PARTITION_SEED),
            backend=backend,
            supervise=supervise,
            snapshot_every=snapshot_every,
        )
        #: Construction identity of the fleet (every replica's, by the
        #: merge-key check) -- sent in ``hello`` so clients and the
        #: coordinator can reject a mis-seeded server before feeding it.
        template = self.engine.algorithm.shards[0]
        self.fingerprint = construction_fingerprint(template)
        self.sketch_class = snapshot_class_name(template)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.queue_depth = queue_depth
        self.queue_deadline = queue_deadline
        self.max_frame = max_frame
        self.position = start_position
        #: Per-client last-applied feed ``seq`` (exactly-once dedup).
        #: Touched only on the engine thread, whose single-thread FIFO
        #: makes check-then-apply atomic across connections; lost on
        #: restart, so an unknown client's first seq is accepted as-is
        #: (documented caveat -- resuming clients replay from their
        #: server-acknowledged positions anyway).
        self._feed_seqs: dict = {}
        #: Per-client ``seq -> error`` of sequenced feeds whose apply
        #: raised.  A resend of one raises that error again: acking it
        #: would claim updates the engine rejected, and applying it again
        #: could double whatever part of the batch went in.
        self._failed_feeds: dict[str, dict[int, Exception]] = {}
        #: State version ``(epoch, mutations)``: a random per-instance
        #: epoch, so a restarted server never repeats an earlier
        #: instance's version, and a count the engine thread bumps on
        #: every applied feed and every ``load_snapshot``, before it
        #: changes the state.  Equal versions from one server mean equal
        #: snapshot bytes, which is what lets ``snapshot(unless=...)``
        #: skip an unchanged state, and answer it on the event loop.
        self._epoch = secrets.token_hex(8)
        self._mutations = 0
        self._writer: Optional[CheckpointWriter] = None
        if checkpoint_path is not None:
            self._writer = CheckpointWriter(
                checkpoint_path,
                self.engine.algorithm,
                every=checkpoint_every
                if checkpoint_every is not None
                else DEFAULT_CHECKPOINT_EVERY,
                keep=checkpoint_keep,
            )
        if resume_path is not None:
            self.position = resume_from(
                resume_path, self.engine.algorithm, fallback=True
            )
        if self._writer is not None:
            self._writer.last_position = self.position
        #: Stable ``server=`` label for this instance's metric series.
        self.label = f"srv{next(_SERVER_SEQ)}"
        self.stats = ServerStats(started_at=time.monotonic(), server=self.label)
        self._server: Optional[asyncio.base_events.Server] = None
        #: The engine thread and its FIFO of ``(future, fn, args)`` jobs.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._engine_thread: Optional[threading.Thread] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._connection_seq = 0
        self._handler_tasks: set[asyncio.Task] = set()
        self._closed = False
        self.alert_engine = alert_engine
        self._gateway_port = gateway_port
        #: The attached observability gateway (set by :meth:`start` when
        #: ``gateway_port`` was given; ``gateway.port`` is its bound port).
        self.gateway = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "SketchServer":
        """Bind and start accepting connections; resolves the port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.queue_depth)
        self._server = await loop.create_server(
            lambda: FrameProtocol(self.max_frame, connected=self._accept),
            self.host,
            self._requested_port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._gateway_port is not None:
            self.gateway = self._build_gateway(self._gateway_port)
            try:
                await self.gateway.start()
            except BaseException:
                # A failed gateway bind must not leave the listener open.
                await self._close_listener()
                self._server = self.gateway = None
                raise
        # Last, so a failed bind leaves no thread behind; a job queued
        # before this (a gateway scrape) waits in the queue.
        self._engine_thread = threading.Thread(
            target=_run_engine,
            args=(self._jobs, loop),
            name="sketch-engine",
            daemon=True,
        )
        self._engine_thread.start()
        return self

    async def _close_listener(self) -> None:
        """Stop accepting and end every connection handler."""
        if self._server is not None:
            self._server.close()
        # Reap connection handlers still draining their sockets, so the
        # event loop can close without orphaned tasks; after stop() began,
        # _accept closes any new connection instead of starting a handler.
        # This comes before wait_closed(): from Python 3.12.1 that waits
        # until every connection is gone, and only a handler closes its
        # connection.
        handlers = list(self._handler_tasks)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        """``start()`` (if needed) then serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, flush a final checkpoint, shut the fleet down."""
        if self._closed:
            return
        self._closed = True
        if self.gateway is not None:
            await self.gateway.stop()
        await self._close_listener()
        # Shutdown must not shed its own final checkpoint.
        self.queue_deadline = None
        if self._writer is not None and self._writer.last_position != self.position:
            await self._engine_call(self._checkpoint_now)
        if self._engine_thread is not None:
            self._jobs.put(None)
            self._engine_thread.join()
        self.engine.close()

    @contextlib.contextmanager
    def run_in_thread(self):
        """Run the server on a daemon-thread event loop (sync callers).

        Yields the server once it is listening (``server.port`` is set);
        stops it on exit.  This is how the load harness and the sync
        client tests host an in-process server.
        """
        loop = asyncio.new_event_loop()
        started = threading.Event()
        stop_requested = asyncio.Event()
        failure: list[BaseException] = []

        async def _run() -> None:
            try:
                await self.start()
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                return
            started.set()
            # create_server() already accepts in the background; _run just
            # keeps the loop alive until the exit path asks it to stop,
            # then runs the full shutdown *inside* the loop so the final
            # checkpoint and fleet teardown always complete.
            await stop_requested.wait()
            await self.stop()

        def _main() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(_run())
            finally:
                loop.close()

        thread = threading.Thread(
            target=_main, name="sketch-server", daemon=True
        )
        thread.start()
        started.wait()
        if failure:
            thread.join(timeout=5)
            raise failure[0]
        try:
            yield self
        finally:
            loop.call_soon_threadsafe(stop_requested.set)
            thread.join(timeout=30)

    # -- engine serialization ----------------------------------------------

    async def _engine_call(self, fn, *args):
        """Run one engine operation on the engine thread.

        The semaphore bounds queued operations (backpressure); the FIFO
        order of the thread's job queue is the linear history every
        correctness claim leans on.  With ``queue_deadline`` set, a
        request that cannot claim a slot in time is shed with a
        retryable :class:`ServerBusy` *before* reaching the engine.  A
        request cancelled before the thread takes its job never runs.
        """
        if self.queue_deadline is not None:
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), timeout=self.queue_deadline
                )
            except asyncio.TimeoutError:
                self.stats.bump(busy=1)
                raise ServerBusy(
                    f"engine queue saturated past the {self.queue_deadline}s "
                    "queue deadline; the request was not applied -- retry"
                ) from None
            try:
                return await self._submit(fn, args)
            finally:
                self._slots.release()
        async with self._slots:
            return await self._submit(fn, args)

    def _submit(self, fn, args) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._jobs.put((future, fn, args))
        return future

    def _feed(
        self,
        items: np.ndarray,
        deltas: np.ndarray,
        client_id: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> tuple[int, bool]:
        # Sequenced-feed dedup runs HERE, on the engine thread: its
        # one-at-a-time FIFO makes check-then-apply atomic across
        # connections, so a dying connection's in-flight feed and its
        # reconnected retransmit can never both apply.
        if client_id is not None:
            last = self._feed_seqs.get(client_id)
            if last is not None:
                if seq <= last:
                    failed = self._failed_feeds.get(client_id, {}).get(seq)
                    if failed is not None:
                        raise failed.with_traceback(None)
                    return self.position, True  # duplicate: ack, don't apply
                if seq > last + 1:
                    raise SequenceGap(
                        f"client {client_id!r} sent seq {seq} after {last}; "
                        "an earlier feed is missing -- resend from "
                        f"seq {last + 1}"
                    )
            self._feed_seqs[client_id] = seq
        # Bumped before applying: a batch that fails halfway may still
        # have changed the state.
        self._mutations += 1
        try:
            self.engine.algorithm.process_batch(items, deltas)
        except Exception as exc:
            if client_id is not None:
                failed = self._failed_feeds.setdefault(client_id, {})
                failed[seq] = exc
                if len(failed) > _FAILED_FEEDS_KEPT:
                    del failed[next(iter(failed))]
            raise
        self.position += len(items)
        if self._writer is not None and self._writer.maybe(self.position):
            self.stats.bump(checkpoints=1)
        return self.position, False

    def _checkpoint_now(self) -> dict:
        if self._writer is None:
            raise RuntimeError(
                "server has no checkpoint_path configured; pass one at "
                "construction to enable checkpointing"
            )
        self._writer.flush(self.position)
        self.stats.bump(checkpoints=1)
        return {"path": str(self._writer.path), "position": self.position}

    def _load_snapshot(
        self, data: bytes, position: Optional[int], merge: bool = False
    ) -> int:
        # Reject mis-constructed snapshots *before* they reach the fleet: a
        # process-backend worker that trips the fingerprint check mid-restore
        # dies with its replica state, whereas rejecting here costs nothing.
        _, fingerprint, _ = _parse_envelope(data)
        if fingerprint != self.fingerprint:
            raise FingerprintMismatch(
                f"{self.sketch_class}: snapshot construction fingerprint "
                "disagrees with this server's fleet; the snapshot must come "
                "from an identically-constructed sketch (same parameters, "
                "same seed)"
            )
        self._mutations += 1
        if merge:
            # Additive restore (shard migration): fold the snapshot into the
            # live state and advance the feed position by the updates the
            # snapshot carried (explicit `position` overrides the delta).
            before = int(self.engine.algorithm.updates_processed)
            self.engine.merge_snapshot(data)
            gained = int(self.engine.algorithm.updates_processed) - before
            self.position += int(position) if position is not None else gained
        else:
            self.engine.load_snapshot(data)
            self.position = (
                int(position)
                if position is not None
                else self.engine.algorithm.updates_processed
            )
        if self._writer is not None:
            self._writer.last_position = self.position
        return self.position

    def _version(self) -> tuple[str, int]:
        return self._epoch, self._mutations

    def _snapshot(self) -> tuple[tuple[str, int], bytes]:
        """The state version and the merged snapshot, read together on
        the engine thread."""
        return self._version(), self.engine.merged().snapshot()

    def _stats_payload(self) -> dict:
        """The monitoring snapshot: liveness first, then counters."""
        now = time.monotonic()
        stats = self.stats
        return {
            "status": "ok",
            "uptime_seconds": now - stats.started_at,
            "seconds_since_last_feed": (
                now - stats.last_feed_at if stats.last_feed_at else None
            ),
            "position": self.position,
            "connections_open": stats.connections_open,
            "connections_total": stats.connections_total,
            "frames": stats.frames,
            "updates": stats.updates,
            "queries": stats.queries,
            "errors": stats.errors,
            "checkpoints": stats.checkpoints,
            "busy": stats.busy,
            "queue_depth": self.queue_depth,
            "queue_deadline": self.queue_deadline,
            "num_shards": self.engine.num_shards,
            "backend": self.engine.backend,
            "shard_loads": list(self.engine.algorithm.shard_loads()),
            "connections": {
                key: {
                    "peer": c.peer,
                    "frames": c.frames,
                    "updates": c.updates,
                    "queries": c.queries,
                    "errors": c.errors,
                    "open_seconds": now - c.opened_at,
                }
                for key, c in stats.connections.items()
            },
        }

    def _metrics_payload(self) -> dict:
        """The fleet-merged obs snapshot plus its Prometheus rendering.

        Runs on the engine thread: the process backend's
        ``metric_snapshots`` flushes worker pipes, so it must serialize
        with feeds exactly like every other state-reading operation.
        """
        snapshot = self.engine.algorithm.metrics_snapshot()
        return {
            "server": self.label,
            "snapshot": snapshot,
            "exposition": render_prometheus(snapshot),
            "content_type": EXPOSITION_CONTENT_TYPE,
        }

    def _alerts_payload(self) -> dict:
        """One alert evaluation over the fleet-merged snapshot.

        Runs on the engine thread for the same reason ``_metrics_payload``
        does: the merged snapshot flushes process-backend worker pipes.
        Servers without an attached engine answer an empty rule list --
        the op stays uniform across the fleet so the coordinator's merge
        never special-cases.
        """
        if self.alert_engine is None:
            return {
                "server": self.label,
                "alerts": [],
                "firing": 0,
                "evaluated_at": None,
            }
        snapshot = self.engine.algorithm.metrics_snapshot()
        self.alert_engine.evaluate(snapshot)
        payload = self.alert_engine.payload()
        payload["server"] = self.label
        return payload

    def _health_payload(self) -> tuple[bool, dict]:
        """Loop-side liveness: serving means alive, no engine round-trip."""
        now = time.monotonic()
        stats = self.stats
        return True, {
            "status": "ok",
            "server": self.label,
            "uptime_seconds": now - stats.started_at,
            "seconds_since_last_feed": (
                now - stats.last_feed_at if stats.last_feed_at else None
            ),
            "position": self.position,
            "connections_open": stats.connections_open,
        }

    def _build_gateway(self, port: int):
        """The side-by-side gateway, providers bound to this server.

        Metrics/alerts/readiness providers are coroutines over
        :meth:`_engine_call` -- scrapes serialize with feeds, which the
        process backend's single-reader metric pipes require.  Readiness
        is a bounded engine round-trip reporting the fleet's
        :meth:`~repro.parallel.sharded.ShardedAlgorithm.health`: a hung
        or backlogged engine times out into 503 instead of wedging the
        probe.
        """
        from repro.obs.gateway import ObservabilityGateway

        async def _metrics_text() -> str:
            payload = await self._engine_call(self._metrics_payload)
            return payload["exposition"]

        async def _ready() -> tuple[bool, dict]:
            # Loop-side pre-check first: ``health()`` reads process
            # liveness and supervision flags without touching worker
            # pipes, so /readyz flips to 503 the moment a worker dies or
            # a respawn-and-replay is in flight -- even while the engine
            # thread is busy doing that recovery.
            health = self.engine.algorithm.health()
            if not health.get("ok", True):
                health["status"] = (
                    "recovering" if health.get("recovering") else "degraded"
                )
                health["server"] = self.label
                return False, health
            try:
                health = await asyncio.wait_for(
                    self._engine_call(self.engine.algorithm.health),
                    timeout=5.0,
                )
            except asyncio.TimeoutError:
                return False, {
                    "status": "timeout",
                    "server": self.label,
                    "detail": "engine thread did not answer within 5s",
                }
            health["status"] = "ready" if health["ok"] else "degraded"
            health["server"] = self.label
            return health["ok"], health

        async def _alerts() -> dict:
            return await self._engine_call(self._alerts_payload)

        return ObservabilityGateway(
            host=self.host,
            port=port,
            metrics_provider=_metrics_text,
            health_provider=self._health_payload,
            ready_provider=_ready,
            alerts_provider=_alerts,
        )

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(self, message: dict, connection: ConnectionStats):
        op = message["op"]
        if op == "hello":
            return {
                "server": "repro-sketch-service",
                "protocol_version": PROTOCOL_VERSION,
                "repro_version": __version__,
                "sketch": self.sketch_class,
                "fingerprint": self.fingerprint,
                "num_shards": self.engine.num_shards,
                "backend": self.engine.backend,
            }
        if op == "ping":
            return {"pong": True, "position": self.position}
        if op == "feed":
            items = message.get("items")
            deltas = message.get("deltas")
            if (
                not isinstance(items, np.ndarray)
                or not isinstance(deltas, np.ndarray)
                or items.dtype != np.int64
                or deltas.dtype != np.int64
                or items.shape != deltas.shape
                or items.ndim != 1
            ):
                raise ValueError(
                    "feed needs aligned one-dimensional int64 'items' and "
                    "'deltas' arrays"
                )
            client_id = message.get("client")
            seq = message.get("seq")
            if client_id is not None:
                if not isinstance(client_id, str):
                    raise ValueError("feed 'client' must be a string id")
                if not isinstance(seq, int) or isinstance(seq, bool):
                    raise ValueError(
                        "a sequenced feed needs an integer 'seq'"
                    )
            position, duplicate = await self._engine_call(
                self._feed, items, deltas, client_id, seq
            )
            if duplicate:
                return {"count": 0, "position": position, "duplicate": True}
            connection.bump(updates=len(items))
            self.stats.bump(updates=len(items))
            self.stats.last_feed_at = time.monotonic()
            return {"count": len(items), "position": position}
        if op == "estimate":
            items = message.get("items")
            if not isinstance(items, np.ndarray) or items.dtype != np.int64:
                raise ValueError("estimate needs an int64 'items' array")
            connection.bump(queries=1)
            self.stats.bump(queries=1)
            estimates = await self._engine_call(
                self.engine.estimate_batch, items
            )
            return pack_array(np.asarray(estimates))
        if op == "query":
            connection.bump(queries=1)
            self.stats.bump(queries=1)
            kind = message.get("kind")
            if kind in (None, "default"):
                return sanitize_value(await self._engine_call(self.engine.query))
            if kind == "f2":
                return sanitize_value(
                    await self._engine_call(
                        lambda: self.engine.algorithm.f2_estimate()
                    )
                )
            raise ValueError(f"unknown query kind {kind!r}")
        if op == "snapshot":
            connection.bump(queries=1)
            self.stats.bump(queries=1)
            if "unless" not in message:
                return (await self._engine_call(self._snapshot))[1]
            # A state still at ``unless`` is neither merged, encoded nor
            # shipped, and the check is answered here, on the loop (see
            # "Serialization point").  The version only grows, so a check
            # that mismatches here would mismatch on the engine thread.
            version = self._version()
            if message["unless"] == version:
                return {"version": version, "snapshot": None}
            version, data = await self._engine_call(self._snapshot)
            return {"version": version, "snapshot": data}
        if op == "load_snapshot":
            data = message.get("snapshot")
            if not isinstance(data, (bytes, bytearray)):
                raise ValueError("load_snapshot needs snapshot bytes")
            position = await self._engine_call(
                self._load_snapshot,
                bytes(data),
                message.get("position"),
                bool(message.get("merge")),
            )
            return {"position": position}
        if op == "checkpoint":
            return await self._engine_call(self._checkpoint_now)
        if op == "stats":
            return await self._engine_call(self._stats_payload)
        if op == "metrics":
            connection.bump(queries=1)
            self.stats.bump(queries=1)
            return sanitize_value(await self._engine_call(self._metrics_payload))
        if op == "alerts":
            connection.bump(queries=1)
            self.stats.bump(queries=1)
            return sanitize_value(await self._engine_call(self._alerts_payload))
        raise ValueError(f"unknown op {op!r}")

    def _accept(self, frames: FrameProtocol) -> None:
        if self._closed:
            # Made after stop() began: no handler will ever own this
            # connection.
            frames.transport.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(frames)
        )
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)
        # A handler cancelled before its first step never reaches the
        # finally that closes its connection.
        task.add_done_callback(lambda _: frames.transport.close())

    async def _handle_connection(self, frames: FrameProtocol) -> None:
        key = self._connection_seq
        self._connection_seq += 1
        peer = frames.transport.get_extra_info("peername")
        connection = ConnectionStats(
            peer=f"{peer[0]}:{peer[1]}" if peer else "?",
            opened_at=time.monotonic(),
            server=self.label,
            connection=str(key),
        )
        self.stats.bump(connections_total=1, connections_open=1)
        self.stats.connections[key] = connection
        try:
            while True:
                try:
                    message = await frames.read()
                except ProtocolError:
                    # Framing is unrecoverable mid-stream: count and drop.
                    connection.bump(errors=1)
                    self.stats.bump(errors=1)
                    break
                if message is None:  # clean EOF
                    break
                connection.bump(frames=1)
                self.stats.bump(frames=1)
                request_id = message.get("id")
                started = time.perf_counter()
                try:
                    result = await self._dispatch(message, connection)
                    reply = make_reply(request_id, result)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    connection.bump(errors=1)
                    self.stats.bump(errors=1)
                    reply = make_error_reply(request_id, exc)
                if _obs_registry.enabled:
                    duration = time.perf_counter() - started
                    _obs_request_seconds.observe(duration)
                    _obs_tracer.record(
                        "service.request",
                        started,
                        duration,
                        server=self.label,
                        op=message["op"],
                        ok=reply.get("ok", False),
                    )
                await frames.write(reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Only stop() cancels handlers (shutdown reap), and it waits
            # for them itself; ending normally closes the connection.
            pass
        finally:
            self.stats.bump(connections_open=-1)
            self.stats.connections.pop(key, None)
            connection.dispose()
            await frames.close()
