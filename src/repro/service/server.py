"""`SketchServer`: the asyncio collector in front of a sketch fleet.

Architecture
------------
The server's rules live in a synchronous :class:`~repro.service.core.ServerCore`;
this module is its asyncio transport.  Each request takes two steps: ask
the core, then hand its job, if any, to the engine thread once.

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

Besides ``hello`` and ``ping``, one answer is given off the engine
thread: a ``snapshot`` check at the core's current state version (see
:mod:`repro.service.core` for why that stays linearizable).  It takes
no engine slot, so ``queue_deadline`` never sheds it.

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
"""

from __future__ import annotations

import asyncio
import contextlib
import queue
import threading
import time
from typing import Callable, Optional

from repro.core.algorithm import StreamAlgorithm
from repro.obs import (
    RegistryStatsBase,
    get_registry as _get_obs_registry,
    get_tracer as _get_obs_tracer,
    phase_histogram as _obs_phase_histogram,
)
from repro.service.core import ServerCore, ServerStats
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameProtocol,
    ProtocolError,
    ServerBusy,
    make_error_reply,
    make_reply,
)

__all__ = ["ConnectionStats", "ServerStats", "SketchServer"]

_obs_registry = _get_obs_registry()
_obs_tracer = _get_obs_tracer()
_obs_request_seconds = _obs_phase_histogram().bind(phase="service.request")


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


class SketchServer(ServerCore):
    """Asyncio TCP collector feeding one sharded sketch fleet: the
    transport of a :class:`~repro.service.core.ServerCore`.

    Parameters
    ----------
    factory / num_shards / backend / **options:
        The core's: the fleet, its checkpoints, resume and alert engine
        (see :class:`~repro.service.core.ServerCore`).
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
    max_frame:
        Per-frame byte cap (oversized frames close the connection).
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
    """

    def __init__(
        self,
        factory: Callable[[], StreamAlgorithm],
        num_shards: int = 1,
        backend: str = "serial",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 8,
        queue_deadline: Optional[float] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        gateway_port: Optional[int] = None,
        **options,
    ) -> None:
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        if queue_deadline is not None and queue_deadline <= 0:
            raise ValueError(
                f"queue_deadline must be positive, got {queue_deadline}"
            )
        super().__init__(factory, num_shards, backend, **options)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.queue_depth = queue_depth
        self.queue_deadline = queue_deadline
        self.max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        #: The engine thread and its FIFO of ``(future, fn, args)`` jobs.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._engine_thread: Optional[threading.Thread] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._connection_seq = 0
        self._handler_tasks: set[asyncio.Task] = set()
        self._closed = False
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
        if self._engine_thread is not None:
            # Shutdown must not shed its own final checkpoint.
            self.queue_deadline = None
            await self._engine_call(self.flush)
            self._jobs.put(None)
            self._engine_thread.join()
        self.engine.close()

    @contextlib.contextmanager
    def run_in_thread(self):
        """Run the server on a daemon-thread event loop (sync callers).

        Yields the server once it is listening (``server.port`` is set).
        Stops it on exit, and also when ``start`` fails, so a failed bind
        leaves no fleet workers behind.  This is how the load harness and
        the sync client tests host an in-process server.
        """
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, name="sketch-server", daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self.start(), loop).result()
            yield self
        finally:
            # The shutdown runs inside the loop, so the final checkpoint
            # and the fleet teardown complete before the loop stops.
            asyncio.run_coroutine_threadsafe(self.stop(), loop).result()
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()

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
        try:
            await asyncio.wait_for(self._slots.acquire(), self.queue_deadline)
        except asyncio.TimeoutError:
            self.stats.bump(busy=1)
            raise ServerBusy(
                f"engine queue saturated past the {self.queue_deadline}s "
                "queue deadline; the request was not applied -- retry"
            ) from None
        try:
            future = asyncio.get_running_loop().create_future()
            self._jobs.put((future, fn, args))
            return await future
        finally:
            self._slots.release()

    def _build_gateway(self, port: int):
        """The side-by-side gateway, providers bound to this server.

        Metrics/alerts/readiness providers are coroutines over
        :meth:`_engine_call` -- scrapes serialize with feeds, which the
        process backend's single-reader metric pipes require.  Readiness
        is a bounded engine round-trip reporting the fleet's
        :meth:`~repro.parallel.sharded.ShardedAlgorithm.health`: a hung
        or backlogged engine times out into 503 instead of wedging the
        probe.  Liveness is answered on the loop, with no engine
        round-trip.
        """
        from repro.obs.gateway import ObservabilityGateway

        async def _metrics_text() -> str:
            payload = await self._engine_call(self.telemetry, "metrics")
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
            return await self._engine_call(self.telemetry, "alerts")

        return ObservabilityGateway(
            host=self.host,
            port=port,
            metrics_provider=_metrics_text,
            health_provider=lambda: (True, {**self.liveness(), "server": self.label}),
            ready_provider=_ready,
            alerts_provider=_alerts,
        )

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(self, message: dict, count: Callable[..., None]):
        """Ask the core, then hand its job, if any, to the engine thread.

        The loop fills in what it owns: the protocol version its frames
        speak, the books of absorbed updates and the connection table.
        """
        answer = self.handle(message, count)
        if callable(answer):
            answer = await self._engine_call(answer)
        op = message["op"]
        if op == "hello":
            answer["protocol_version"] = PROTOCOL_VERSION
        elif op == "feed" and not answer.get("duplicate"):
            count(updates=answer["count"])
            self.stats.last_feed_at = time.monotonic()
        elif op == "stats":
            now = time.monotonic()
            answer["queue_depth"] = self.queue_depth
            answer["queue_deadline"] = self.queue_deadline
            answer["connections"] = {
                key: {"peer": c.peer, **c.values(), "open_seconds": now - c.opened_at}
                for key, c in self.stats.connections.items()
            }
        return answer

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

        def count(**amounts) -> None:
            """Add to this connection's book and the server's."""
            connection.bump(**amounts)
            self.stats.bump(**amounts)

        self.stats.bump(connections_total=1, connections_open=1)
        self.stats.connections[key] = connection
        try:
            while True:
                try:
                    message = await frames.read()
                except ProtocolError:
                    # Framing is unrecoverable mid-stream: count and drop.
                    count(errors=1)
                    break
                if message is None:  # clean EOF
                    break
                count(frames=1)
                request_id = message.get("id")
                started = time.perf_counter()
                try:
                    result = await self._dispatch(message, count)
                    reply = make_reply(request_id, result)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    count(errors=1)
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
