"""`SketchClient` / `AsyncSketchClient`: the sketch service client library.

Both clients expose the same call surface over the
:mod:`repro.service.protocol` frame format:

``hello`` / ``ping`` / ``stats``
    identity, liveness, and monitoring counters;
``feed(items, deltas)`` / ``feed_chunks(source, window=...)``
    update ingestion -- ``feed_chunks`` pipelines up to ``window``
    unacknowledged batches so the socket, the server's reader, and the
    fleet's scatter all overlap (the network edition of the ingest
    queue);
``estimate(items)`` / ``query(kind=...)``
    batched point estimates (exact int64 or bit-exact float64 arrays)
    and the family's native query (``kind="f2"`` -> ``f2_estimate``);
``snapshot()`` / ``load_snapshot(data)`` / ``checkpoint()``
    wire-format state movement -- the same fingerprint-verified bytes
    the in-process merge protocol trusts; ``snapshot(unless=version)``
    skips the transfer when the server's state is still at ``version``.

One core, two transports
------------------------
Identity and request ids, the call surface and reply handling, the feed
pipeline (plain and sequenced) and the hedged race are written once, in
:class:`_ClientCore`, as sequences of I/O steps.  :class:`SketchClient`
executes the steps on blocking sockets with no event loop, which makes
it safe to drive from anywhere -- benchmark harnesses, shell tools,
worker threads, even code inside a running loop.
:class:`AsyncSketchClient` executes them on asyncio, reading and writing
through the same :class:`~repro.service.protocol.FrameProtocol` the
server uses, so each of its calls is awaitable (the coordinator uses
it).  On both, the policy's ``op_timeout`` bounds every reply wait;
``None`` means no timer.

Server-side failures raise the *same* exceptions a local engine would
(:class:`~repro.distributed.codec.FingerprintMismatch`,
:class:`~repro.distributed.codec.SnapshotError`) or
:class:`~repro.service.protocol.ServiceError` carrying the remote
exception class; framing corruption raises
:class:`~repro.service.protocol.ProtocolError` and invalidates the
connection.

Fault tolerance
---------------
``connect`` rides out restarts through a
:class:`~repro.service.retry.RetryPolicy` (capped exponential backoff
under a total deadline).  ``feed_chunks(..., retry=policy)`` goes
further: every chunk carries this client's opaque ``client_id`` and a
contiguous ``seq`` number, so after a dropped connection, a truncated
frame, or a ``busy`` shed the client reconnects and retransmits
everything unacknowledged -- the server's contiguous-seq dedup acks
duplicates without re-applying them, making the whole replay
**exactly-once** (the chaos tests pin byte-identical final state
against a serial engine).  Only idempotent-by-construction traffic
auto-retries: connects, and sequenced feeds.  Callers that sequence
their own feeds (the coordinator) use ``feed(..., seq=client.next_seq())``
and an identity-keeping ``reconnect()``.

Hedged reads
------------
``enable_hedging(host, port)`` arms the tail-latency defense for
*replicated* deployments (two servers fed the same stream, verified by
construction fingerprint): an ``estimate`` that has not answered within
``hedge_delay`` seconds is fired again at the backup server and the
first full reply wins.  The loser's request is marked abandoned and its
reply discarded by request id when it arrives, so the one-in-flight
protocol invariant holds on both connections; a backup that fails is
closed before it is dropped.  The delay defaults to the p99 of the
``repro_phase_seconds`` estimate-latency series when observability is
on (:func:`hedge_delay_from_metrics`); outcomes land in
``repro_hedged_reads_total{outcome=}`` -- ``fast`` (no hedge fired),
``primary`` / ``backup`` (hedge fired, who won), ``failover`` (primary
connection died, backup answered).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import select
import socket
import time
import uuid
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.distributed.codec import FingerprintMismatch
from repro.obs import (
    HEDGED_READS_METRIC,
    PHASE_SECONDS_METRIC,
    get_registry as _get_obs_registry,
    histogram_quantile,
    phase_histogram,
)
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameProtocol,
    make_request,
    raise_for_reply,
    recv_message,
    send_message,
    unpack_array,
    ProtocolError,
    ProtocolVersionMismatch,
    SequenceGap,
    ServerBusy,
    ServiceError,
)
from repro.service.retry import RetryPolicy, count_retry

__all__ = [
    "SketchClient",
    "AsyncSketchClient",
    "DEFAULT_HEDGE_DELAY",
    "fan_out",
    "hedge_delay_from_metrics",
]

#: Default pipelining window for feed_chunks (unacknowledged batches).
DEFAULT_WINDOW = 8

#: Fallback hedge delay (seconds) when no latency histogram is recorded
#: (fresh process, or the ``REPRO_OBS=0`` kill switch).
DEFAULT_HEDGE_DELAY = 0.05

#: Phase label client-side estimate latency records under.
ESTIMATE_PHASE = "client.estimate"

#: ``snapshot()``'s default: no ``unless`` given, plain bytes wanted.
_UNVERSIONED = object()

#: What the next-chunk step returns once the feed source is exhausted.
_END = object()

#: The connection failed (unlike an error reply over a healthy one).
_TRANSPORT_ERRORS = (OSError, ProtocolError)

_obs_registry = _get_obs_registry()
_obs_hedged = _obs_registry.counter(
    HEDGED_READS_METRIC,
    "Hedged estimate outcomes (fast/primary/backup/failover)",
)


def _observe_estimate(seconds: float) -> None:
    if _obs_registry.enabled:
        phase_histogram(_obs_registry).observe(seconds, phase=ESTIMATE_PHASE)


def hedge_delay_from_metrics(
    snapshot: Optional[dict] = None,
    *,
    quantile: float = 0.99,
    default: float = DEFAULT_HEDGE_DELAY,
) -> float:
    """The adaptive hedge delay: p99 of observed request latency.

    Reads the ``repro_phase_seconds`` histogram -- the client-side
    ``client.estimate`` series first (recorded by every un-hedged or
    fast-path estimate), the server-side ``service.request`` series as
    a fallback (available when client and server share a process, or
    when a scraped fleet snapshot is passed in).  Returns ``default``
    when neither series exists, including under ``REPRO_OBS=0``.
    """
    if snapshot is None:
        if not _obs_registry.enabled:
            return default
        snapshot = _obs_registry.snapshot()
    for phase in (ESTIMATE_PHASE, "service.request"):
        value = histogram_quantile(
            snapshot, PHASE_SECONDS_METRIC, quantile, phase=phase
        )
        if value is not None:
            return float(value)
    return default


async def fan_out(calls) -> list:
    """``asyncio.gather(*calls, return_exceptions=True)`` without a task per call.

    Every coroutine in ``calls`` first runs, on the caller's task and in
    its own copy of the caller's context, up to its first suspension --
    for a client call, its request written and its reply awaited -- so
    every request is written before any reply is awaited, and no task is
    created per server.  From then on each call is resumed as soon as
    what it waits on is done, as its own task would be, so one call's
    later waits (a reconnect, a resend) overlap the others' instead of
    queueing behind them.  Returns each call's result, or the exception
    it raised, in call order.

    Cancelling the caller cancels what each unfinished call waits on,
    runs its cleanup and re-raises :class:`asyncio.CancelledError`.  A
    call must not hold a timeout that cancels the running task (an
    ``asyncio.timeout`` block, or ``asyncio.wait_for`` from Python 3.12):
    that task is the caller's.  The client bounds its reply and connect
    waits with loop timers on futures of its own instead.
    """
    loop = asyncio.get_running_loop()
    calls = [(call, contextvars.copy_context()) for call in calls]
    results: list = [None] * len(calls)
    #: Unfinished call -> the future it waits on (``None``: a bare yield).
    parked: dict = {}
    #: Parked calls whose wait is over, in the order they woke.
    ready: deque = deque()
    #: Parked calls to resume with the caller's cancellation.
    doomed: set = set()
    waiter: Optional[asyncio.Future] = None

    def wake(index: int, _future=None) -> None:
        ready.append(index)
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def step(index: int, error: Optional[BaseException] = None) -> None:
        call, context = calls[index]
        done, value = _advance(call, context, error)
        if done:
            results[index] = value
            parked.pop(index, None)
        elif value is None:  # a bare yield: one pass of the loop
            parked[index] = None
            loop.call_soon(wake, index)
        else:
            parked[index] = value
            value.add_done_callback(functools.partial(wake, index))

    for index in range(len(calls)):
        step(index)
    cancelled: Optional[BaseException] = None
    while parked:
        if not ready:
            waiter = loop.create_future()
            try:
                await waiter
            except asyncio.CancelledError as exc:
                # What a task's cancellation does: cancel the future each
                # call waits on (the call then wakes to the cancellation),
                # or, where that is already done, throw the cancellation
                # into the call when it wakes.
                cancelled = exc
                for index, value in parked.items():
                    if value is None or not value.cancel():
                        doomed.add(index)
                        if value is not None and not value.cancelled():
                            value.exception()  # retrieved, as a wake-up would
                continue
        index = ready.popleft()
        if index in doomed:
            doomed.discard(index)
            step(index, asyncio.CancelledError())
        else:
            step(index)
    if cancelled is not None:
        raise cancelled
    return results


def _advance(call, context, error: Optional[BaseException] = None) -> tuple:
    """Run ``call`` to its next suspension, in ``context``.

    Returns ``(True, outcome)`` once it finished -- its result or the
    exception it raised -- else ``(False, awaited)``: the future it waits
    on, or ``None`` for a bare yield.
    """
    try:
        if error is None:
            return False, context.run(call.send, None)
        return False, context.run(call.throw, error)
    except StopIteration as stop:
        return True, stop.value
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return True, exc


def _close_abandoned(opening: asyncio.Task) -> None:
    """Close the connection an abandoned connect made, if it made one."""
    if not opening.cancelled() and opening.exception() is None:
        opening.result()[0].close()


def _abandon(racing: dict) -> None:
    """Mark the losers' requests abandoned: replies discarded on arrival."""
    for client, request_id in racing.items():
        client._stale_ids.add(request_id)


def _as_feed_arrays(items, deltas) -> tuple[np.ndarray, np.ndarray]:
    items = np.ascontiguousarray(items, dtype=np.int64)
    deltas = np.ascontiguousarray(deltas, dtype=np.int64)
    if items.shape != deltas.shape or items.ndim != 1:
        raise ValueError(
            "feed needs aligned one-dimensional items/deltas arrays, got "
            f"shapes {items.shape} and {deltas.shape}"
        )
    return items, deltas


@dataclass
class _Frame:
    """One feed batch in the pipeline (``seq`` is ``None`` unsequenced)."""

    seq: Optional[int]
    items: np.ndarray
    deltas: np.ndarray
    request_id: int = 0
    error: Optional[BaseException] = None


class _ClientCore:
    """The client written once, as generators of I/O steps.

    A step is a tuple ``(callable, *args)``; the transport's ``_run``
    calls it (blocking) or awaits it (asyncio) and sends the result, or
    throws the failure, back in.  Each transport supplies the steps
    ``_open``, ``_close``, ``_write`` (one request frame), ``_read`` (one
    reply frame), ``_wait`` (the clients among several with a reply
    ready, or none after a timeout), ``_sleep`` and ``_next_chunk``.  On
    :class:`AsyncSketchClient` every public method returns an awaitable,
    except :meth:`enable_hedging` and :meth:`next_seq`.
    """

    def __init__(
        self,
        address: tuple[str, int],
        policy: RetryPolicy,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        hello: bool = True,
        client_id: Optional[str] = None,
    ) -> None:
        self._address = address
        self._policy = policy
        self._max_frame = max_frame
        self._hello = hello
        self._request_seq = 0
        self.server_info: Optional[dict] = None
        #: Opaque identity for sequenced (exactly-once) feeds; stable
        #: across reconnects of this client object.
        self.client_id = client_id or uuid.uuid4().hex
        self._feed_seq = 0
        #: Retries this client consumed (connects + feed replays).
        self.retries = 0
        #: Abandoned hedged-request ids whose replies are still due on
        #: this connection; ``_reply`` discards them on arrival.
        self._stale_ids: set[int] = set()
        #: ``(backup address, delay)`` once hedging is armed.
        self._hedge: Optional[tuple[tuple[str, int], Optional[float]]] = None
        self._backup: Optional["_ClientCore"] = None
        #: Functional hedged-read accounting (works under ``REPRO_OBS=0``).
        self.hedge_outcomes: dict[str, int] = {}

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        hello: bool = True,
        client_id: Optional[str] = None,
    ):
        """Connect under a retry policy and perform the ``hello`` handshake.

        ``retry=`` takes a full :class:`RetryPolicy` (backoff, deadline,
        per-op timeout); bare ``retries=N`` gets the default
        capped-exponential shape.  The handshake pins the server's sketch
        class and construction fingerprint in ``client.server_info``, and
        a server of another ``PROTOCOL_VERSION`` raises
        :class:`~repro.service.protocol.ProtocolVersionMismatch` (so does
        a reconnect to one).  ``client_id=`` reuses an existing
        sequenced-feed identity.
        """
        policy = retry if retry is not None else RetryPolicy(max_attempts=retries + 1)
        client = cls(
            (host, port), policy, max_frame=max_frame, hello=hello, client_id=client_id
        )
        return client._run(client._connecting(policy))

    # -- request/reply steps --------------------------------------------------

    def _connecting(self, policy: RetryPolicy):
        schedule = policy.start()
        while True:
            try:
                yield (self._open,)
                break
            except OSError:
                delay = schedule.next_delay()
                if delay is None:
                    raise
                count_retry("connect")
                yield (self._sleep, delay)
        if self._hello:
            self.server_info = yield from self._call("hello")
            version = self.server_info.get("protocol_version")
            if version != PROTOCOL_VERSION:
                yield (self._close,)
                raise ProtocolVersionMismatch(version)
        return self

    def _reconnecting(self):
        yield (self._close,)
        self._stale_ids.clear()
        yield from self._connecting(RetryPolicy(max_attempts=1))

    def _send(self, op: str, fields: dict):
        self._request_seq += 1
        yield (self._write, make_request(op, self._request_seq, **fields))
        return self._request_seq

    def _reply(self, request_id: int):
        while True:
            message = yield (self._read,)
            if message.get("id") in self._stale_ids:
                # An abandoned hedged request's reply: discard it.
                self._stale_ids.discard(message["id"])
                continue
            return raise_for_reply(message, request_id)

    def _call(self, op: str, **fields):
        request_id = yield from self._send(op, fields)
        return (yield from self._reply(request_id))

    # -- the call surface -----------------------------------------------------

    def hello(self) -> dict:
        """Server identity: sketch class, fingerprint, fleet shape."""
        return self._run(self._call("hello"))

    def ping(self) -> dict:
        """Liveness probe; returns ``{"pong": True, "position": ...}``."""
        return self._run(self._call("ping"))

    def stats(self) -> dict:
        """The server's operational monitoring counters."""
        return self._run(self._call("stats"))

    def metrics(self) -> dict:
        """The server's fleet-merged telemetry.

        Returns ``{"server", "snapshot", "exposition", "content_type"}``
        -- the obs-registry snapshot (mergeable with other servers' via
        :func:`repro.obs.merge_snapshots`) plus its Prometheus text
        rendering.
        """
        return self._run(self._call("metrics"))

    def alerts(self) -> dict:
        """The server's current alert states.

        Returns ``{"server", "alerts", "firing", "evaluated_at"}``; the
        rule list is empty on servers without an attached
        :class:`~repro.obs.alerts.AlertEngine`.  Each call runs one
        evaluation pass on the server, so polling cadence is evaluation
        cadence.
        """
        return self._run(self._call("alerts"))

    def next_seq(self) -> int:
        """Reserve the next contiguous ``seq`` of this client's identity.

        Pass it to ``feed(..., seq=)``: resending the same seq after a
        lost acknowledgement acks as a duplicate and never re-applies.
        """
        self._feed_seq += 1
        return self._feed_seq

    def reconnect(self):
        """Reopen the connection to the same server, keeping identity.

        One attempt -- the caller owns backoff, so a refused connect
        surfaces as :class:`OSError`.  ``client_id`` and the ``seq``
        counter survive, so the server's dedup recognizes replays; the
        ``hello`` handshake is repeated when ``connect`` performed it.
        """
        return self._run(self._reconnecting())

    def feed(self, items, deltas, *, seq: Optional[int] = None) -> dict:
        """Send one update batch; returns ``{"count", "position"}``.

        With ``seq=`` (from :meth:`next_seq`) the batch is sequenced
        under this client's identity -- the exactly-once dedup channel
        ``feed_chunks`` uses; resending the *same* seq after a lost
        acknowledgement is safe.
        """
        items, deltas = _as_feed_arrays(items, deltas)
        frame = _Frame(None if seq is None else int(seq), items, deltas)
        return self._run(self._call("feed", **self._feed_fields(frame)))

    def _feed_fields(self, frame: _Frame) -> dict:
        fields = {"items": frame.items, "deltas": frame.deltas}
        if frame.seq is not None:
            fields.update(client=self.client_id, seq=frame.seq)
        return fields

    def feed_chunks(
        self,
        source,
        window: int = DEFAULT_WINDOW,
        retry: Optional[RetryPolicy] = None,
    ) -> dict:
        """Stream ``(items, deltas)`` chunks with pipelined acknowledgements.

        Keeps up to ``window`` batches in flight: the socket send of
        chunk ``t+1`` overlaps the server's scatter of chunk ``t``.
        Returns ``{"count": total updates, "position": last ack'd}``.
        :class:`AsyncSketchClient` also takes an async iterable.

        With ``retry=`` a policy, every chunk is sequenced (``client`` +
        ``seq`` fields) and the stream survives faults: a dropped or
        corrupted connection triggers reconnect-and-retransmit of every
        unacknowledged chunk, and a ``busy``/gap rejection backs off and
        resends -- the server's contiguous-seq dedup makes all of it
        exactly-once.  Without it, a fault fails fast.  Either way, when
        the source, a chunk's validation or an error reply raises, the
        acks of every frame already sent are read before the error
        propagates, so the connection stays usable.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        return self._run(self._feeding(source, window, retry))

    def _feeding(self, source, window: int, policy: Optional[RetryPolicy]):
        """The feed pipeline, plain (``policy=None``) or sequenced.

        Invariants that make the sequenced form exactly-once:

        * every chunk gets the next contiguous ``seq`` *before* its
          first send and keeps it, with its own copy of the arrays (the
          source may reuse them), across resends;
        * the server rejects out-of-order seqs (:class:`SequenceGap`)
          and sheds only *before* the engine (:class:`ServerBusy`), so
          the unacknowledged set is always a contiguous suffix;
        * on any transport fault we retransmit that whole suffix in seq
          order -- acked duplicates return without re-applying.

        One :class:`RetrySchedule` spans consecutive faults and resets
        on any successful acknowledgement, so the deadline bounds each
        outage rather than the whole (arbitrarily long) stream.
        """
        pending: deque[_Frame] = deque()  # sent, ack not yet read
        failed: list[_Frame] = []  # rejected (busy/gap), awaiting resend
        schedule = None
        total = 0
        position = None

        def backoff(kind: str, exc: BaseException):
            nonlocal schedule
            if policy is None:
                raise exc
            if schedule is None:
                schedule = policy.start()
            delay = schedule.next_delay()
            if delay is None:
                raise exc
            self.retries += 1
            count_retry(kind)
            yield (self._sleep, delay)

        def send(frame: _Frame):
            frame.request_id = yield from self._send("feed", self._feed_fields(frame))

        def replay():
            # Every unacknowledged frame, resent in seq order.
            frames = sorted([*failed, *pending], key=lambda frame: frame.seq)
            failed.clear()
            pending.clear()
            pending.extend(frames)
            for frame in frames:
                yield from send(frame)

        def recover(exc: BaseException):
            while True:
                yield from backoff("reconnect", exc)
                try:
                    yield from self._reconnecting()
                    yield from replay()
                    return
                except _TRANSPORT_ERRORS as retry_exc:
                    exc = retry_exc

        def drain_one():
            nonlocal position, schedule
            if failed and not pending:
                # The whole suffix was rejected (busy or gap): back off,
                # then resend it in seq order on the live connection.
                yield from backoff("feed-replay", failed[0].error)
                yield from replay()
                return
            frame = pending.popleft()
            try:
                reply = yield from self._reply(frame.request_id)
            except _TRANSPORT_ERRORS:
                pending.appendleft(frame)  # unacknowledged: replay it
                raise
            except (ServerBusy, SequenceGap) as exc:
                if policy is None:
                    raise
                frame.error = exc
                failed.append(frame)
                return
            if not reply.get("duplicate"):
                position = reply["position"]
            schedule = None  # progress: fresh budget per outage

        def pump(limit: int):
            while len(pending) + len(failed) > limit or (failed and not pending):
                try:
                    yield from drain_one()
                except _TRANSPORT_ERRORS as exc:
                    yield from recover(exc)

        chunks = source.__aiter__() if hasattr(source, "__aiter__") else iter(source)
        try:
            while (chunk := (yield (self._next_chunk, chunks))) is not _END:
                items, deltas = _as_feed_arrays(*chunk)
                if policy is None:
                    frame = _Frame(None, items, deltas)
                else:
                    frame = _Frame(self.next_seq(), items.copy(), deltas.copy())
                total += len(items)
                pending.append(frame)
                try:
                    yield from send(frame)
                except _TRANSPORT_ERRORS as exc:
                    yield from recover(exc)
                yield from pump(window - 1)
            yield from pump(0)
        except (*_TRANSPORT_ERRORS, ProtocolVersionMismatch):
            raise  # no connection left to read acks from
        except Exception:
            # A source, validation or application error: read the acks
            # of the frames still in flight so the stream stays in step.
            for frame in pending:
                with suppress(ServiceError):
                    yield from self._reply(frame.request_id)
            raise
        return {"count": total, "position": position}

    def estimate(self, items) -> np.ndarray:
        """Batched point estimates from the server's merged state.

        Idempotent by construction, so this is the one call
        ``enable_hedging`` races against a backup replica.
        """
        return self._run(self._estimate(np.ascontiguousarray(items, dtype=np.int64)))

    def _estimate(self, items: np.ndarray):
        started = time.perf_counter()
        if self._hedge is None:
            reply = yield from self._call("estimate", items=items)
        else:
            reply, outcome = yield from self._race("estimate", {"items": items})
            self._count_hedge(outcome)
        _observe_estimate(time.perf_counter() - started)
        return unpack_array(reply)

    def query(self, kind: Optional[str] = None):
        """The sketch family's native query (``kind="f2"`` for F2)."""
        return self._run(self._call("query", kind=kind))

    def f2_estimate(self) -> float:
        """Second-moment estimate from the server's merged state."""
        return self.query(kind="f2")

    def snapshot(self, *, unless=_UNVERSIONED) -> bytes | dict:
        """Wire-format snapshot of the server's merged state.

        Returns the snapshot bytes.  Passing ``unless=`` -- the
        ``version`` of an earlier versioned reply, or ``None`` when the
        caller holds no copy yet -- asks for the versioned form instead:
        ``{"version": ..., "snapshot": bytes}``, where ``snapshot`` is
        ``None`` if the server's state is still at version ``unless``
        (nothing was merged, encoded or sent).
        """
        if unless is _UNVERSIONED:
            return self._run(self._call("snapshot"))
        return self._run(self._call("snapshot", unless=unless))

    def load_snapshot(
        self,
        data: bytes,
        position: Optional[int] = None,
        *,
        merge: bool = False,
    ) -> dict:
        """Restore a snapshot into the server's fleet (recovery).

        ``merge=True`` folds the snapshot into the server's live state
        instead of replacing it -- the shard-migration handoff.
        """
        fields = {"snapshot": bytes(data)}
        if position is not None:
            fields["position"] = int(position)
        if merge:
            fields["merge"] = True
        return self._run(self._call("load_snapshot", **fields))

    def checkpoint(self) -> dict:
        """Force a server-side checkpoint write now."""
        return self._run(self._call("checkpoint"))

    def close(self) -> None:
        """Close the connection and any hedge backup (idempotent)."""
        return self._run(self._closing())

    def _closing(self):
        yield from self._drop_backup()
        yield (self._close,)

    # -- hedged reads ---------------------------------------------------------

    def enable_hedging(
        self, host: str, port: int, *, delay: Optional[float] = None
    ) -> None:
        """Arm hedged estimates against a backup replica at ``host:port``.

        The backup connection opens lazily on the first hedge and its
        construction fingerprint must match the primary's.  ``delay`` is
        the seconds to wait on the primary before firing the hedge;
        ``None`` (default) re-derives the p99 from the latency histogram
        on every hedged call (:func:`hedge_delay_from_metrics`).
        """
        self._hedge = ((host, int(port)), delay)

    def _count_hedge(self, outcome: str) -> None:
        self.hedge_outcomes[outcome] = self.hedge_outcomes.get(outcome, 0) + 1
        if _obs_registry.enabled:
            _obs_hedged.add(1, outcome=outcome)

    def _drop_backup(self):
        backup, self._backup = self._backup, None
        if backup is not None:
            yield (backup._close,)

    def _open_backup(self, address: tuple[str, int]):
        if self._backup is not None and self._backup._address == address:
            return self._backup
        yield from self._drop_backup()
        backup = type(self)(address, self._policy, max_frame=self._max_frame)
        try:
            yield from backup._connecting(self._policy)
            mine = (self.server_info or {}).get("fingerprint")
            theirs = (backup.server_info or {}).get("fingerprint")
            if mine is not None and theirs is not None and mine != theirs:
                raise FingerprintMismatch(
                    "hedge backup's construction fingerprint disagrees with "
                    "the primary's; hedged reads need identically "
                    "constructed replicas"
                )
        except Exception:
            yield (backup._close,)
            raise
        self._backup = backup
        return backup

    def _race(self, op: str, fields: dict):
        """Race ``op`` on the primary against the backup; returns
        ``(reply, outcome)``.  The first answer -- a result or an error
        reply -- wins and the loser's request is abandoned; a failed
        backup is closed, dropped, and the primary waited out alone."""
        address, delay = self._hedge
        request_id = yield from self._send(op, fields)
        if delay is None:
            delay = hedge_delay_from_metrics()
        primary_exc: Optional[BaseException] = None
        if (yield (self._wait, [self], max(delay, 0.0))):
            try:
                return (yield from self._reply(request_id)), "fast"
            except _TRANSPORT_ERRORS as exc:
                # Primary died inside the hedge window: hedge anyway --
                # the backup turns a would-be error into a failover.
                primary_exc = exc
        try:
            backup = yield from self._open_backup(address)
            backup_id = yield from backup._send(op, fields)
        except _TRANSPORT_ERRORS:
            # Backup unusable: close and drop it, wait out the primary.
            yield from self._drop_backup()
            if primary_exc is not None:
                raise primary_exc
            return (yield from self._reply(request_id)), "fast"
        except Exception:
            # A refused backup (fingerprint): the primary's reply is due
            # on its connection still, so mark it abandoned.
            self._stale_ids.add(request_id)
            raise
        # Each contender's outstanding request id; the winner is popped.
        racing = {backup: backup_id}
        if primary_exc is None:
            racing[self] = request_id
        while racing:
            ready = yield (self._wait, list(racing), self._policy.op_timeout)
            if not ready:
                _abandon(racing)
                raise OSError("hedged read timed out on both servers")
            winner = self if self in ready else backup
            try:
                reply = yield from winner._reply(racing.pop(winner))
            except _TRANSPORT_ERRORS as exc:
                if winner is self:
                    primary_exc = exc
                    continue
                # Backup died: close and drop it; a live primary answers.
                yield from self._drop_backup()
                if primary_exc is not None:
                    raise exc from primary_exc
                continue
            except Exception:
                _abandon(racing)  # an authoritative error reply wins too
                raise
            _abandon(racing)
            if winner is self:
                return reply, "primary"
            return reply, "backup" if primary_exc is None else "failover"
        raise primary_exc


class SketchClient(_ClientCore):
    """Blocking-socket client for one :class:`SketchServer`.

    Usage::

        with SketchClient.connect("127.0.0.1", port) as client:
            client.feed(items, deltas)
            counts = client.estimate(probe_items)
    """

    _sock: Optional[socket.socket] = None

    def _run(self, steps):
        result = error = None
        while True:
            try:
                step = steps.send(result) if error is None else steps.throw(error)
            except StopIteration as stop:
                return stop.value
            try:
                result, error = step[0](*step[1:]), None
            except Exception as exc:
                result, error = None, exc

    def _open(self) -> None:
        timeout = self._policy.op_timeout
        sock = socket.create_connection(self._address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _close(self) -> None:
        if self._sock is not None:
            with suppress(OSError):
                self._sock.close()

    def _write(self, message: dict) -> None:
        send_message(self._sock, message)

    def _read(self) -> dict:
        return recv_message(self._sock, self._max_frame)

    @staticmethod
    def _wait(clients: list, timeout: Optional[float]) -> list:
        socks = [client._sock for client in clients]
        readable, _, _ = select.select(socks, [], [], timeout)
        return [client for client in clients if client._sock in readable]

    _sleep = staticmethod(time.sleep)

    @staticmethod
    def _next_chunk(chunks):
        return next(chunks, _END)

    def __enter__(self) -> "SketchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncSketchClient(_ClientCore):
    """Asyncio transport of the same client: every call is awaitable."""

    _frames: Optional[FrameProtocol] = None
    #: A frame read already under way (started by ``_wait``); the next
    #: ``_read`` takes its result.
    _reading: Optional[asyncio.Task] = None

    async def _run(self, steps):
        result = error = None
        while True:
            try:
                step = steps.send(result) if error is None else steps.throw(error)
            except StopIteration as stop:
                return stop.value
            try:
                result, error = await step[0](*step[1:]), None
            except Exception as exc:
                result, error = None, exc

    async def _open(self) -> None:
        loop = asyncio.get_running_loop()
        opening = loop.create_task(
            loop.create_connection(
                lambda: FrameProtocol(self._max_frame), *self._address
            )
        )
        # ``asyncio.wait`` times out on a future of its own; ``wait_for``
        # would cancel the running task (Python 3.12), which under
        # :func:`fan_out` is the caller's.
        done = set()
        try:
            done, _ = await asyncio.wait((opening,), timeout=self._policy.op_timeout)
        finally:
            if not done:  # timed out, or the caller was cancelled
                opening.cancel()
                opening.add_done_callback(_close_abandoned)
        if not done:
            raise OSError("connect timed out")
        _, self._frames = opening.result()

    async def _close(self) -> None:
        reading, self._reading = self._reading, None
        if reading is not None:
            reading.cancel()
            await asyncio.gather(reading, return_exceptions=True)
        if self._frames is not None:
            await self._frames.close()

    async def _write(self, message: dict) -> None:
        await self._frames.write(message)

    async def _read(self) -> dict:
        reading, self._reading = self._reading, None
        if reading is not None:
            return await reading
        return await self._read_frame()

    async def _read_frame(self) -> dict:
        try:
            message = await self._frames.read(self._policy.op_timeout)
        except asyncio.TimeoutError:
            raise OSError("reply timed out") from None
        if message is None:
            raise ProtocolError("connection closed while awaiting a reply")
        return message

    @staticmethod
    async def _wait(clients: list, timeout: Optional[float]) -> list:
        for client in clients:
            if client._reading is None:
                client._reading = asyncio.ensure_future(client._read_frame())
        done, _ = await asyncio.wait(
            [client._reading for client in clients],
            timeout=timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        return [client for client in clients if client._reading in done]

    _sleep = staticmethod(asyncio.sleep)

    @staticmethod
    async def _next_chunk(chunks):
        if hasattr(chunks, "__anext__"):
            return await anext(chunks, _END)
        return next(chunks, _END)

    async def __aenter__(self) -> "AsyncSketchClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
