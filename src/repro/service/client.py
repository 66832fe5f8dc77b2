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

The sync client is a plain blocking socket (no event loop), which makes
it safe to drive from anywhere -- benchmark harnesses, shell tools,
worker threads.  The async client mirrors it coroutine-for-method for
callers already inside a loop (the coordinator uses it).

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
under a total deadline; the bare ``retry_interval=`` kwarg is a
deprecated fixed-interval shim).  ``feed_chunks(..., retry=policy)``
goes further: every chunk carries this client's opaque ``client_id``
and a contiguous ``seq`` number, so after a dropped connection, a
truncated frame, or a ``busy`` shed the client reconnects and
retransmits everything unacknowledged -- the server's contiguous-seq
dedup acks duplicates without re-applying them, making the whole replay
**exactly-once** (the chaos tests pin byte-identical final state
against a serial engine).  Only idempotent-by-construction traffic
auto-retries: connects, and sequenced feeds.

Hedged reads
------------
``enable_hedging(host, port)`` arms the tail-latency defense for
*replicated* deployments (two servers fed the same stream, verified by
construction fingerprint): an ``estimate`` that has not answered within
``hedge_delay`` seconds is fired again at the backup server and the
first full reply wins.  The loser's reply is drained off its connection
later (never interleaved with a live request), so the one-in-flight
protocol invariant holds on both sockets.  The delay defaults to the
p99 of the ``repro_phase_seconds`` estimate-latency series when
observability is on (:func:`hedge_delay_from_metrics`); outcomes land
in ``repro_hedged_reads_total{outcome=}`` -- ``fast`` (no hedge fired),
``primary`` / ``backup`` (hedge fired, who won), ``failover`` (primary
connection died, backup answered).
"""

from __future__ import annotations

import asyncio
import select
import socket
import time
import uuid
import warnings
from collections import deque
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
    make_request,
    raise_for_reply,
    read_message,
    recv_message,
    send_message,
    unpack_array,
    write_message,
    ProtocolError,
    SequenceGap,
    ServerBusy,
)
from repro.service.retry import RetryPolicy, count_retry

__all__ = [
    "SketchClient",
    "AsyncSketchClient",
    "DEFAULT_HEDGE_DELAY",
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


def _as_feed_arrays(items, deltas) -> tuple[np.ndarray, np.ndarray]:
    items = np.ascontiguousarray(items, dtype=np.int64)
    deltas = np.ascontiguousarray(deltas, dtype=np.int64)
    if items.shape != deltas.shape or items.ndim != 1:
        raise ValueError(
            "feed needs aligned one-dimensional items/deltas arrays, got "
            f"shapes {items.shape} and {deltas.shape}"
        )
    return items, deltas


def _resolve_retry(
    retry: Optional[RetryPolicy],
    retries: int,
    retry_interval: Optional[float],
    *,
    stacklevel: int = 3,
) -> RetryPolicy:
    """Resolve ``connect``'s retry surface onto one :class:`RetryPolicy`.

    ``retry_interval=`` was the fixed-interval spelling; passing it now
    warns and maps onto :meth:`RetryPolicy.fixed` (same schedule,
    byte-compatible behavior).  An explicit ``retry=`` policy always
    wins, silently, so migrated callers never warn.  Bare ``retries=N``
    stays supported and now gets the default capped-exponential shape.
    """
    if retry_interval is not None and retry is None:
        warnings.warn(
            "the retry_interval= kwarg is deprecated; pass "
            "retry=RetryPolicy(...) (or RetryPolicy.fixed(interval, "
            "retries) for the old fixed-interval schedule) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        return RetryPolicy.fixed(retry_interval, retries)
    if retry is not None:
        return retry
    return RetryPolicy(max_attempts=retries + 1)


class SketchClient:
    """Blocking-socket client for one :class:`SketchServer`.

    Usage::

        with SketchClient.connect("127.0.0.1", port) as client:
            client.feed(items, deltas)
            counts = client.estimate(probe_items)
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame: int = DEFAULT_MAX_FRAME,
        *,
        client_id: Optional[str] = None,
    ) -> None:
        self._sock = sock
        self._max_frame = max_frame
        self._request_seq = 0
        self.server_info: Optional[dict] = None
        #: Opaque identity for sequenced (exactly-once) feeds; stable
        #: across reconnects of this client object.
        self.client_id = client_id or uuid.uuid4().hex
        self._feed_seq = 0
        #: Retries this client consumed (connects + feed replays).
        self.retries = 0
        self._address: Optional[tuple[str, int]] = None
        self._policy: Optional[RetryPolicy] = None
        self._hello = False
        #: Abandoned hedged-request ids whose replies are still due on
        #: this connection; ``_drain`` discards them on arrival.
        self._stale_ids: set[int] = set()
        self._hedge: Optional[dict] = None
        #: Functional hedged-read accounting (works under ``REPRO_OBS=0``).
        self.hedge_outcomes: dict[str, int] = {}

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry_interval: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        hello: bool = True,
        client_id: Optional[str] = None,
    ) -> "SketchClient":
        """Connect under a retry policy and perform the ``hello`` handshake.

        ``retry=`` takes a full :class:`RetryPolicy` (backoff, deadline,
        per-op timeout); bare ``retries=N`` gets the default
        capped-exponential shape.  ``retry_interval=`` is deprecated --
        it warns and maps onto :meth:`RetryPolicy.fixed`.  The handshake
        pins the server's sketch class and construction fingerprint in
        ``client.server_info``.
        """
        policy = _resolve_retry(retry, retries, retry_interval)
        client = cls(
            cls._open_socket(host, port, policy),
            max_frame=max_frame,
            client_id=client_id,
        )
        client._address = (host, port)
        client._policy = policy
        client._hello = hello
        if hello:
            client.server_info = client.hello()
        return client

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    def _open_socket(
        host: str, port: int, policy: RetryPolicy
    ) -> socket.socket:
        schedule = policy.start()
        while True:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=policy.op_timeout
                )
                break
            except OSError:
                delay = schedule.next_delay()
                if delay is None:
                    raise
                count_retry("connect")
                time.sleep(delay)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(policy.op_timeout)
        return sock

    def _reopen(self) -> None:
        """One fresh connection attempt to the remembered address.

        Keeps this client's identity (``client_id``, feed ``seq``
        counter) so the server's dedup recognizes replays.  A single
        attempt by design: the resilient feed loop owns backoff, so a
        refused connect surfaces as ``OSError`` for it to schedule.
        """
        if self._address is None:
            raise RuntimeError(
                "cannot reconnect: this client was not built via connect()"
            )
        try:
            self._sock.close()
        except OSError:
            pass
        policy = self._policy or RetryPolicy(max_attempts=1)
        sock = socket.create_connection(
            self._address, timeout=policy.op_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(policy.op_timeout)
        self._sock = sock
        self._stale_ids.clear()
        if self._hello:
            self.server_info = self.hello()

    def _send(self, op: str, **fields) -> int:
        self._request_seq += 1
        send_message(self._sock, make_request(op, self._request_seq, **fields))
        return self._request_seq

    def _drain(self, request_id: int):
        while True:
            message = recv_message(self._sock, self._max_frame)
            reply_id = message.get("id")
            if reply_id in self._stale_ids:
                # A hedged request this client abandoned: its reply
                # arrives here, out of band -- discard and keep reading.
                self._stale_ids.discard(reply_id)
                continue
            return raise_for_reply(message, request_id)

    def _request(self, op: str, **fields):
        return self._drain(self._send(op, **fields))

    # -- the call surface ---------------------------------------------------

    def hello(self) -> dict:
        """Server identity: sketch class, fingerprint, fleet shape."""
        return self._request("hello")

    def ping(self) -> dict:
        """Liveness probe; returns ``{"pong": True, "position": ...}``."""
        return self._request("ping")

    def stats(self) -> dict:
        """The server's operational monitoring counters."""
        return self._request("stats")

    def metrics(self) -> dict:
        """The server's fleet-merged telemetry.

        Returns ``{"server", "snapshot", "exposition", "content_type"}``
        -- the obs-registry snapshot (mergeable with other servers' via
        :func:`repro.obs.merge_snapshots`) plus its Prometheus text
        rendering.
        """
        return self._request("metrics")

    def alerts(self) -> dict:
        """The server's current alert states.

        Returns ``{"server", "alerts", "firing", "evaluated_at"}``; the
        rule list is empty on servers without an attached
        :class:`~repro.obs.alerts.AlertEngine`.  Each call runs one
        evaluation pass on the server, so polling cadence is evaluation
        cadence.
        """
        return self._request("alerts")

    def feed(self, items, deltas, *, seq: Optional[int] = None) -> dict:
        """Send one update batch; returns ``{"count", "position"}``.

        With ``seq=`` the batch is sequenced under this client's
        identity (the exactly-once dedup channel ``feed_chunks`` uses);
        resending the *same* seq after a lost acknowledgement is safe.
        """
        items, deltas = _as_feed_arrays(items, deltas)
        fields = {"items": items, "deltas": deltas}
        if seq is not None:
            fields.update(client=self.client_id, seq=int(seq))
        return self._request("feed", **fields)

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

        With ``retry=`` a policy, every chunk is sequenced (``client`` +
        ``seq`` fields) and the stream survives faults: a dropped or
        corrupted connection triggers reconnect-and-retransmit of every
        unacknowledged chunk, and a ``busy``/gap rejection backs off and
        resends -- the server's contiguous-seq dedup makes all of it
        exactly-once.  Without it, behavior is the original fail-fast
        pipeline.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if retry is not None:
            return self._feed_chunks_resilient(source, window, retry)
        pending: deque[int] = deque()
        total = 0
        position = None
        for items, deltas in source:
            items, deltas = _as_feed_arrays(items, deltas)
            total += len(items)
            pending.append(self._send("feed", items=items, deltas=deltas))
            if len(pending) >= window:
                position = self._drain(pending.popleft())["position"]
        while pending:
            position = self._drain(pending.popleft())["position"]
        return {"count": total, "position": position}

    def _feed_chunks_resilient(
        self, source, window: int, policy: RetryPolicy
    ) -> dict:
        """Sequenced feed pipeline with reconnect-and-replay.

        Invariants that make this exactly-once:

        * every chunk gets the next contiguous ``seq`` *before* its
          first send and keeps it across resends;
        * the server rejects out-of-order seqs (:class:`SequenceGap`)
          and sheds only *before* the engine (:class:`ServerBusy`), so
          the unacknowledged set is always a contiguous suffix;
        * on any transport fault we retransmit that whole suffix in seq
          order -- acked duplicates return without re-applying.

        One :class:`RetrySchedule` spans consecutive faults and resets
        on any successful acknowledgement, so the deadline bounds each
        outage rather than the whole (arbitrarily long) stream.
        """
        if self._address is None:
            raise RuntimeError(
                "feed_chunks(retry=...) needs a client built via connect()"
            )
        pending: deque[list] = deque()  # [request_id, seq, items, deltas]
        failed: list[list] = []  # rejected (busy/gap), awaiting resend
        state = {"schedule": None}
        total = 0
        position = None

        def backoff(kind: str, exc: BaseException) -> None:
            if state["schedule"] is None:
                state["schedule"] = policy.start()
            delay = state["schedule"].next_delay()
            if delay is None:
                raise exc
            self.retries += 1
            count_retry(kind)
            time.sleep(delay)

        def send_entry(entry: list) -> None:
            entry[0] = self._send(
                "feed",
                items=entry[2],
                deltas=entry[3],
                client=self.client_id,
                seq=entry[1],
            )

        def requeue_all() -> None:
            entries = sorted([*failed, *pending], key=lambda entry: entry[1])
            failed.clear()
            pending.clear()
            pending.extend(entries)

        def reopen_and_replay(exc: BaseException) -> None:
            requeue_all()
            while True:
                backoff("reconnect", exc)
                try:
                    self._reopen()
                    for entry in pending:
                        send_entry(entry)
                except (OSError, ProtocolError) as retry_exc:
                    exc = retry_exc
                    continue
                return

        def drain_step() -> None:
            nonlocal position
            if failed and not pending:
                # Whole suffix was rejected (busy or gap): back off,
                # then resend it in seq order on the live connection.
                backoff("feed-replay", failed[0][4])
                requeue_all()
                for entry in pending:
                    send_entry(entry)
                return
            entry = pending[0]
            try:
                reply = self._drain(entry[0])
            except (ServerBusy, SequenceGap) as exc:
                pending.popleft()
                failed.append(entry[:4] + [exc])
                return
            pending.popleft()
            if not reply.get("duplicate"):
                position = reply["position"]
            state["schedule"] = None  # progress: fresh budget per outage

        def pump(limit: int) -> None:
            while len(pending) + len(failed) > limit or (
                failed and not pending
            ):
                try:
                    drain_step()
                except (OSError, ProtocolError) as exc:
                    reopen_and_replay(exc)

        for items, deltas in source:
            items, deltas = _as_feed_arrays(items, deltas)
            total += len(items)
            self._feed_seq += 1
            entry = [None, self._feed_seq, items, deltas]
            pending.append(entry)
            try:
                send_entry(entry)
            except (OSError, ProtocolError) as exc:
                reopen_and_replay(exc)
            pump(window - 1)
        pump(0)
        return {"count": total, "position": position}

    def estimate(self, items) -> np.ndarray:
        """Batched point estimates from the server's merged state.

        Idempotent by construction, so this is the one call
        ``enable_hedging`` races against a backup replica.
        """
        items = np.ascontiguousarray(items, dtype=np.int64)
        if self._hedge is not None:
            return unpack_array(self._hedged_request("estimate", items=items))
        started = time.perf_counter()
        reply = self._request("estimate", items=items)
        _observe_estimate(time.perf_counter() - started)
        return unpack_array(reply)

    # -- hedged reads -------------------------------------------------------

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
        self._hedge = {"address": (host, int(port)), "delay": delay, "client": None}

    def _count_hedge(self, outcome: str) -> None:
        self.hedge_outcomes[outcome] = self.hedge_outcomes.get(outcome, 0) + 1
        if _obs_registry.enabled:
            _obs_hedged.add(1, outcome=outcome)

    def _hedge_backup(self) -> "SketchClient":
        hedge = self._hedge
        backup = hedge["client"]
        if backup is None or backup._sock.fileno() < 0:
            host, port = hedge["address"]
            backup = SketchClient.connect(
                host, port, retry=self._policy or RetryPolicy(max_attempts=1)
            )
            mine = (self.server_info or {}).get("fingerprint")
            theirs = (backup.server_info or {}).get("fingerprint")
            if mine is not None and theirs is not None and mine != theirs:
                backup.close()
                raise FingerprintMismatch(
                    "hedge backup's construction fingerprint disagrees with "
                    "the primary's; hedged reads need identically "
                    "constructed replicas"
                )
            hedge["client"] = backup
        return backup

    def _hedged_request(self, op: str, **fields):
        hedge = self._hedge
        started = time.perf_counter()
        request_id = self._send(op, **fields)
        delay = hedge["delay"]
        if delay is None:
            delay = hedge_delay_from_metrics()
        primary_exc: Optional[BaseException] = None
        readable, _, _ = select.select([self._sock], [], [], max(delay, 0.0))
        if readable:
            try:
                reply = self._drain(request_id)
            except (OSError, ProtocolError) as exc:
                # Primary died inside the hedge window: hedge anyway --
                # the backup turns a would-be error into a failover.
                primary_exc = exc
            else:
                _observe_estimate(time.perf_counter() - started)
                self._count_hedge("fast")
                return reply
        try:
            backup = self._hedge_backup()
            backup_id = backup._send(op, **fields)
        except FingerprintMismatch:
            raise
        except (OSError, ProtocolError):
            # Backup unusable: fall back to waiting out the primary.
            hedge["client"] = None
            if primary_exc is not None:
                raise primary_exc
            reply = self._drain(request_id)
            _observe_estimate(time.perf_counter() - started)
            self._count_hedge("fast")
            return reply
        timeout = self._policy.op_timeout if self._policy else None
        backup_alive = True
        while True:
            socks = []
            if primary_exc is None:
                socks.append(self._sock)
            if backup_alive:
                socks.append(backup._sock)
            if not socks:
                raise primary_exc
            readable, _, _ = select.select(socks, [], [], timeout)
            if not readable:
                raise OSError("hedged read timed out on both servers")
            if primary_exc is None and self._sock in readable:
                try:
                    reply = self._drain(request_id)
                except (OSError, ProtocolError) as exc:
                    primary_exc = exc
                    continue
                except Exception:
                    # The primary answered with an authoritative error;
                    # the backup's eventual reply is abandoned.
                    if backup_alive:
                        backup._stale_ids.add(backup_id)
                    raise
                if backup_alive:
                    backup._stale_ids.add(backup_id)
                _observe_estimate(time.perf_counter() - started)
                self._count_hedge("primary")
                return reply
            if backup_alive and backup._sock in readable:
                try:
                    reply = backup._drain(backup_id)
                except (OSError, ProtocolError) as exc:
                    backup.close()
                    hedge["client"] = None
                    backup_alive = False
                    if primary_exc is not None:
                        raise exc from primary_exc
                    continue
                except Exception:
                    if primary_exc is None:
                        self._stale_ids.add(request_id)
                    raise
                if primary_exc is None:
                    self._stale_ids.add(request_id)
                    outcome = "backup"
                else:
                    outcome = "failover"
                _observe_estimate(time.perf_counter() - started)
                self._count_hedge(outcome)
                return reply

    def query(self, kind: Optional[str] = None):
        """The sketch family's native query (``kind="f2"`` for F2)."""
        return self._request("query", kind=kind)

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
            return self._request("snapshot")
        return self._request("snapshot", unless=unless)

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
        return self._request("load_snapshot", **fields)

    def checkpoint(self) -> dict:
        """Force a server-side checkpoint write now."""
        return self._request("checkpoint")

    def close(self) -> None:
        """Close the socket and any hedge backup (idempotent)."""
        if self._hedge is not None and self._hedge.get("client") is not None:
            self._hedge["client"].close()
            self._hedge["client"] = None
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SketchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncSketchClient:
    """Asyncio counterpart of :class:`SketchClient` (same surface)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = DEFAULT_MAX_FRAME,
        *,
        client_id: Optional[str] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._request_seq = 0
        self.server_info: Optional[dict] = None
        self.client_id = client_id or uuid.uuid4().hex
        self._feed_seq = 0
        self.retries = 0
        self._address: Optional[tuple[str, int]] = None
        self._policy: Optional[RetryPolicy] = None
        self._hello = False
        #: A hedged loser's drain task still reading this connection;
        #: awaited (and its reply discarded) before the next send.
        self._pending_drain: Optional[asyncio.Task] = None
        self._hedge: Optional[dict] = None
        self.hedge_outcomes: dict[str, int] = {}

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry_interval: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        hello: bool = True,
        client_id: Optional[str] = None,
    ) -> "AsyncSketchClient":
        """See :meth:`SketchClient.connect` (same retry surface)."""
        policy = _resolve_retry(retry, retries, retry_interval)
        schedule = policy.start()
        while True:
            try:
                reader, writer = await cls._open_stream(host, port, policy)
                break
            except OSError:
                delay = schedule.next_delay()
                if delay is None:
                    raise
                count_retry("connect")
                await asyncio.sleep(delay)
        client = cls(reader, writer, max_frame=max_frame, client_id=client_id)
        client._address = (host, port)
        client._policy = policy
        client._hello = hello
        if hello:
            client.server_info = await client.hello()
        return client

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    async def _open_stream(host: str, port: int, policy: RetryPolicy):
        opening = asyncio.open_connection(host, port)
        if policy.op_timeout is not None:
            try:
                return await asyncio.wait_for(opening, policy.op_timeout)
            except asyncio.TimeoutError:
                raise OSError("connect timed out") from None
        return await opening

    async def _reopen(self) -> None:
        """See :meth:`SketchClient._reopen` (one attempt, same identity)."""
        if self._address is None:
            raise RuntimeError(
                "cannot reconnect: this client was not built via connect()"
            )
        await self._cancel_pending()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        policy = self._policy or RetryPolicy(max_attempts=1)
        self._reader, self._writer = await self._open_stream(
            self._address[0], self._address[1], policy
        )
        if self._hello:
            self.server_info = await self.hello()

    async def _settle(self) -> None:
        """Wait out an abandoned hedge drain before touching the stream.

        The loser of a hedged race keeps a task reading its own reply
        off this connection; letting a new request interleave with it
        would desynchronize the one-in-flight protocol.  The task's
        result (or failure) is discarded -- the race already answered.
        """
        task = self._pending_drain
        if task is None:
            return
        self._pending_drain = None
        try:
            await task
        except Exception:
            pass

    async def _cancel_pending(self) -> None:
        """Drop an abandoned drain outright (the connection is going away)."""
        task = self._pending_drain
        if task is None:
            return
        self._pending_drain = None
        task.cancel()
        try:
            await task
        except BaseException:
            pass

    async def _send(self, op: str, **fields) -> int:
        await self._settle()
        self._request_seq += 1
        await write_message(
            self._writer, make_request(op, self._request_seq, **fields)
        )
        return self._request_seq

    async def _drain(self, request_id: int):
        message = await read_message(self._reader, self._max_frame)
        if message is None:
            raise ProtocolError("connection closed while awaiting a reply")
        return raise_for_reply(message, request_id)

    async def _drain_timed(self, request_id: int):
        timeout = self._policy.op_timeout if self._policy else None
        if timeout is None:
            return await self._drain(request_id)
        try:
            return await asyncio.wait_for(self._drain(request_id), timeout)
        except asyncio.TimeoutError:
            raise OSError("reply timed out") from None

    async def _request(self, op: str, **fields):
        return await self._drain(await self._send(op, **fields))

    # -- the call surface ---------------------------------------------------

    async def hello(self) -> dict:
        """See :meth:`SketchClient.hello`."""
        return await self._request("hello")

    async def ping(self) -> dict:
        """See :meth:`SketchClient.ping`."""
        return await self._request("ping")

    async def stats(self) -> dict:
        """See :meth:`SketchClient.stats`."""
        return await self._request("stats")

    async def metrics(self) -> dict:
        """See :meth:`SketchClient.metrics`."""
        return await self._request("metrics")

    async def alerts(self) -> dict:
        """See :meth:`SketchClient.alerts`."""
        return await self._request("alerts")

    async def feed(self, items, deltas, *, seq: Optional[int] = None) -> dict:
        """See :meth:`SketchClient.feed` (``seq=`` sequences the batch)."""
        items, deltas = _as_feed_arrays(items, deltas)
        fields = {"items": items, "deltas": deltas}
        if seq is not None:
            fields.update(client=self.client_id, seq=int(seq))
        return await self._request("feed", **fields)

    async def feed_chunks(
        self,
        source,
        window: int = DEFAULT_WINDOW,
        retry: Optional[RetryPolicy] = None,
    ) -> dict:
        """Pipelined chunk streaming (see :meth:`SketchClient.feed_chunks`).

        ``source`` may be a sync or async iterable of chunk pairs.  With
        ``retry=`` a policy, chunks are sequenced and the stream
        reconnects and retransmits exactly-once, as in the sync client.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if retry is not None:
            return await self._feed_chunks_resilient(source, window, retry)
        pending: deque[int] = deque()
        total = 0
        position = None

        async def _push(items, deltas) -> None:
            nonlocal position, total
            items, deltas = _as_feed_arrays(items, deltas)
            total += len(items)
            pending.append(await self._send("feed", items=items, deltas=deltas))
            if len(pending) >= window:
                position = (await self._drain(pending.popleft()))["position"]

        if hasattr(source, "__aiter__"):
            async for items, deltas in source:
                await _push(items, deltas)
        else:
            for items, deltas in source:
                await _push(items, deltas)
        while pending:
            position = (await self._drain(pending.popleft()))["position"]
        return {"count": total, "position": position}

    async def _feed_chunks_resilient(
        self, source, window: int, policy: RetryPolicy
    ) -> dict:
        """Async twin of :meth:`SketchClient._feed_chunks_resilient`."""
        if self._address is None:
            raise RuntimeError(
                "feed_chunks(retry=...) needs a client built via connect()"
            )
        pending: deque[list] = deque()
        failed: list[list] = []
        state = {"schedule": None}
        total = 0
        position = None

        async def backoff(kind: str, exc: BaseException) -> None:
            if state["schedule"] is None:
                state["schedule"] = policy.start()
            delay = state["schedule"].next_delay()
            if delay is None:
                raise exc
            self.retries += 1
            count_retry(kind)
            await asyncio.sleep(delay)

        async def send_entry(entry: list) -> None:
            entry[0] = await self._send(
                "feed",
                items=entry[2],
                deltas=entry[3],
                client=self.client_id,
                seq=entry[1],
            )

        def requeue_all() -> None:
            entries = sorted([*failed, *pending], key=lambda entry: entry[1])
            failed.clear()
            pending.clear()
            pending.extend(entries)

        async def reopen_and_replay(exc: BaseException) -> None:
            requeue_all()
            while True:
                await backoff("reconnect", exc)
                try:
                    await self._reopen()
                    for entry in pending:
                        await send_entry(entry)
                except (OSError, ProtocolError) as retry_exc:
                    exc = retry_exc
                    continue
                return

        async def drain_step() -> None:
            nonlocal position
            if failed and not pending:
                await backoff("feed-replay", failed[0][4])
                requeue_all()
                for entry in pending:
                    await send_entry(entry)
                return
            entry = pending[0]
            try:
                reply = await self._drain_timed(entry[0])
            except (ServerBusy, SequenceGap) as exc:
                pending.popleft()
                failed.append(entry[:4] + [exc])
                return
            pending.popleft()
            if not reply.get("duplicate"):
                position = reply["position"]
            state["schedule"] = None

        async def pump(limit: int) -> None:
            while len(pending) + len(failed) > limit or (
                failed and not pending
            ):
                try:
                    await drain_step()
                except (OSError, ProtocolError) as exc:
                    await reopen_and_replay(exc)

        async def push(items, deltas) -> None:
            nonlocal total
            items, deltas = _as_feed_arrays(items, deltas)
            total += len(items)
            self._feed_seq += 1
            entry = [None, self._feed_seq, items, deltas]
            pending.append(entry)
            try:
                await send_entry(entry)
            except (OSError, ProtocolError) as exc:
                await reopen_and_replay(exc)
            await pump(window - 1)

        if hasattr(source, "__aiter__"):
            async for items, deltas in source:
                await push(items, deltas)
        else:
            for items, deltas in source:
                await push(items, deltas)
        await pump(0)
        return {"count": total, "position": position}

    async def estimate(self, items) -> np.ndarray:
        """See :meth:`SketchClient.estimate` (hedged when armed)."""
        items = np.ascontiguousarray(items, dtype=np.int64)
        if self._hedge is not None:
            return unpack_array(
                await self._hedged_request("estimate", items=items)
            )
        started = time.perf_counter()
        reply = await self._request("estimate", items=items)
        _observe_estimate(time.perf_counter() - started)
        return unpack_array(reply)

    # -- hedged reads -------------------------------------------------------

    def enable_hedging(
        self, host: str, port: int, *, delay: Optional[float] = None
    ) -> None:
        """See :meth:`SketchClient.enable_hedging`."""
        self._hedge = {"address": (host, int(port)), "delay": delay, "client": None}

    def _count_hedge(self, outcome: str) -> None:
        self.hedge_outcomes[outcome] = self.hedge_outcomes.get(outcome, 0) + 1
        if _obs_registry.enabled:
            _obs_hedged.add(1, outcome=outcome)

    async def _hedge_backup(self) -> "AsyncSketchClient":
        hedge = self._hedge
        backup = hedge["client"]
        if backup is None:
            host, port = hedge["address"]
            backup = await AsyncSketchClient.connect(
                host, port, retry=self._policy or RetryPolicy(max_attempts=1)
            )
            mine = (self.server_info or {}).get("fingerprint")
            theirs = (backup.server_info or {}).get("fingerprint")
            if mine is not None and theirs is not None and mine != theirs:
                await backup.close()
                raise FingerprintMismatch(
                    "hedge backup's construction fingerprint disagrees with "
                    "the primary's; hedged reads need identically "
                    "constructed replicas"
                )
            hedge["client"] = backup
        return backup

    @staticmethod
    def _abandon(owner: "AsyncSketchClient", task: asyncio.Task) -> None:
        """Park a losing drain on its connection (settled pre-next-send)."""
        if task.done():
            if not task.cancelled():
                task.exception()  # retrieve, so failures never warn
        else:
            owner._pending_drain = task

    async def _hedged_request(self, op: str, **fields):
        hedge = self._hedge
        started = time.perf_counter()
        request_id = await self._send(op, **fields)
        delay = hedge["delay"]
        if delay is None:
            delay = hedge_delay_from_metrics()
        primary = asyncio.ensure_future(self._drain_timed(request_id))
        done, _ = await asyncio.wait({primary}, timeout=max(delay, 0.0))
        primary_exc: Optional[BaseException] = None
        if done:
            try:
                reply = primary.result()
            except (OSError, ProtocolError) as exc:
                # Primary died inside the hedge window: hedge anyway --
                # the backup turns a would-be error into a failover.
                primary_exc = exc
            else:
                # Server-side (application) errors raised faithfully above.
                _observe_estimate(time.perf_counter() - started)
                self._count_hedge("fast")
                return reply
        try:
            backup = await self._hedge_backup()
            backup_id = await backup._send(op, **fields)
        except FingerprintMismatch:
            self._abandon(self, primary)
            raise
        except (OSError, ProtocolError):
            hedge["client"] = None
            if primary_exc is not None:
                raise primary_exc
            reply = await primary
            _observe_estimate(time.perf_counter() - started)
            self._count_hedge("fast")
            return reply
        secondary = asyncio.ensure_future(backup._drain_timed(backup_id))
        if primary_exc is not None:
            reply = await secondary  # backup's own failure propagates
            _observe_estimate(time.perf_counter() - started)
            self._count_hedge("failover")
            return reply
        done, _ = await asyncio.wait(
            {primary, secondary}, return_when=asyncio.FIRST_COMPLETED
        )
        if primary in done:
            try:
                reply = primary.result()
            except (OSError, ProtocolError):
                # Primary connection died mid-read: the backup is now
                # the only answer.  Its own failure propagates.
                reply = await secondary
                _observe_estimate(time.perf_counter() - started)
                self._count_hedge("failover")
                return reply
            except Exception:
                self._abandon(backup, secondary)
                raise
            self._abandon(backup, secondary)
            _observe_estimate(time.perf_counter() - started)
            self._count_hedge("primary")
            return reply
        try:
            reply = secondary.result()
        except (OSError, ProtocolError):
            hedge["client"] = None
            reply = await primary  # wait out the primary alone
            _observe_estimate(time.perf_counter() - started)
            self._count_hedge("primary")
            return reply
        except Exception:
            self._abandon(self, primary)
            raise
        self._abandon(self, primary)
        _observe_estimate(time.perf_counter() - started)
        self._count_hedge("backup")
        return reply

    async def query(self, kind: Optional[str] = None):
        """See :meth:`SketchClient.query`."""
        return await self._request("query", kind=kind)

    async def f2_estimate(self) -> float:
        """See :meth:`SketchClient.f2_estimate`."""
        return await self.query(kind="f2")

    async def snapshot(self, *, unless=_UNVERSIONED) -> bytes | dict:
        """See :meth:`SketchClient.snapshot` (``unless=`` for the
        versioned form)."""
        if unless is _UNVERSIONED:
            return await self._request("snapshot")
        return await self._request("snapshot", unless=unless)

    async def load_snapshot(
        self,
        data: bytes,
        position: Optional[int] = None,
        *,
        merge: bool = False,
    ) -> dict:
        """See :meth:`SketchClient.load_snapshot` (``merge=True`` folds in)."""
        fields = {"snapshot": bytes(data)}
        if position is not None:
            fields["position"] = int(position)
        if merge:
            fields["merge"] = True
        return await self._request("load_snapshot", **fields)

    async def checkpoint(self) -> dict:
        """See :meth:`SketchClient.checkpoint`."""
        return await self._request("checkpoint")

    async def close(self) -> None:
        """Close the connection and wait for the transport to drop."""
        await self._cancel_pending()
        if self._hedge is not None and self._hedge.get("client") is not None:
            backup = self._hedge["client"]
            self._hedge["client"] = None
            await backup.close()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "AsyncSketchClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
