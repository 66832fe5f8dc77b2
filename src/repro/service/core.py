"""`ServerCore`: a sketch server's rules, with no socket, thread or loop.

A :class:`~repro.service.server.SketchServer` is this core behind an
asyncio transport, as the client is one core behind two transports.
:meth:`ServerCore.handle` takes one decoded request and gives back the
answer itself, raises the request's validation error, or returns one
zero-argument job whose result is the answer.  The transport runs every
job on one engine thread in FIFO order, so jobs are the only code that
touches the fleet, and an invalid request never reaches it.

**Exactly-once feeds.**  A feed with a ``client`` id and a ``seq`` is
applied in contiguous per-client seq order.  A seq at or below the
client's last is a duplicate, acked and not applied -- unless its apply
raised: then the resend raises that error again, since acking it would
claim updates the engine rejected and applying it again could double
whatever part of the batch went in.  A seq past the next raises
:class:`~repro.service.protocol.SequenceGap`.  The check runs in the
feed's job, where the engine thread's FIFO makes check-then-apply atomic
across connections: a dying connection's in-flight feed and its
reconnected retransmit never both apply.

**State version.**  ``(epoch, mutations)``: a random per-instance epoch,
so a restarted server never repeats an earlier instance's version, and a
count every feed's apply and every ``load_snapshot`` bumps *before* it
changes the state.  Equal versions from one server mean equal snapshot
bytes, so ``snapshot(unless=...)`` can skip an unchanged state; and as
a feed is acked only after its apply returns, a version a client holds
or predicts is never one whose apply is still running, so the transport
may answer a check at the current version without a job.

**Checkpointing.**  ``checkpoint_path`` arms the ingest front-end's
chunk-boundary :class:`~repro.distributed.checkpoint.CheckpointWriter`
over the merged fleet state; a ``checkpoint`` op forces a write.  Each
checkpoint holds the dedup table -- every client's last seq and
remembered failures -- in the digested body beside the snapshot, so a
server resumed with ``resume_path`` continues each client's seqs where
its state left them: a feed whose predecessors the checkpoint lost meets
a ``SequenceGap``, never an ack.  (``load_snapshot`` restores the state
alone.)
"""

from __future__ import annotations

import itertools
import secrets
import time
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro import __version__
from repro.core.algorithm import StreamAlgorithm
from repro.distributed.checkpoint import CheckpointWriter, load_latest_checkpoint
from repro.distributed.codec import (
    FingerprintMismatch,
    _parse_envelope,
    construction_fingerprint,
    snapshot_class_name,
)
from repro.obs import EXPOSITION_CONTENT_TYPE, RegistryStatsBase, render_prometheus
from repro.parallel.partition import UniversePartitioner
from repro.parallel.sharded import ShardedStreamEngine
from repro.service.protocol import SequenceGap, pack_array, query_method, sanitize_value

__all__ = ["ServerCore", "ServerStats"]

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


def _remembered(kind: str, message: str) -> Exception:
    """A failed feed's error restored from a checkpoint.  Its class is
    named ``kind``, so raising it again gives the same error reply (kind
    and message) the original failure gave."""
    return type(kind, (Exception,), {})(message)


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


class ServerCore:
    """The fleet, the dedup table, the state version and the checkpoints
    of one sketch server; requests in, answers or engine jobs out.

    Besides :meth:`handle`, only :meth:`liveness` and :attr:`version` may
    be read off the engine thread; every other method is a job.

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
    supervise / snapshot_every:
        Passed to :class:`ShardedStreamEngine`: ``supervise=True`` (the
        default here -- a network service should outlive its workers)
        arms the process backend's supervised respawn, with a per-worker
        baseline snapshot refreshed every ``snapshot_every`` journaled
        feeds.  Ignored by the serial backend.
    checkpoint_path / checkpoint_every / checkpoint_keep /
    start_position:
        The ingest/drive checkpoint convention, applied to the merged
        fleet state at batch boundaries; ``checkpoint_keep`` retains
        that many rotated predecessors of the checkpoint file so a
        torn head write can fall back to the newest verifiable one.
    resume_path:
        Restore this checkpoint file -- the fleet state, the stream
        position and the dedup table -- before serving.
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
        chunk_size: Optional[int] = None,
        partitioner: Optional[UniversePartitioner] = None,
        supervise: bool = True,
        snapshot_every: Optional[int] = None,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_keep: int = 0,
        start_position: int = 0,
        resume_path=None,
        alert_engine=None,
    ) -> None:
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
        self.position = start_position
        #: Per-client last-applied feed ``seq``, and per client the
        #: ``seq -> error`` of sequenced feeds whose apply raised.
        self._feed_seqs: dict[str, int] = {}
        self._failed_feeds: dict[str, dict[int, Exception]] = {}
        self._epoch = secrets.token_hex(8)
        self._mutations = 0
        if resume_path is not None:
            checkpoint, _ = load_latest_checkpoint(resume_path)
            self.engine.load_snapshot(checkpoint.snapshot)
            self.position = checkpoint.position
            for client, entry in checkpoint.dedup.items():
                self._feed_seqs[client] = entry["seq"]
                self._failed_feeds[client] = {
                    seq: _remembered(*error) for seq, error in entry["failed"].items()
                }
        self._writer: Optional[CheckpointWriter] = None
        if checkpoint_path is not None:
            self._writer = CheckpointWriter(
                checkpoint_path,
                self.engine.algorithm,
                every=checkpoint_every,
                keep=checkpoint_keep,
                position=self.position,
                dedup=self.dedup_table,
            )
        self.alert_engine = alert_engine
        #: Stable ``server=`` label for this instance's metric series.
        self.label = f"srv{next(_SERVER_SEQ)}"
        self.stats = ServerStats(started_at=time.monotonic(), server=self.label)

    @property
    def version(self) -> tuple[str, int]:
        """The state version ``(epoch, mutations)`` (see the module notes)."""
        return self._epoch, self._mutations

    def handle(self, message: dict, count: Callable[..., None]):
        """Answer one decoded request, or return the job that answers it.

        Raises the request's validation error.  ``count(**amounts)`` adds
        to the caller's request books (``queries=1`` per read request);
        it is called from here, never from a job.
        """
        op = message["op"]
        if op == "hello":
            return {
                "server": "repro-sketch-service",
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
                    raise ValueError("a sequenced feed needs an integer 'seq'")
            return partial(self._feed, items, deltas, client_id, seq)
        if op == "estimate":
            items = message.get("items")
            if not isinstance(items, np.ndarray) or items.dtype != np.int64:
                raise ValueError("estimate needs an int64 'items' array")
            count(queries=1)
            return lambda: pack_array(np.asarray(self.engine.estimate_batch(items)))
        if op == "query":
            count(queries=1)
            method = query_method(message.get("kind"))
            return lambda: sanitize_value(getattr(self.engine.algorithm, method)())
        if op == "snapshot":
            count(queries=1)
            if "unless" not in message:
                return lambda: self.engine.merged().snapshot()
            # A state still at ``unless`` is neither merged, encoded nor
            # shipped.  The version only grows, so a check that mismatches
            # here would mismatch in the job.
            version = self.version
            if message["unless"] == version:
                return {"version": version, "snapshot": None}
            return lambda: {"version": self.version, "snapshot": self.engine.merged().snapshot()}
        if op == "load_snapshot":
            data = message.get("snapshot")
            if not isinstance(data, (bytes, bytearray)):
                raise ValueError("load_snapshot needs snapshot bytes")
            return partial(
                self._load_snapshot,
                bytes(data),
                message.get("position"),
                bool(message.get("merge")),
            )
        if op == "checkpoint":
            return self.checkpoint
        if op == "stats":
            return self._stats
        if op in ("metrics", "alerts"):
            count(queries=1)
            return lambda: sanitize_value(self.telemetry(op))
        raise ValueError(f"unknown op {op!r}")

    def _feed(
        self,
        items: np.ndarray,
        deltas: np.ndarray,
        client_id: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> dict:
        if client_id is not None:
            last = self._feed_seqs.get(client_id)
            if last is not None:
                if seq <= last:
                    failed = self._failed_feeds.get(client_id, {}).get(seq)
                    if failed is not None:
                        raise failed.with_traceback(None)
                    return {"count": 0, "position": self.position, "duplicate": True}
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
        return {"count": len(items), "position": self.position}

    def _load_snapshot(
        self, data: bytes, position: Optional[int], merge: bool = False
    ) -> dict:
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
        return {"position": self.position}

    def dedup_table(self) -> dict:
        """The dedup table as a checkpoint holds it: per client, the last
        seq and each remembered failure as ``(kind, message)``."""
        return {
            client: {
                "seq": last,
                "failed": {
                    seq: (type(exc).__name__, str(exc))
                    for seq, exc in self._failed_feeds.get(client, {}).items()
                },
            }
            for client, last in self._feed_seqs.items()
        }

    def checkpoint(self) -> dict:
        """Write a checkpoint now; the ``checkpoint`` op's answer."""
        if self._writer is None:
            raise RuntimeError(
                "server has no checkpoint_path configured; pass one at "
                "construction to enable checkpointing"
            )
        self._writer.flush(self.position)
        self.stats.bump(checkpoints=1)
        return {"path": str(self._writer.path), "position": self.position}

    def flush(self) -> None:
        """Checkpoint if the position moved since the last checkpoint (a
        no-op without ``checkpoint_path``): the shutdown write."""
        if self._writer is not None and self._writer.last_position != self.position:
            self.checkpoint()

    def liveness(self) -> dict:
        """The liveness fields of ``stats`` and the gateway's ``/healthz``.
        Reads no engine state, so any thread may call it."""
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
        }

    def _stats(self) -> dict:
        return {
            **self.liveness(),
            **self.stats.values(),
            "num_shards": self.engine.num_shards,
            "backend": self.engine.backend,
            "shard_loads": list(self.engine.algorithm.shard_loads()),
        }

    def telemetry(self, op: str) -> dict:
        """The ``metrics`` or ``alerts`` answer, over one fleet-merged obs
        snapshot (taking it flushes process-backend worker pipes, so it
        serializes with feeds like every other state read).

        Without an alert engine the ``alerts`` answer is an empty rule
        list: the op stays uniform across the fleet, so the
        coordinator's merge never special-cases a server.
        """
        if op == "alerts" and self.alert_engine is None:
            payload = {"alerts": [], "firing": 0, "evaluated_at": None}
        else:
            snapshot = self.engine.algorithm.metrics_snapshot()
            if op == "metrics":
                payload = {
                    "snapshot": snapshot,
                    "exposition": render_prometheus(snapshot),
                    "content_type": EXPOSITION_CONTENT_TYPE,
                }
            else:
                self.alert_engine.evaluate(snapshot)
                payload = self.alert_engine.payload()
        return {**payload, "server": self.label}
