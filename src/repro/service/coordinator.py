"""`SketchCoordinator`: universe partitioning across a fleet of servers.

Where :class:`~repro.service.server.SketchServer` scales one host (its
shards share a process pool), the coordinator scales *hosts*: it owns
the :class:`~repro.parallel.partition.UniversePartitioner`, routes each
update batch's per-server slices to the servers owning them, and fans
state back in as wire-format snapshots -- the same
fingerprint-verified ``restore`` / ``merge_snapshot`` payloads the
in-process merge protocol uses, now routed between worker pools over
TCP.  Because every server's fleet is built from the same factory (the
``hello`` handshake proves it: all construction fingerprints must
coincide), the merged result is bit-identical to one engine fed the
whole stream -- the multi-host deployment inherits the single-engine
white-box semantics unchanged.

Checkpoint/recovery rides the same wire: ``checkpoint(path)`` pulls and
merges all server snapshots and writes one standard checkpoint file
(:mod:`repro.distributed.checkpoint`); ``recover(path)`` pushes the
checkpointed merged state into server 0 of a fresh fleet -- merging
being exact, a fleet holding the merged state in one server and nothing
in the others continues exactly like the uninterrupted deployment, and
the caller replays the stream tail from the returned position.

Failover
--------
The coordinator keeps one :class:`~repro.distributed.replay.ReplayLog`
per server: a cache entry (seeded at ``connect``, refreshed by every
:meth:`merged` read that rebuilds, every ``journal_every``-chunk
rotation, and the :meth:`readmit` / :meth:`migrate_server` hand-offs)
plus a *journal* of the update slices acknowledged since.  Entry plus
journal equals the server's acknowledged state -- the invariant every
path below leans on.  The entry is the bytes the server last shipped,
or a live *replica* a rotation folded the journal into.

Each cache entry is tagged with the state version the server issued
with it: a random per-instance epoch plus a count of applied feeds and
snapshot loads.  Every refresh sends that version as ``snapshot``'s
``unless``, and a server still at it replies with the version alone --
no merge, encode or transfer, and no wait for the server's engine
thread.  The merged view :meth:`merged` hands out is keyed on the
versions it reflects, and a read ends in one of three ways, recorded in
``last_read["view"]``:

* ``"reused"`` -- no active server changed since the view was made, so
  it is handed out again;
* ``"folded"`` -- the coordinator's own feeds are the only change.
  Each server is asked for its state unless it is at its *predicted*
  version: the cached version plus one mutation per journaled slice (a
  server bumps its count once per applied feed).  When every server
  answers with its version alone, each holds exactly entry plus
  journal, so a fork of the view fed the journaled slices it does not
  hold yet is the fleet's state: nothing is encoded, shipped, restored
  or merged.  A view only ever holds each server's entry plus a prefix
  of its journal, so the fold is exact;
* ``"rebuilt"`` -- anything else: a write by another client, a restart
  (new epoch), :meth:`recover`, a migration or readmission, a slice a
  server rejected, a journal rotation, or more updates to fold than the
  server's last snapshot has 8-byte words (recorded at each pull),
  where repeating the servers' work per update costs more than a pull,
  whose hash, transfer and copy scale with the snapshot's bytes.
  Changed servers ship their bytes, and the view is rebuilt from the
  cache entries (:func:`~repro.distributed.replay.merge_states`).

A journal rotation applies the same rule to the cache itself.  For each
server whose journal passes the size rule it asks for the state unless
the server is at its predicted version; a server at it holds exactly
entry plus journal, so the coordinator folds the journal into the
entry (:meth:`ReplayLog.fold <repro.distributed.replay.ReplayLog.fold>`):
no server encodes a snapshot, and nothing is shipped or restored after
the first time.  Any other answer, or a journal past the rule, pulls
the server's bytes, and a pull drops the replica without restoring
anything.  A replica is encoded only to push into a readmitted server
or a migration's destination.

Because the *server* issues the version, nothing that changes a
server's state behind the coordinator's back can pass for a match.  A
read's fold leaves the logs alone.

When a server is down, :meth:`merged` *degrades* instead of failing:
the dead server contributes its cache entry, the read is annotated
in ``coordinator.last_read``, and
``repro_coordinator_degraded_reads_total`` counts it -- an estimate
served during an outage is old news for the dead shard's items, never
wrong news for the rest.

Two recovery paths close the loop:

* :meth:`readmit` -- a *returning* server reconnects (same client
  identity, so the server-side feed dedup keeps working), re-verifies
  the construction fingerprint, and -- when it came back empty -- is
  restored from the cache and replayed the journal, then the cache is
  refreshed from its live state;
* :meth:`migrate_server` -- a *permanently lost* server's state moves
  to a survivor: its cache entry is folded into the destination via
  a fingerprint-verified ``load_snapshot(merge=True)``, its journal is
  replayed as sequenced feeds, and the routing table atomically remaps
  its partitions.  In-flight :meth:`feed` retries re-resolve routing on
  every attempt, so they replay against the new owner exactly-once.

Both run under the coordinator's feed lock (one request in flight per
connection; routing swaps happen only between chunk boundaries).  The
background :class:`~repro.service.membership.FleetProber` drives both
automatically -- see :meth:`start_prober`.

The coordinator is asyncio-native (it multiplexes N server connections
concurrently); wrap calls with :func:`asyncio.run` from sync code.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.algorithm import StreamAlgorithm
from repro.distributed.checkpoint import load_checkpoint, save_checkpoint
from repro.distributed.codec import (
    FingerprintMismatch,
    construction_fingerprint,
)
from repro.distributed.replay import ReplayLog, absorb, merge_states
from repro.obs import (
    DEGRADED_READS_METRIC,
    MIGRATIONS_ACTIVE_METRIC,
    SHARD_MIGRATIONS_METRIC,
    get_registry as _get_obs_registry,
)
from repro.parallel.partition import UniversePartitioner
from repro.service.client import AsyncSketchClient, fan_out
from repro.service.protocol import ProtocolError, ServerBusy, query_method
from repro.service.retry import RetryPolicy, count_retry

__all__ = ["SketchCoordinator"]

#: Feed failures worth resending: the slice may not have reached the
#: engine.  Anything else is the engine's answer to the slice itself.
_TRANSIENT = (OSError, ProtocolError, ServerBusy)

_obs_registry = _get_obs_registry()
_obs_degraded = _obs_registry.counter(
    DEGRADED_READS_METRIC,
    "Coordinator reads answered with at least one stale cached shard",
)
_obs_migrations = _obs_registry.counter(
    SHARD_MIGRATIONS_METRIC,
    "Cross-server shard migrations completed",
)
_obs_migrations_active = _obs_registry.gauge(
    MIGRATIONS_ACTIVE_METRIC,
    "Shard migrations currently executing",
)


async def _every(calls) -> list:
    """:func:`~repro.service.client.fan_out`, raising the first failure
    (in call order) once every call has finished.

    Unlike ``asyncio.gather`` without ``return_exceptions``, no call is
    left running, unobserved, after the first failure is raised.
    """
    results = await fan_out(calls)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


class SketchCoordinator:
    """Routes one logical stream across many sketch servers.

    Parameters
    ----------
    factory:
        The same zero-argument replica factory every server was built
        with; the coordinator keeps one local *template* instance (never
        fed) for fingerprint checks and merge fan-in.
    addresses:
        ``(host, port)`` pairs, one per server; their order defines the
        partition index.
    partitioner:
        Item -> partition map; defaults to a seed-0
        :class:`UniversePartitioner` over ``len(addresses)`` parts --
        the same default a :class:`ShardedAlgorithm` of that width uses,
        so a coordinator fleet partitions identically to a local fleet.
        Partitions map to servers through the ``routing`` table
        (identity until a migration remaps a dead server's partitions).
        A :class:`~repro.service.server.SketchServer` seeds its own
        default partitioner differently, so the servers' shard cuts are
        independent of this one and every shard of every server gets
        load.
    journal_every:
        Feed chunks between journal rotations, which move each server's
        journal into its cache entry and clear it: folded into a live
        replica when the server is at its predicted version and the
        journal passes the fold's size rule, pulled from the server
        otherwise (see "Failover").  Smaller keeps less replay state in
        memory; larger pulls or folds less often.
    """

    def __init__(
        self,
        factory: Callable[[], StreamAlgorithm],
        addresses: Sequence[tuple[str, int]],
        partitioner: Optional[UniversePartitioner] = None,
        *,
        journal_every: int = 8,
    ) -> None:
        if not addresses:
            raise ValueError("coordinator needs at least one server address")
        if journal_every < 1:
            raise ValueError(f"journal_every must be >= 1, got {journal_every}")
        self.factory = factory
        self.addresses = list(addresses)
        self.partitioner = partitioner or UniversePartitioner(len(self.addresses))
        self.template = factory()
        self.fingerprint = construction_fingerprint(self.template)
        self.clients: list[AsyncSketchClient] = []
        #: Updates routed so far (absolute once ``recover`` seeds it).
        self.position = 0
        self._policy: Optional[RetryPolicy] = None
        #: Partition index -> owning server index.  Identity until a
        #: migration remaps a dead server's partitions to a survivor.
        self.routing: list[int] = list(range(len(self.addresses)))
        #: Servers whose partitions have been migrated away (standby if
        #: they return; they own no routing until re-planned).
        self._migrated: set[int] = set()
        #: Per-server cache entry plus journal (see "Failover"): backs
        #: degraded reads, the merged view and both recovery paths.
        self._logs = [ReplayLog() for _ in self.addresses]
        self._chunks_since_rotate = 0
        self.journal_every = int(journal_every)
        #: Updates routed per server (the load key that picks a
        #: migration's least-loaded destination).
        self.routed_updates: list[int] = [0] * len(self.addresses)
        #: Migrations completed (functional twin of the metric).
        self.migrations = 0
        #: One request in flight per connection: feeds, fan-ins, and
        #: routing swaps all serialize here (waits happen off-lock).
        self._feed_lock = asyncio.Lock()
        #: The merged view :meth:`merged` hands out, keyed on the
        #: ``(index, version)`` pairs of the server states it reflects,
        #: and the restore twin every rebuild reuses.
        self._view: Optional[StreamAlgorithm] = None
        self._view_key: Optional[tuple] = None
        self._twin = self.template.fork()
        #: Annotation of the most recent :meth:`merged` fan-in:
        #: ``{"degraded", "stale", "stale_positions", "position",
        #: "view"}``; ``view`` is ``"reused"``, ``"folded"`` or
        #: ``"rebuilt"``.
        self.last_read: dict = {
            "degraded": False,
            "stale": [],
            "stale_positions": {},
            "position": 0,
            "view": None,
        }
        #: Per-server health from the last :meth:`health` sweep.
        self.server_health: list[dict] = []
        #: Degraded reads served so far (functional twin of the metric).
        self.degraded_reads = 0
        self.prober = None

    # -- lifecycle ----------------------------------------------------------

    async def connect(
        self,
        retries: int = 0,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> "SketchCoordinator":
        """Connect to every server and verify construction identity.

        Retries follow the same surface as :meth:`SketchClient.connect`
        (``retry=`` policy wins; bare ``retries=`` gets the default
        exponential shape).  A server whose ``hello`` fingerprint
        differs from the local template's was built with other
        parameters or another seed; routing updates to it would
        silently break merge exactness, so the handshake raises
        :class:`FingerprintMismatch` instead.  The per-server snapshot
        cache is seeded here so degraded reads are possible from the
        first fan-in on.
        """
        if self.clients:
            raise RuntimeError("coordinator already connected")
        policy = retry if retry is not None else RetryPolicy(max_attempts=retries + 1)
        self._policy = policy
        opened = await fan_out(
            AsyncSketchClient.connect(host, port, retry=policy)
            for host, port in self.addresses
        )
        self.clients = [
            client for client in opened if not isinstance(client, BaseException)
        ]
        if len(self.clients) < len(opened):
            await self.close()
            raise next(
                failure for failure in opened if isinstance(failure, BaseException)
            )
        for address, client in zip(self.addresses, self.clients):
            fingerprint = client.server_info["fingerprint"]
            if fingerprint != self.fingerprint:
                await self.close()
                raise FingerprintMismatch(
                    f"server {address[0]}:{address[1]} holds a differently-"
                    "constructed sketch; every server must be built from the "
                    "coordinator's factory (same parameters, same seed)"
                )
        await _every(self._pull(index) for index in range(len(self.clients)))
        return self

    async def close(self) -> None:
        """Stop the prober and close every server connection (idempotent)."""
        if self.prober is not None:
            prober, self.prober = self.prober, None
            await prober.stop()
        clients, self.clients = self.clients, []
        for client in clients:
            await client.close()

    async def __aenter__(self) -> "SketchCoordinator":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _require_clients(self) -> list[AsyncSketchClient]:
        if not self.clients:
            raise RuntimeError("coordinator is not connected (call connect())")
        return self.clients

    def start_prober(self, **kwargs):
        """Attach and start a background :class:`FleetProber`.

        Keyword arguments pass through to the prober constructor
        (cadence policy, thresholds, clock).  The prober task runs on
        the current loop until :meth:`close` (or ``prober.stop()``).
        """
        from repro.service.membership import FleetProber

        if self.prober is not None:
            raise RuntimeError("coordinator already has a prober attached")
        self.prober = FleetProber(self, **kwargs)
        self.prober.start()
        return self.prober

    # -- routing ------------------------------------------------------------

    async def _send_feed(
        self, client: AsyncSketchClient, seq: int, items, deltas
    ) -> dict:
        """One sequenced feed attempt with a single inline reconnect.

        Resending the *same* ``(client_id, seq)`` is the exactly-once
        mechanism: a chunk that was applied but whose ack was lost comes
        back as a duplicate-ack, never a double apply.
        """
        try:
            return await client.feed(items, deltas, seq=seq)
        except (OSError, ProtocolError):
            await client.reconnect()
            return await client.feed(items, deltas, seq=seq)

    async def feed(self, items, deltas) -> int:
        """Partition one batch and feed every owning server its slice.

        Returns the coordinator's stream position after the batch.  The
        per-server slices preserve stream order (the partitioner's
        counting sort is stable), so each server sees exactly the
        sub-stream of its items -- the distributed mirror of
        ``ShardedAlgorithm.process_batch``.

        Slices are sequenced under the coordinator's per-server client
        identity and retried under the connect policy: transient
        failures (connection errors, protocol errors, ``busy`` sheds)
        back off and resend the same sequence numbers, and every retry
        re-resolves the routing table -- so a slice whose owner died
        mid-batch replays against the server its partitions migrated to.
        Backoff sleeps happen outside the feed lock, so a stuck slice
        never blocks the fan-in or a migration that would unstick it.
        Any other failure -- a server whose engine rejected its slice --
        raises once this attempt's acknowledged slices are journaled,
        without a resend: the server answers a resend of a rejected
        slice with the same error, never with an ack.
        """
        clients = self._require_clients()
        items = np.ascontiguousarray(items, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if not items.size:
            return self.position
        parts = self.partitioner.split(items, deltas)
        if len(parts) == 1:
            # A one-part split returns the caller's arrays; the journal
            # must own what it replays.
            parts = [(items.copy(), deltas.copy())]
        pending: dict[int, tuple] = {
            index: part
            for index, part in enumerate(parts)
            if part is not None and len(part[0])
        }
        # owner -> (seq, partition tuple, items, deltas): a reserved
        # sequence number survives retries of the same slice group, and
        # is re-drawn only when routing changes the group's composition.
        reservations: dict[int, tuple] = {}
        schedule = None
        last_error: Optional[BaseException] = None
        while pending:
            async with self._feed_lock:
                groups: dict[int, list[int]] = {}
                for partition in sorted(pending):
                    groups.setdefault(self.routing[partition], []).append(
                        partition
                    )
                sends = []
                for owner in sorted(groups):
                    group = tuple(groups[owner])
                    reserved = reservations.get(owner)
                    if reserved is None or reserved[1] != group:
                        if len(group) == 1:
                            merged_items, merged_deltas = pending[group[0]]
                        else:
                            merged_items = np.concatenate(
                                [pending[p][0] for p in group]
                            )
                            merged_deltas = np.concatenate(
                                [pending[p][1] for p in group]
                            )
                        reserved = (
                            clients[owner].next_seq(),
                            group,
                            merged_items,
                            merged_deltas,
                        )
                        reservations[owner] = reserved
                    sends.append((owner, reserved))
                results = await fan_out(
                    self._send_feed(clients[owner], entry[0], entry[2], entry[3])
                    for owner, entry in sends
                )
                rejected: Optional[BaseException] = None
                for (owner, entry), result in zip(sends, results):
                    if isinstance(result, BaseException):
                        if not isinstance(result, _TRANSIENT):
                            rejected = rejected or result
                        last_error = result
                        continue
                    for partition in entry[1]:
                        pending.pop(partition, None)
                    self._logs[owner].entries.append((entry[2], entry[3]))
                    self.routed_updates[owner] += int(entry[2].size)
                    reservations.pop(owner, None)
                if rejected is not None:
                    raise rejected
            if not pending:
                break
            if schedule is None:
                schedule = (self._policy or RetryPolicy()).start()
            delay = schedule.next_delay()
            if delay is None:
                raise last_error
            count_retry("coordinator-feed")
            await asyncio.sleep(delay)
        self.position += int(items.size)
        self._chunks_since_rotate += 1
        if self._chunks_since_rotate >= self.journal_every:
            await self._rotate_journals()
        return self.position

    async def feed_chunks(self, source) -> int:
        """Drive a sync iterable of ``(items, deltas)`` chunks through
        :meth:`feed`; returns the final position."""
        for items, deltas in source:
            await self.feed(items, deltas)
        return self.position

    async def _rotate_journals(self) -> None:
        """Move every journal into its server's cache entry (:meth:`_rotate`).

        Best-effort per server: a server that cannot answer keeps its
        journal, which a later migration or readmission replays.
        """
        self._require_clients()
        async with self._feed_lock:
            self._chunks_since_rotate = 0
            active = [
                index
                for index, log in enumerate(self._logs)
                if log.entries and index not in self._migrated
            ]
            await fan_out(self._rotate(index) for index in active)

    async def _rotate(self, index: int) -> None:
        """Fold server ``index``'s journal into its cache entry if the
        journal passes the size rule and the server is at its predicted
        version; otherwise refresh the entry as :meth:`_pull` does."""
        log = self._logs[index]
        predicted = log.predicted() if log.fits() else None
        if await self._pull(index, predicted):
            log.fold(self.template, predicted, self.position)

    async def _pull(self, index: int, predicted: Optional[tuple] = None) -> bool:
        """Refresh server ``index``'s cache entry from its live state.

        Sends the cached version as ``unless``: a server still at it
        answers with its version alone and the entry stands; otherwise
        its bytes replace the entry.  Either way the log rebases on the
        server's state.  A failed request leaves it untouched.  With
        ``predicted`` as ``unless`` instead, a server at it holds entry
        plus journal, so both stand and this returns ``True``.
        """
        log = self._logs[index]
        unless = log.version if predicted is None else predicted
        reply = await self.clients[index].snapshot(unless=unless)
        data = reply["snapshot"]
        if predicted is not None and data is None:
            return True
        log.rebase(data, reply["version"], self.position)
        return False

    def _fold_plan(self, active: list[int]) -> Optional[dict[int, int]]:
        """Per active server, how many of its journaled slices the view
        already holds -- or ``None`` when this read cannot fold.

        It cannot when there is no view, when the view is not every
        active server's entry plus a prefix of its journal, or when some
        server's slices still to fold fail the size rule.
        """
        if self._view is None:
            return None
        held = dict(self._view_key)
        if list(held) != active:
            return None
        plan = {}
        for index in active:
            log, version = self._logs[index], held[index]
            if log.version is None or version[0] != log.version[0]:
                return None
            start = version[1] - log.version[1]
            if not 0 <= start <= len(log.entries) or not log.fits(start):
                return None
            plan[index] = start
        return plan

    # -- fan-in: the wire merge --------------------------------------------

    async def merged(self, allow_degraded: bool = True) -> StreamAlgorithm:
        """One sketch equal to a single engine fed the whole stream.

        Asks every active server concurrently for its merged snapshot
        *unless* its state version is the expected one, so an unchanged
        server ships no bytes, and ends in one of three ways (see
        "Failover" in the module docstring; ``last_read["view"]``
        records which):

        * ``"reused"`` -- the current view already reflects every
          server's version: no restore, merge or copy;
        * ``"folded"`` -- the view is each server's cache entry plus a
          prefix of its journal, the updates left to fold are no more
          than each server's snapshot has 8-byte words, and every
          server answers at its predicted version: a fork of the view
          is fed the journaled slices it lacks;
        * ``"rebuilt"`` -- otherwise: a fresh view from the cache
          entries, which changed servers refreshed with their bytes --
          the :func:`~repro.distributed.replay.merge_states` fan-in
          :meth:`ShardedAlgorithm.merged` uses, with TCP in the middle.

        Servers whose partitions migrated away are skipped entirely
        (their state lives on, and is counted by, the destination
        server).

        The result is a **shared, read-only view**: later reads may hand
        out the same object, and the coordinator never mutates a view
        once handed out (a rebuild makes a new one), so a caller may
        keep it as a stable copy of the state it was read at -- but must
        not feed or merge into it.

        With ``allow_degraded`` (the default), a server that cannot
        answer contributes its *cache entry* instead of failing the
        whole read; ``coordinator.last_read`` records which servers were
        stale and at what cached position, and the degraded-reads
        counter ticks (the ``degraded-reads`` default alert rule watches
        it).  ``allow_degraded=False`` restores fail-fast semantics --
        checkpoints use it, because a checkpoint must never quietly
        freeze a dead shard's past.
        """
        clients = self._require_clients()
        async with self._feed_lock:
            active = [
                index
                for index in range(len(clients))
                if index not in self._migrated
            ]
            results: dict[int, object] = {}
            plan = self._fold_plan(active)
            if plan is not None:
                predicted = {
                    index: self._logs[index].predicted() for index in active
                }
                results = await self._pull_all(active, predicted)
            if plan is not None and all(result is True for result in results.values()):
                outcome = self._fold(plan, predicted)
            else:
                # Pull every server not asked yet, and every one that
                # matched but holds its journal on top of its cache entry.
                refresh = [
                    index
                    for index in active
                    if index not in results
                    or (results[index] is True and self._logs[index].entries)
                ]
                results.update(await self._pull_all(refresh))
                for index in active:
                    if isinstance(results[index], BaseException) and (
                        not allow_degraded or self._logs[index].baseline is None
                    ):
                        raise results[index]
                outcome = self._rebuild(active)
            stale = [
                index
                for index in active
                if isinstance(results.get(index), BaseException)
            ]
        self.last_read = {
            "degraded": bool(stale),
            "stale": stale,
            "stale_positions": {
                index: self._logs[index].position for index in stale
            },
            "position": self.position,
            "view": outcome,
        }
        if stale:
            self.degraded_reads += 1
            if _obs_registry.enabled:
                _obs_degraded.add(1, servers=str(len(stale)))
        return self._view

    async def _pull_all(
        self, indices: list[int], predicted: Optional[dict] = None
    ) -> dict[int, object]:
        """:meth:`_pull` every server in ``indices`` concurrently; maps
        each index to its result or its exception."""
        predicted = predicted or {}
        results = await fan_out(
            self._pull(index, predicted.get(index)) for index in indices
        )
        return dict(zip(indices, results))

    def _fold(self, plan: dict[int, int], predicted: dict[int, tuple]) -> str:
        """Advance the view by the journaled slices it does not hold yet.

        Every active server answered at its predicted version, so the
        view plus the slices it lacks is the fleet's state.  They go
        into a fork: a handed-out view never changes.
        """
        slices = [
            piece
            for index, start in plan.items()
            for piece in self._logs[index].entries[start:]
        ]
        if not slices:
            return "reused"
        view = self._view.fork()
        absorb(view, slices)
        self._view = view
        self._view_key = tuple(predicted.items())
        return "folded"

    def _rebuild(self, active: list[int]) -> str:
        """Reuse the view if it was built from exactly the cached
        versions, or build a new one from the cache entries."""
        key = tuple((index, self._logs[index].version) for index in active)
        if key == self._view_key:
            return "reused"
        self._view = merge_states(
            self.template, [self._logs[index].baseline for index in active], self._twin
        )
        self._view_key = key
        return "rebuilt"

    async def estimate(self, items) -> np.ndarray:
        """Batched point estimates answered from the wire-merged state."""
        return (await self.merged()).estimate_batch(items)

    async def query(self, kind: Optional[str] = None):
        """The family's native query from the wire-merged state."""
        merged = await self.merged()
        return getattr(merged, query_method(kind))()

    async def stats(self) -> list[dict]:
        """Every server's liveness/monitoring payload, in address order."""
        clients = self._require_clients()
        return await _every(client.stats() for client in clients)

    async def health(self) -> list[dict]:
        """Ping every server; per-server ``{"address", "ok", ...}`` dicts.

        A failed ping reports ``ok=False`` with the error text instead of
        raising -- health sweeps must degrade, not error.  The result is
        also stored in ``coordinator.server_health`` so a supervisor can
        poll one attribute between sweeps.
        """
        clients = self._require_clients()
        async with self._feed_lock:
            results = await fan_out(client.ping() for client in clients)
        health = []
        for address, result in zip(self.addresses, results):
            entry: dict = {"address": f"{address[0]}:{address[1]}"}
            if isinstance(result, BaseException):
                entry["ok"] = False
                entry["error"] = f"{type(result).__name__}: {result}"
            else:
                entry["ok"] = True
                entry["position"] = result.get("position")
            health.append(entry)
        self.server_health = health
        return health

    # -- recovery: readmission and migration --------------------------------

    async def readmit(self, index: int) -> dict:
        """Reconnect server ``index`` and fold it back into the fleet.

        The recovery mirror of a degraded read: reconnects under the
        coordinator's retry policy *keeping the per-server client
        identity* (so the server-side feed dedup still recognizes this
        coordinator), re-verifies the construction fingerprint (a
        restarted-with-the-wrong-seed server must not rejoin), and --
        when the server came back *empty* (position 0) while the cache
        holds state for it -- replays its log into it (:meth:`_push`,
        through the ``load_snapshot`` path :meth:`recover` uses).  A
        server that restarted from its own checkpoint (position > 0)
        keeps its richer state untouched.  On success the cache entry is
        refreshed from the server's live state (a readmitted-then-relost
        server must degrade to its *post*-readmission state, not its
        pre-outage bytes).

        A server whose partitions were migrated away rejoins as a
        *standby*: it must come back empty (its state already lives on
        the destination server; re-admitting non-empty state would
        double-count) and receives no cache push and no routing.

        Returns ``{"address", "restored", "position", "standby"}``.
        """
        clients = self._require_clients()
        if not 0 <= index < len(clients):
            raise IndexError(f"server index {index} outside fleet")
        host, port = self.addresses[index]
        async with self._feed_lock:
            client = clients[index]
            schedule = self._policy.start()
            while True:
                try:
                    await client.reconnect()
                    break
                except OSError:
                    delay = schedule.next_delay()
                    if delay is None:
                        raise
                    count_retry("connect")
                    await asyncio.sleep(delay)
            if client.server_info["fingerprint"] != self.fingerprint:
                await client.close()
                raise FingerprintMismatch(
                    f"server {host}:{port} came back differently-constructed; "
                    "refusing to re-admit it into the fleet"
                )
            pong = await client.ping()
            if index in self._migrated:
                if pong.get("position"):
                    raise RuntimeError(
                        f"server {host}:{port} was migrated away but came "
                        "back with state; its shards already live on another "
                        "server, so re-admitting it would double-count -- "
                        "restart it empty to rejoin as a standby"
                    )
                return {
                    "address": f"{host}:{port}",
                    "restored": False,
                    "position": 0,
                    "standby": True,
                }
            log = self._logs[index]
            restored = not pong.get("position") and log.baseline is not None
            if restored:
                await self._push(log, client, position=log.position)
            await self._pull(index)
            pong = await client.ping()
        return {
            "address": f"{host}:{port}",
            "restored": restored,
            "position": pong.get("position"),
            "standby": False,
        }

    async def _push(
        self, log: ReplayLog, client: AsyncSketchClient, **load
    ) -> tuple[Optional[bytes], int]:
        """Replay ``log`` into ``client``'s server: the cache entry's
        bytes through ``load_snapshot(**load)``, then the journal as
        sequenced feeds.  Returns the bytes pushed and the updates fed."""
        data = log.baseline_bytes()
        if data is not None:
            await client.load_snapshot(data, **load)
        for items, deltas in log.entries:
            await self._send_feed(client, client.next_seq(), items, deltas)
        return data, sum(len(items) for items, _ in log.entries)

    def _pick_destination(self, index: int) -> int:
        """Least-loaded surviving server (the default migration target)."""
        candidates = [
            candidate
            for candidate in range(len(self.addresses))
            if candidate != index and candidate not in self._migrated
        ]
        if not candidates:
            raise RuntimeError(
                "no surviving server to migrate to; the fleet is down"
            )
        return min(
            candidates,
            key=lambda candidate: (self.routed_updates[candidate], candidate),
        )

    async def migrate_server(
        self, index: int, destination: Optional[int] = None
    ) -> dict:
        """Move a permanently lost server's shards to a survivor.

        Replays server ``index``'s log into ``destination`` (:meth:`_push`,
        through fingerprint-verified ``load_snapshot(merge=True)``), then
        atomically remaps every partition it owned there.  Runs
        under the feed lock, so the swap lands between chunk boundaries
        and in-flight :meth:`feed` retries re-resolve against the new
        owner.  Idempotent: an already-migrated index returns without
        touching anything.

        Slices the dead server applied but never acknowledged are
        deliberately *not* transferred: its engine state is discarded
        whole, and the unacknowledged slices are still pending in their
        feed calls, which replay them against the destination --
        exactly-once either way, byte-identical to a serial engine.

        Returns ``{"migrated", "from", "to", "moved_updates",
        "snapshot_bytes"}``.
        """
        clients = self._require_clients()
        if not 0 <= index < len(clients):
            raise IndexError(f"server index {index} outside fleet")
        async with self._feed_lock:
            if index in self._migrated:
                return {
                    "migrated": False,
                    "from": index,
                    "to": None,
                    "moved_updates": 0,
                    "snapshot_bytes": 0,
                }
            if destination is None:
                destination = self._pick_destination(index)
            if destination == index or destination in self._migrated:
                raise ValueError(
                    f"cannot migrate server {index} onto {destination}"
                )
            if not 0 <= destination < len(clients):
                raise IndexError(
                    f"destination index {destination} outside fleet"
                )
            _obs_migrations_active.add(1)
            try:
                snapshot, moved = await self._push(
                    self._logs[index], clients[destination], merge=True
                )
                self.routing = [
                    destination if owner == index else owner
                    for owner in self.routing
                ]
                self._migrated.add(index)
                self._logs[index] = ReplayLog()
                self.routed_updates[destination] += self.routed_updates[index]
                self.routed_updates[index] = 0
                try:
                    await self._pull(destination)
                except (OSError, ProtocolError):
                    pass  # cache refresh is opportunistic; journal covers it
                self.migrations += 1
                if _obs_registry.enabled:
                    _obs_migrations.add(1)
            finally:
                _obs_migrations_active.add(-1)
            await clients[index].close()
        return {
            "migrated": True,
            "from": index,
            "to": destination,
            "moved_updates": moved,
            "snapshot_bytes": len(snapshot) if snapshot is not None else 0,
        }

    async def metrics(self) -> dict:
        """The whole fleet's telemetry as one merged registry snapshot.

        Gathers every server's ``metrics`` reply and folds the snapshots
        through :func:`repro.obs.merge_snapshots` -- the same
        commutative fan-in each server already applied to its own
        process-backend workers -- then renders one Prometheus
        exposition.  Returns ``{"servers", "snapshot", "exposition",
        "content_type"}``.
        """
        from repro.obs import (
            EXPOSITION_CONTENT_TYPE,
            merge_snapshots,
            render_prometheus,
        )

        clients = self._require_clients()
        async with self._feed_lock:
            replies = await _every(client.metrics() for client in clients)
        snapshot = merge_snapshots([reply["snapshot"] for reply in replies])
        return {
            "servers": [reply["server"] for reply in replies],
            "snapshot": snapshot,
            "exposition": render_prometheus(snapshot),
            "content_type": EXPOSITION_CONTENT_TYPE,
        }

    async def alerts(self) -> dict:
        """The fleet's alert states, merged most-severe-wins.

        Gathers every server's ``alerts`` reply (each server runs one
        evaluation pass) and folds them with
        :func:`repro.obs.alerts.merge_alert_payloads`: per rule, the
        most severe state wins (``firing > pending > resolved >
        inactive``) and the winning server's label is recorded as
        ``source`` -- the fleet pages if any node pages.
        """
        from repro.obs.alerts import merge_alert_payloads

        clients = self._require_clients()
        async with self._feed_lock:
            replies = await _every(client.alerts() for client in clients)
        return merge_alert_payloads(
            replies, sources=[reply.get("server") for reply in replies]
        )

    # -- checkpoint / recovery over the wire --------------------------------

    async def checkpoint(self, path) -> int:
        """Write one standard checkpoint file of the fleet's merged state.

        The file is indistinguishable from a local engine's checkpoint --
        it can resume a single engine, a local sharded fleet, or another
        coordinator fleet of any width.  Returns the recorded position.
        Fail-fast: a checkpoint is never written from a degraded read.
        """
        merged = await self.merged(allow_degraded=False)
        save_checkpoint(
            path,
            merged,
            self.position,
            meta={"servers": len(self.addresses), "source": "coordinator"},
        )
        return self.position

    async def recover(self, path) -> int:
        """Restore a checkpoint into a fresh fleet; returns the position.

        The merged snapshot lands whole in server 0 (the other servers
        stay empty -- exact merging makes that equivalent to the
        uninterrupted deployment).  The caller replays the stream tail
        from the returned position, e.g. via
        :func:`repro.distributed.checkpoint.tail_chunks`.
        """
        clients = self._require_clients()
        checkpoint = load_checkpoint(path)
        await clients[0].load_snapshot(
            checkpoint.snapshot, position=checkpoint.position
        )
        self.position = checkpoint.position
        return self.position
