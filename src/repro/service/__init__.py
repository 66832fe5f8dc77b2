"""The network front-end: sketch fleets behind sockets.

Everything below the network already existed -- mergeable sketches with
wire-format snapshots (:mod:`repro.distributed.codec`), process-parallel
shard fleets (:mod:`repro.distributed.workers`), checkpoint/recovery
(:mod:`repro.distributed.checkpoint`), batched queries.  This package
puts a service boundary in front of it:

* :mod:`repro.service.protocol` -- one length-prefixed request/response
  message schema shared by client, server, and coordinator, encoded
  with the snapshot codec (raw integer array payloads, fingerprint-
  verified snapshot transport);
* :mod:`repro.service.server` -- :class:`SketchServer`, the asyncio TCP
  collector that decodes update batches straight into a
  :class:`~repro.parallel.sharded.ShardedStreamEngine` with
  backpressure, per-connection stats, and chunk-boundary checkpointing:
  the transport of :class:`~repro.service.core.ServerCore`, which holds
  the server's rules with no socket, thread or event loop;
* :mod:`repro.service.client` -- :class:`SketchClient` (blocking) and
  :class:`AsyncSketchClient` (asyncio), two transports of one client
  core: pipelined and sequenced feeding, hedged reads, and the full
  query/snapshot/checkpoint surface;
* :mod:`repro.service.coordinator` -- :class:`SketchCoordinator`, which
  owns the :class:`~repro.parallel.partition.UniversePartitioner`,
  routes per-server batch slices and merge-snapshot payloads between
  fleets, and does checkpoint/recovery over the wire;
* :mod:`repro.service.membership` -- the self-healing layer:
  :class:`FleetProber` (background health probing driving a per-server
  ``up / suspect / down / readmitting`` state machine with automatic
  fingerprint-verified readmission), :class:`MembershipStateMachine`,
  and :class:`ShardMigrationPlanner` (cross-server shard migration for
  permanently lost servers).

The stable import surface for all of it is :mod:`repro.api`.
"""

from repro.service.client import (
    DEFAULT_HEDGE_DELAY,
    AsyncSketchClient,
    SketchClient,
    hedge_delay_from_metrics,
)
from repro.service.coordinator import SketchCoordinator
from repro.service.membership import (
    FleetProber,
    MembershipStateMachine,
    ShardMigrationPlanner,
)
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    ProtocolVersionMismatch,
    SequenceGap,
    ServerBusy,
    ServiceError,
)
from repro.service.retry import RetryPolicy, RetrySchedule
from repro.service.server import ConnectionStats, ServerStats, SketchServer

__all__ = [
    "AsyncSketchClient",
    "ConnectionStats",
    "DEFAULT_HEDGE_DELAY",
    "DEFAULT_MAX_FRAME",
    "FleetProber",
    "MembershipStateMachine",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ProtocolVersionMismatch",
    "RetryPolicy",
    "RetrySchedule",
    "SequenceGap",
    "ServerBusy",
    "ServerStats",
    "ServiceError",
    "ShardMigrationPlanner",
    "SketchClient",
    "SketchCoordinator",
    "SketchServer",
    "hedge_delay_from_metrics",
]
