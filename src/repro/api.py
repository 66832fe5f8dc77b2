"""`repro.api` -- the versioned, stable public surface of the library.

Why a facade
------------
The library grew layer by layer (batched engine, sharded fleets,
process workers, kernels, the network service), and each layer's names
live where they were built.  External consumers -- the service clients,
deployment scripts, downstream experiments -- need one import path that
does not move when internals refactor.  This module is that path:

* every name in ``__all__`` is **stable**: it keeps its signature and
  semantics within a major ``API_VERSION``, regardless of which
  internal module currently implements it;
* the deep module paths (``repro.parallel.sharded``, ...) keep working
  but are *implementation* namespaces -- new code should import from
  ``repro.api``;
* a removal bumps the major version.  ``API_VERSION`` 2.0 removed the
  1.x deprecation shims: the ``parallel=`` backend flag, the positional
  ``queue_depth`` of :func:`ingest`/:func:`ingest_async`, the
  ``retry_interval=`` connect kwarg and ``RetryPolicy.fixed``, direct
  assignment of service stats counters, and the renamed facade aliases
  (``encode_sketch``, ``decode_sketch``, ``ShardedEngine``).  CI imports
  this facade with warnings-as-errors, so it stays warning-free.

The surface, by layer::

    driving     StreamEngine, DEFAULT_CHUNK_SIZE, Update, run_game,
                GameResult, StreamAlgorithm, MergeableSketch,
                SerializableSketch, StateView, WhiteBoxAdversary
    sharding    ShardedAlgorithm, ShardedStreamEngine,
                UniversePartitioner
    ingestion   ingest, ingest_async, IngestStats, chunk_arrays,
                chunk_updates
    state       snapshot_sketch, restore_sketch,
                construction_fingerprint, SnapshotError,
                FingerprintMismatch, save_checkpoint, load_checkpoint,
                load_latest_checkpoint, resume_from, tail_chunks,
                CheckpointWriter, verify_checkpoint_resume
    service     SketchServer, SketchClient, AsyncSketchClient,
                SketchCoordinator, ServiceError, ProtocolError,
                ProtocolVersionMismatch, PROTOCOL_VERSION,
                hedge_delay_from_metrics
    healing     FleetProber, MembershipStateMachine,
                ShardMigrationPlanner, default_membership_rules
    faults      RetryPolicy, ServerBusy, SequenceGap, FaultPlan,
                ChaosProxy, ServerProcess, default_fault_rules
    telemetry   MetricsRegistry, get_registry, merge_snapshots,
                render_prometheus, get_tracer, obs_timer,
                EstimateDriftMonitor, InteractionBudgetMonitor,
                ShardSkewMonitor, Alarm
    alerting    AlertEngine, ThresholdRule, RateRule, AbsenceRule,
                merge_alert_payloads, ObservabilityGateway, export_otlp

See the README's "Public API" table for the name -> module map.
"""

from __future__ import annotations

from repro import __version__
from repro.core.adversary import WhiteBoxAdversary
from repro.core.algorithm import (
    MergeableSketch,
    SerializableSketch,
    StateView,
    StreamAlgorithm,
)
from repro.core.engine import DEFAULT_CHUNK_SIZE, StreamEngine
from repro.core.game import GameResult, run_game
from repro.core.stream import Update
from repro.distributed.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_latest_checkpoint,
    resume_from,
    save_checkpoint,
    tail_chunks,
    verify_checkpoint_resume,
)
from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    construction_fingerprint,
    restore_sketch,
    snapshot_sketch,
)
from repro.obs import (
    AbsenceRule,
    Alarm,
    AlertEngine,
    EstimateDriftMonitor,
    InteractionBudgetMonitor,
    MetricsRegistry,
    ObservabilityGateway,
    RateRule,
    ShardSkewMonitor,
    ThresholdRule,
    default_fault_rules,
    default_membership_rules,
    export_otlp,
    get_registry,
    get_tracer,
    merge_alert_payloads,
    merge_snapshots,
    render_prometheus,
)
from repro.obs import timer as obs_timer
from repro.parallel.ingest import (
    IngestStats,
    chunk_arrays,
    chunk_updates,
    ingest,
    ingest_async,
)
from repro.parallel.partition import UniversePartitioner
from repro.parallel.sharded import ShardedAlgorithm, ShardedStreamEngine
from repro.service import (
    PROTOCOL_VERSION,
    AsyncSketchClient,
    FleetProber,
    MembershipStateMachine,
    ProtocolError,
    ProtocolVersionMismatch,
    RetryPolicy,
    SequenceGap,
    ServerBusy,
    ServiceError,
    ShardMigrationPlanner,
    SketchClient,
    SketchCoordinator,
    SketchServer,
    hedge_delay_from_metrics,
)
from repro.testing.faults import ChaosProxy, FaultEvent, FaultPlan, ServerProcess

#: Major version of this surface.  Additions bump nothing; a removal or
#: an incompatible signature change bumps the major.
API_VERSION = "2.0"

__all__ = [
    "API_VERSION",
    "AbsenceRule",
    "Alarm",
    "AlertEngine",
    "AsyncSketchClient",
    "ChaosProxy",
    "CheckpointWriter",
    "DEFAULT_CHUNK_SIZE",
    "EstimateDriftMonitor",
    "FaultEvent",
    "FaultPlan",
    "FingerprintMismatch",
    "FleetProber",
    "GameResult",
    "IngestStats",
    "InteractionBudgetMonitor",
    "MembershipStateMachine",
    "MergeableSketch",
    "MetricsRegistry",
    "ObservabilityGateway",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ProtocolVersionMismatch",
    "RateRule",
    "RetryPolicy",
    "SequenceGap",
    "SerializableSketch",
    "ServerBusy",
    "ServerProcess",
    "ServiceError",
    "ShardMigrationPlanner",
    "ShardSkewMonitor",
    "ShardedAlgorithm",
    "ShardedStreamEngine",
    "SketchClient",
    "SketchCoordinator",
    "SketchServer",
    "SnapshotError",
    "StateView",
    "StreamAlgorithm",
    "StreamEngine",
    "ThresholdRule",
    "UniversePartitioner",
    "Update",
    "WhiteBoxAdversary",
    "__version__",
    "chunk_arrays",
    "chunk_updates",
    "construction_fingerprint",
    "default_fault_rules",
    "default_membership_rules",
    "export_otlp",
    "get_registry",
    "get_tracer",
    "hedge_delay_from_metrics",
    "ingest",
    "ingest_async",
    "load_checkpoint",
    "load_latest_checkpoint",
    "merge_alert_payloads",
    "merge_snapshots",
    "obs_timer",
    "render_prometheus",
    "restore_sketch",
    "resume_from",
    "run_game",
    "save_checkpoint",
    "snapshot_sketch",
    "tail_chunks",
    "verify_checkpoint_resume",
]
