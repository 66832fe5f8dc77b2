"""repro.obs -- the unified telemetry layer.

One coherent observability surface across every tier of the pipeline
(engine -> shards -> process fleet -> service):

:mod:`repro.obs.metrics`
    counters / gauges / fixed-bucket histograms whose state snapshots
    and merges exactly like sketches -- process-backend workers ship
    registry snapshots through the existing pipe fan-in and the parent
    merges them bit-exactly;
:mod:`repro.obs.trace`
    chunk-level spans (monotonic start/duration, context-propagated
    parent ids) in a bounded ring, with JSONL export;
:mod:`repro.obs.monitors`
    estimate-drift, interaction-budget, and shard-skew alarms over game
    results and registry snapshots;
:mod:`repro.obs.expo`
    Prometheus text exposition from any registry snapshot (the service's
    ``metrics`` op renders server- and fleet-merged views with it);
:mod:`repro.obs.alerts`
    declarative alert rules (threshold / rate / absence with ``for:``
    holds) evaluated into a pending -> firing -> resolved state machine,
    fleet-mergeable most-severe-wins;
:mod:`repro.obs.gateway`
    the stdlib HTTP face: ``/metrics``, ``/healthz``, ``/readyz``,
    ``/spans`` (OTLP/JSON), and ``/alerts`` on a real port, plus the
    listener close and daemon-thread host the sketch server shares.

``REPRO_OBS=0`` is the kill switch: every telemetry instrument and the
tracer no-op (the recorded ``obs_overhead`` benchmark pins the
enabled-mode cost too).  :class:`RegistryStatsBase` books are the one
exception -- they are functional accounting (service ``stats``
payloads), so they keep counting with the switch thrown.  (An ingest's
``IngestStats`` is a plain per-run record, the engine chunk loop's
result, so it needs no such book.)  :func:`timer` is the sanctioned phase stopwatch -- it always
measures (callers may rely on ``.seconds`` regardless of the switch) and
records a span plus a ``repro_phase_seconds`` observation only when
observability is on, which is how experiment wall-times, attack search
times, and engine chunk times land in one histogram family.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.alerts import (
    CLIENT_RETRIES_METRIC,
    DEGRADED_READS_METRIC,
    HEDGED_READS_METRIC,
    MEMBERSHIP_METRIC,
    MIGRATIONS_ACTIVE_METRIC,
    SHARD_MIGRATIONS_METRIC,
    WORKER_RESTARTS_METRIC,
    AbsenceRule,
    AlertEngine,
    AlertState,
    RateRule,
    ThresholdRule,
    default_fault_rules,
    default_membership_rules,
    merge_alert_payloads,
)
from repro.obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    escape_label_value,
    format_label_pairs,
    render_prometheus,
)
from repro.obs.gateway import ObservabilityGateway
from repro.obs.metrics import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistryStatsBase,
    counter_total,
    counter_value,
    env_enabled,
    get_registry,
    histogram_quantile,
    merge_snapshots,
    snapshot_is_empty,
)
from repro.obs.monitors import (
    Alarm,
    EstimateDriftMonitor,
    InteractionBudgetMonitor,
    ShardSkewMonitor,
)
from repro.obs.trace import SpanRecord, Tracer, export_otlp, get_tracer

__all__ = [
    "AbsenceRule",
    "Alarm",
    "AlertEngine",
    "AlertState",
    "CLIENT_RETRIES_METRIC",
    "Counter",
    "DEGRADED_READS_METRIC",
    "EXPOSITION_CONTENT_TYPE",
    "EstimateDriftMonitor",
    "Gauge",
    "HEDGED_READS_METRIC",
    "Histogram",
    "InteractionBudgetMonitor",
    "MEMBERSHIP_METRIC",
    "MIGRATIONS_ACTIVE_METRIC",
    "MetricsRegistry",
    "ObservabilityGateway",
    "PHASE_SECONDS_METRIC",
    "PhaseTimer",
    "RateRule",
    "RegistryStatsBase",
    "SHARD_MIGRATIONS_METRIC",
    "SIZE_BUCKETS",
    "ShardSkewMonitor",
    "SpanRecord",
    "TIME_BUCKETS",
    "ThresholdRule",
    "Tracer",
    "WORKER_RESTARTS_METRIC",
    "counter_total",
    "counter_value",
    "default_fault_rules",
    "default_membership_rules",
    "enabled",
    "env_enabled",
    "escape_label_value",
    "export_otlp",
    "format_label_pairs",
    "get_registry",
    "get_tracer",
    "histogram_quantile",
    "merge_alert_payloads",
    "merge_snapshots",
    "render_prometheus",
    "reset",
    "snapshot_is_empty",
    "timer",
]

#: The shared wall-time histogram family every instrumented phase
#: observes into (label ``phase=`` distinguishes engine chunks, scatter
#: phases, service requests, experiments, attack searches, ...).
PHASE_SECONDS_METRIC = "repro_phase_seconds"
PHASE_SECONDS_HELP = "Wall time of instrumented phases, in seconds"


def enabled() -> bool:
    """Whether the process-wide registry is currently recording."""
    return get_registry().enabled


def reset() -> None:
    """Clear the process-wide registry and tracer (handles stay valid).

    Process-backend shard workers call this right after fork so their
    snapshots carry only worker-side activity -- fork-inherited parent
    counts would otherwise double under the fan-in merge.
    """
    get_registry().reset()
    get_tracer().clear()


def phase_histogram(registry: Optional[MetricsRegistry] = None) -> Histogram:
    """The shared ``repro_phase_seconds`` histogram (get-or-create)."""
    return (registry or get_registry()).histogram(
        PHASE_SECONDS_METRIC, PHASE_SECONDS_HELP, buckets=TIME_BUCKETS
    )


class PhaseTimer:
    """Stopwatch for one named phase (build via :func:`timer`).

    Always measures -- ``.seconds`` is valid even under ``REPRO_OBS=0``,
    so report fields like attack wall-times never lose data -- and
    records a span plus one ``repro_phase_seconds{phase=...}``
    observation only when observability is enabled.
    """

    def __init__(self, phase: str, labels: dict) -> None:
        self.phase = phase
        self.labels = labels
        self.seconds = 0.0
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        tracer = get_tracer()
        if tracer.enabled:
            self._span = tracer.span(self.phase, phase=self.phase, **self.labels)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc_info)
            self._span = None
        registry = get_registry()
        if registry.enabled:
            phase_histogram(registry).observe(
                self.seconds, phase=self.phase, **self.labels
            )
        return False


def timer(phase: str, **labels) -> PhaseTimer:
    """Time one phase: ``with obs.timer("experiment", experiment="e02"):``."""
    return PhaseTimer(phase, labels)
