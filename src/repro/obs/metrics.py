"""The mergeable metrics registry: counters, gauges, fixed-bucket histograms.

Design
------
Every hot path in the repo already reports state through one idiom:
accumulate locally, snapshot to plain data, merge snapshots bit-exactly
(the sketch protocol).  The metrics layer reuses it verbatim.  A
:class:`MetricsRegistry` holds named instruments; each instrument keeps
``{label-set: value}`` maps of exact Python numbers (ints never
truncate, so counter merges are bit-exact by construction);
:meth:`MetricsRegistry.snapshot` renders the whole registry to a plain
dict the distributed codec can ship over the existing worker pipes; and
:func:`merge_snapshots` folds any number of snapshots into one --
commutative and associative, exactly like sketch merges.  A process
fleet therefore reports *one* coherent registry: each worker snapshots
its own registry, the parent merges them with its own, and the service
renders the merged view (:mod:`repro.obs.expo`).

Overhead discipline
-------------------
Instrumentation must be invisible at engine-chunk granularity:

* the ``REPRO_OBS=0`` kill switch disables every instrument at the top
  of each mutator (one attribute load + branch, no label formatting, no
  locking) -- the recorded ``obs_overhead`` benchmark
  (``benchmarks/record_obs_overhead.py``) holds the instrumented write
  path within budget against the kill-switched one;
* instruments are resolved once (module scope) and mutated per *chunk*,
  never per update.

Stats-surface migration
-----------------------
:class:`RegistryStatsBase` is the shim that re-homes the pre-obs stats
dataclasses (``ServerStats`` / ``ConnectionStats``) onto the registry:
counter fields become live views over labeled registry series, and
mutation goes through :meth:`RegistryStatsBase.bump`.  Assigning a
declared field raises :class:`AttributeError` -- a plain instance
attribute would shadow the registry view (one source of truth).
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterable, Mapping, Optional, Sequence

from repro.obs.expo import format_label_pairs

__all__ = [
    "BoundCounter",
    "BoundHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryStatsBase",
    "SIZE_BUCKETS",
    "TIME_BUCKETS",
    "counter_total",
    "counter_value",
    "get_registry",
    "histogram_quantile",
    "merge_snapshots",
    "snapshot_is_empty",
]

#: Environment kill switch: ``REPRO_OBS=0`` (or ``false``/``off``/``no``)
#: disables every instrument and the tracer at import time.
OBS_ENV_FLAG = "REPRO_OBS"

#: Default buckets for wall-time histograms (seconds): 10us .. 10s, the
#: span from one tiny engine chunk to one full experiment.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for batch/chunk-size histograms: powers of two up to
#: 2^20 updates (deterministic integer bounds, so histogram merges stay
#: bit-exact across backends).
SIZE_BUCKETS: tuple[float, ...] = tuple(float(1 << b) for b in range(0, 21, 2))


def env_enabled() -> bool:
    """Whether ``REPRO_OBS`` enables observability (default: enabled)."""
    return os.environ.get(OBS_ENV_FLAG, "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def _label_key(labels: Mapping[str, object]) -> str:
    """Canonical (sorted, escaped) Prometheus-style label string.

    Delegates to :func:`repro.obs.expo.format_label_pairs` -- the
    canonical string is both the storage key and the exposition
    spelling, so two registries that counted the same events always
    produce byte-identical snapshots (the property the fan-in equality
    tests pin) and series sort identically everywhere they render.
    """
    return format_label_pairs(labels)


class _Instrument:
    """Shared plumbing: one ``{label-key: value}`` map under a lock."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help_text: str) -> None:
        self.registry = registry
        self.name = name
        self.help = help_text
        self._lock = registry._lock
        self._values: dict[str, object] = {}

    def value(self, **labels):
        """Current value for one label set (0 when never touched)."""
        return self._values.get(_label_key(labels), 0)

    def remove(self, **labels) -> None:
        """Drop one label series (bounds cardinality for per-connection
        series; removal is allowed even when the registry is disabled)."""
        with self._lock:
            self._values.pop(_label_key(labels), None)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def labeled_values(self) -> dict:
        with self._lock:
            return dict(self._values)


class BoundCounter:
    """A counter series with its label key pre-resolved (see ``bind``).

    The per-chunk hot paths mutate through these: no label formatting,
    no registry dict walk -- one enabled check, one lock, one dict
    update.  ``add_unlocked`` additionally skips the lock for callers
    that hold ``registry.lock`` around a group of updates (one
    acquisition covers every instrument, since all of a registry's
    instruments share that lock).
    """

    __slots__ = ("registry", "_values", "_lock", "key")

    def __init__(self, instrument: "Counter", key: str) -> None:
        self.registry = instrument.registry
        self._values = instrument._values
        self._lock = instrument._lock
        self.key = key

    def add(self, amount=1) -> None:
        """Add ``amount`` to the bound series (no-op while disabled)."""
        if not self.registry.enabled:
            return
        values = self._values
        with self._lock:
            values[self.key] = values.get(self.key, 0) + amount

    def add_unlocked(self, amount=1) -> None:
        """``add`` for callers already holding ``registry.lock``."""
        values = self._values
        values[self.key] = values.get(self.key, 0) + amount


class BoundHistogram:
    """A histogram series with its label key pre-resolved (see ``bind``)."""

    __slots__ = ("registry", "instrument", "_values", "_lock", "key")

    def __init__(self, instrument: "Histogram", key: str) -> None:
        self.registry = instrument.registry
        self.instrument = instrument
        self._values = instrument._values
        self._lock = instrument._lock
        self.key = key

    def observe(self, value) -> None:
        """Record one observation on the bound series (no-op while disabled)."""
        if not self.registry.enabled:
            return
        with self._lock:
            self.observe_unlocked(value)

    def observe_unlocked(self, value) -> None:
        """``observe`` for callers already holding ``registry.lock``."""
        buckets = self.instrument.buckets
        slot = bisect.bisect_left(buckets, value)
        series = self._values.get(self.key)
        if series is None:
            series = [[0] * (len(buckets) + 1), 0.0, 0]
            self._values[self.key] = series
        series[0][slot] += 1
        series[1] += value
        series[2] += 1


class Counter(_Instrument):
    """Monotone counter (exact ints, or floats for seconds totals)."""

    kind = "counter"

    def bind(self, **labels) -> BoundCounter:
        """Pre-resolve one label series for hot-path mutation.

        Bound handles stay valid across :meth:`MetricsRegistry.reset`
        (reset clears values in place; it never replaces the dicts).
        """
        return BoundCounter(self, _label_key(labels))

    def add(self, amount=1, **labels) -> None:
        """Add ``amount`` (>= 0) to one label series (no-op while disabled)."""
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (amount={amount!r})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    #: Prometheus-style spelling.
    inc = add


class Gauge(_Instrument):
    """Set-or-add instrument; merges by summing (per-process deltas)."""

    kind = "gauge"

    def set(self, value, **labels) -> None:
        """Overwrite one label series with ``value`` (no-op while disabled)."""
        if not self.registry.enabled:
            return
        with self._lock:
            self._values[_label_key(labels)] = value

    def add(self, amount=1, **labels) -> None:
        """Add ``amount`` (either sign) to one series (no-op while disabled)."""
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount


class Histogram(_Instrument):
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Buckets are upper bounds (Prometheus ``le`` semantics) with an
    implicit ``+Inf``; fixing them at registration is what makes
    histogram merges element-wise integer additions -- bit-exact across
    any fan-in order.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(registry, name, help_text)
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        ordered = [float(bound) for bound in buckets]
        if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets: tuple[float, ...] = tuple(ordered)

    def bind(self, **labels) -> BoundHistogram:
        """Pre-resolve one label series for hot-path observation."""
        return BoundHistogram(self, _label_key(labels))

    def observe(self, value, **labels) -> None:
        """Record one observation into its bucket (no-op while disabled)."""
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        slot = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._values.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._values[key] = series
            series[0][slot] += 1
            series[1] += value
            series[2] += 1

    def value(self, **labels):
        """``(counts, sum, count)`` for one label set (None when empty)."""
        series = self._values.get(_label_key(labels))
        if series is None:
            return None
        return (list(series[0]), series[1], series[2])

    def labeled_values(self) -> dict:
        """Deep-copied ``{label-key: [counts, sum, count]}`` map."""
        with self._lock:
            return {
                key: [list(series[0]), series[1], series[2]]
                for key, series in self._values.items()
            }


class MetricsRegistry:
    """Named instruments with sketch-style snapshot/merge semantics.

    One process-wide default instance (:func:`get_registry`) backs all
    built-in instrumentation; isolated instances are for tests.
    ``enabled`` is resolved from ``REPRO_OBS`` at construction and may be
    flipped at runtime (benchmarks use this to A/B the overhead).
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = env_enabled() if enabled is None else enabled
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[tuple] = []

    @property
    def lock(self):
        """The lock all of this registry's instruments share.

        Hot paths that touch several instruments per chunk hold it once
        around a group of ``add_unlocked`` / ``observe_unlocked`` calls
        on bound series instead of paying one acquisition per update.
        """
        return self._lock

    def _register(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and tuple(
                    float(bound) for bound in buckets
                ) != existing.buckets:
                    raise ValueError(
                        f"histogram {name!r} re-registered with different "
                        "buckets; fixed buckets are what make merges exact"
                    )
                return existing
            instrument = cls(self, name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create a counter (idempotent by name)."""
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create a gauge (idempotent by name)."""
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = TIME_BUCKETS,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram (buckets must agree)."""
        return self._register(Histogram, name, help_text, buckets=buckets)

    # -- the sketch-style state protocol ------------------------------------

    def add_collector(self, fold, discard=None) -> None:
        """Register a scrape-time fold hook.

        Lock-free hot paths (e.g. the per-chunk sketch counters) park
        pending values in GIL-atomic buffers and register a ``fold``
        here; :meth:`snapshot` runs every hook first, so totals are
        exact at every scrape/merge boundary without the hot path ever
        taking the registry lock.  ``discard`` (optional) drops any
        pending values on :meth:`reset` -- forked workers use it so
        inherited, not-yet-folded parent values never leak into worker
        snapshots.
        """
        with self._lock:
            self._collectors.append((fold, discard))

    def snapshot(self) -> dict:
        """Plain-data snapshot of every non-empty instrument.

        The shape is codec-friendly (strings, ints, floats, lists,
        dicts), so worker registries travel over the existing process
        pipes unchanged; :func:`merge_snapshots` is its fan-in.
        Collector hooks fold first (see :meth:`add_collector`).
        """
        for fold, _discard in self._collectors:
            fold()
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            values = instrument.labeled_values()
            if not values:
                continue
            if instrument.kind == "counter":
                counters[instrument.name] = {
                    "help": instrument.help, "values": values,
                }
            elif instrument.kind == "gauge":
                gauges[instrument.name] = {
                    "help": instrument.help, "values": values,
                }
            else:
                histograms[instrument.name] = {
                    "help": instrument.help,
                    "buckets": list(instrument.buckets),
                    "values": values,
                }
        return {
            "counters": counters, "gauges": gauges, "histograms": histograms,
        }

    def reset(self) -> None:
        """Clear every instrument's values; registrations stay live, so
        module-scope instrument handles keep working after a reset (the
        process-backend workers reset their fork-inherited registry this
        way before counting anything of their own)."""
        for _fold, discard in self._collectors:
            if discard is not None:
                discard()
        with self._lock:
            for instrument in self._instruments.values():
                instrument.clear()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold registry snapshots into one -- the metrics fan-in.

    Counters and gauges sum per label set; histograms require identical
    buckets and sum per-bucket counts element-wise.  Integer counter
    merges are bit-exact regardless of fan-in order (commutative and
    associative, exactly like sketch merges).
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for section in ("counters", "gauges"):
            for name, data in snapshot.get(section, {}).items():
                into = merged[section].setdefault(
                    name, {"help": data.get("help", ""), "values": {}}
                )
                values = into["values"]
                for key, value in data["values"].items():
                    values[key] = values.get(key, 0) + value
        for name, data in snapshot.get("histograms", {}).items():
            buckets = [float(bound) for bound in data["buckets"]]
            into = merged["histograms"].setdefault(
                name,
                {
                    "help": data.get("help", ""),
                    "buckets": buckets,
                    "values": {},
                },
            )
            if into["buckets"] != buckets:
                raise ValueError(
                    f"histogram {name!r}: cannot merge snapshots with "
                    f"different buckets ({into['buckets']} vs {buckets})"
                )
            values = into["values"]
            for key, series in data["values"].items():
                counts, total, count = series[0], series[1], series[2]
                existing = values.get(key)
                if existing is None:
                    values[key] = [list(counts), total, count]
                else:
                    if len(existing[0]) != len(counts):
                        raise ValueError(
                            f"histogram {name!r}: bucket count mismatch "
                            "between snapshots"
                        )
                    existing[0] = [
                        a + b for a, b in zip(existing[0], counts)
                    ]
                    existing[1] += total
                    existing[2] += count
    return merged


def snapshot_is_empty(snapshot: dict) -> bool:
    """True when a snapshot carries no metric state at all (the
    kill-switch invariant: ``REPRO_OBS=0`` runs snapshot empty)."""
    return not any(
        snapshot.get(section) for section in ("counters", "gauges", "histograms")
    )


def counter_value(snapshot: dict, name: str, **labels):
    """One counter series' value out of a snapshot (0 when absent)."""
    data = snapshot.get("counters", {}).get(name)
    if data is None:
        return 0
    return data["values"].get(_label_key(labels), 0)


def counter_total(snapshot: dict, name: str):
    """Sum of every label series of one counter in a snapshot."""
    data = snapshot.get("counters", {}).get(name)
    if data is None:
        return 0
    return sum(data["values"].values())


def histogram_quantile(
    snapshot: dict, name: str, quantile: float = 0.99, **labels
) -> Optional[float]:
    """Bucket-resolution quantile estimate from a snapshot histogram.

    Prometheus-style conservative answer: walks the cumulative bucket
    counts and returns the ``le`` upper bound of the bucket the rank
    lands in (observations in the +Inf bucket clamp to the highest
    finite bound).  With ``labels`` the named series is read; without,
    every series of the histogram is summed first.  Returns ``None``
    when the histogram or series is absent or empty -- callers fall
    back to a static default (the hedged-read delay does exactly this).
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    data = snapshot.get("histograms", {}).get(name)
    if data is None:
        return None
    if labels:
        series = data["values"].get(_label_key(labels))
        selected = [series] if series is not None else []
    else:
        selected = list(data["values"].values())
    if not selected:
        return None
    bounds = [float(bound) for bound in data["buckets"]]
    counts = [0] * (len(bounds) + 1)
    for entry in selected:
        for index, value in enumerate(entry[0]):
            counts[index] += value
    total = sum(counts)
    if total <= 0:
        return None
    rank = quantile * total
    cumulative = 0
    for index, value in enumerate(counts):
        cumulative += value
        if cumulative >= rank:
            return bounds[min(index, len(bounds) - 1)]
    return bounds[-1]


_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument reports to."""
    global _default_registry
    if _default_registry is None:
        with _default_lock:
            if _default_registry is None:
                _default_registry = MetricsRegistry()
    return _default_registry


# -- fork safety -------------------------------------------------------------
#
# Supervised worker respawn forks *while the process is serving*: the
# event-loop and gateway threads may hold the registry lock (stats bumps,
# scrapes) at the exact fork instant, and a child that inherits a locked
# lock deadlocks the moment its post-fork ``obs.reset()`` touches it.
# Holding the lock across the fork (classic acquire-in-before, release-in
# -both-halves) guarantees the child starts with a consistent, unlocked
# registry.  Pool construction forks go through the same guard for free.

_atfork_held: list = []


def _atfork_acquire() -> None:
    registry = _default_registry
    if registry is not None:
        registry._lock.acquire()
        _atfork_held.append(registry._lock)


def _atfork_release() -> None:
    while _atfork_held:
        lock = _atfork_held.pop()
        try:
            lock.release()
        except RuntimeError:  # pragma: no cover - never held; be safe
            pass


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(
        before=_atfork_acquire,
        after_in_parent=_atfork_release,
        after_in_child=_atfork_release,
    )


class RegistryStatsBase:
    """Re-homes a stats dataclass surface onto registry instruments.

    Subclasses declare ``_COUNTERS`` / ``_GAUGES`` mapping attribute
    names to ``(metric_name, help)`` and call :meth:`_init_metrics` with
    their label set.  Declared attributes then *read* live registry
    values; :meth:`bump` is the only mutation -- assigning a declared
    attribute raises :class:`AttributeError`.
    """

    _COUNTERS: dict[str, tuple[str, str]] = {}
    _GAUGES: dict[str, tuple[str, str]] = {}

    def _init_metrics(
        self,
        labels: Mapping[str, object],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = registry or get_registry()
        instruments: dict[str, _Instrument] = {}
        for attr, (name, help_text) in self._COUNTERS.items():
            instruments[attr] = registry.counter(name, help_text)
        for attr, (name, help_text) in self._GAUGES.items():
            instruments[attr] = registry.gauge(name, help_text)
        self.__dict__["_labels"] = dict(labels)
        self.__dict__["_key"] = _label_key(labels)
        self.__dict__["_registry"] = registry
        self.__dict__["_instruments"] = instruments

    def bump(self, **amounts) -> None:
        """Add to the named counter/gauge fields (the sanctioned path).

        Writes land regardless of the ``REPRO_OBS`` kill switch: these
        objects are functional accounting their owners read back (the
        service's ``stats`` payload, ingest summaries), not optional
        probes -- the switch silences the pipeline's telemetry
        instruments, never the books.
        """
        instruments = self._instruments
        key = self._key
        with self._registry.lock:
            for attr, amount in amounts.items():
                values = instruments[attr]._values
                values[key] = values.get(key, 0) + amount

    def dispose(self) -> None:
        """Drop this surface's label series from every instrument."""
        for instrument in self._instruments.values():
            instrument.remove(**self._labels)

    def __getattr__(self, attr: str):
        instruments = self.__dict__.get("_instruments")
        if instruments is not None and attr in instruments:
            return instruments[attr].value(**self.__dict__["_labels"])
        raise AttributeError(
            f"{type(self).__name__} object has no attribute {attr!r}"
        )

    def __setattr__(self, attr: str, value) -> None:
        if attr in self._COUNTERS or attr in self._GAUGES:
            raise AttributeError(
                f"{type(self).__name__}.{attr} is a view over the obs "
                f"metrics registry; use bump({attr}=...) instead"
            )
        object.__setattr__(self, attr, value)
