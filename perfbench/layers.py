"""Per-layer call timing from outside the program.

:class:`LayerTracer` wraps the public functions each layer exposes --
the wire codec, the partitioner, the sharded scatter, the sketch, the
clients and the coordinator -- with timers, for the span of one traced
window, and restores the originals afterwards.  Nothing in ``src/`` is
edited: the wrappers are installed on the module and class attributes
the program already looks up at call time.

Every wrapped call adds its wall time to its layer's ``busy_s``.  Calls
run on several threads at once (the client on the main thread, each
server on its own loop thread and engine thread), so ``busy_s`` sums
overlapping intervals and a layer's ``share`` of the window may exceed
1.  Times are inclusive: ``parallel.sharded.process_batch`` contains the
``parallel.partition.split`` and ``sketch.process_batch`` calls it makes.

Coordinator reads get a finer account.  Inside one ``merged()`` call the
tracer records the fan-in wall time (first snapshot request sent to
last reply received, across the concurrent per-server round trips) and
the coordinator-side ``restore`` and ``merge`` time; what is left of the
call is ``self_s``, mostly the deep copies of the never-fed template.
Each coordinator read (``estimate`` or ``query``) also records the time
spent answering from the merged sketch, so the per-read budget
``fan-in + restore + merge + self + answer`` can be set against the
untraced read latency.
"""

from __future__ import annotations

import contextvars
import functools
import statistics
import threading
import time

from repro.parallel.partition import UniversePartitioner
from repro.parallel.sharded import ShardedAlgorithm
from repro.service import protocol
from repro.service.client import AsyncSketchClient
from repro.service.coordinator import SketchCoordinator

#: Layers in report order: (metric prefix, owner, attribute, bytes source).
#: ``None`` as owner means "the sketch class of the workload"; the bytes
#: source names where a codec call's frame is: its ``"result"`` (encode)
#: or its first argument, ``"arg"`` (decode).
LAYERS = (
    ("service.protocol.pack_message", protocol, "pack_message", "result"),
    ("service.protocol.unpack_message", protocol, "unpack_message", "arg"),
    ("parallel.partition.split", UniversePartitioner, "split", None),
    ("parallel.sharded.process_batch", ShardedAlgorithm, "process_batch", None),
    ("sketch.process_batch", None, "process_batch", None),
    ("service.client.snapshot", AsyncSketchClient, "snapshot", None),
    ("sketch.snapshot", None, "snapshot", None),
    ("sketch.restore", None, "restore", None),
    ("sketch.merge", None, "merge", None),
    ("sketch.estimate_batch", None, "estimate_batch", None),
    ("sketch.query", None, "query", None),
    ("service.coordinator.feed", SketchCoordinator, "feed", None),
    ("service.coordinator.merged", SketchCoordinator, "merged", None),
)

#: Per-read budget parts, reported as per-read means in milliseconds.
BUDGET_PARTS = ("fanin_wall", "restore", "merge", "merged_self", "answer")

# The read (or merged() call) the current task is inside, if any.
_read = contextvars.ContextVar("perfbench_read", default=None)


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    for prefix, _, _, frame in LAYERS:
        names += [
            (f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.busy_s", "s", "lower"),
            (f"{prefix}.share", "ratio", "lower"),
        ]
        if frame:
            names.append((f"{prefix}.bytes", "bytes", "lower"))
    names.append(("service.coordinator.merged.self_s", "s", "lower"))
    names += [(f"read_budget.{part}_ms", "ms", "lower") for part in BUDGET_PARTS]
    names += [
        ("read_budget.sum_p50_ms", "ms", "lower"),
        ("read_budget.gap_pct", "%", "lower"),
        ("core.engine.drive_arrays.ups", "1/s", "higher"),
        ("trace_overhead_pct", "%", "lower"),
        ("teardown_errors", "count", "lower"),
    ]
    names += [
        ("wall.updates_per_s", "1/s", "higher"),
        ("wall.reads_per_s", "1/s", "higher"),
    ]
    names += [
        (f"wall.{kind}_p{q}_ms", "ms", "lower") for kind in ("read", "write") for q in (50, 90)
    ]
    names.append(("wall.setup_s", "s", "lower"))
    names.append(("host.calibration_ms", "ms", "lower"))
    return names


class LayerTracer:
    """Installs timing wrappers on every layer for one traced window.

    Use as a context manager around the window; read :meth:`metrics`
    afterwards.
    """

    def __init__(self, sketch_class: type) -> None:
        self.sketch_class = sketch_class
        self._lock = threading.Lock()
        #: prefix -> [calls, busy seconds, bytes]
        self.totals = {prefix: [0, 0.0, 0] for prefix, *_ in LAYERS}
        self.merged_self_s = 0.0
        #: One dict of budget parts (seconds) per completed coordinator read.
        self.reads: list[dict] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- accounting ---------------------------------------------------------

    def _add(self, prefix: str, seconds: float, size: int = 0) -> None:
        with self._lock:
            entry = self.totals[prefix]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += size

    # -- wrappers -------------------------------------------------------------

    def _timed(self, prefix: str, fn, frame):
        """Plain timing wrapper; ``frame`` says where the codec bytes are."""
        add = self._add
        clock = time.perf_counter
        part = _READ_PARTS.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - started
            if frame is None:
                add(prefix, elapsed)
            else:
                add(prefix, elapsed, len(result if frame == "result" else args[0]))
            if part is not None:
                read = _read.get()
                if read is not None:
                    read[part] += elapsed
            return result

        return wrapper

    def _timed_async(self, prefix: str, fn):
        add = self._add
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            started = clock()
            result = await fn(*args, **kwargs)
            ended = clock()
            add(prefix, ended - started)
            read = _read.get()
            if read is not None and prefix == "service.client.snapshot":
                span = read["fanin_span"]
                span[0] = min(span[0], started)
                span[1] = max(span[1], ended)
            return result

        return wrapper

    def _merged(self, fn):
        """``coordinator.merged``: time it and split off its self time."""
        add = self._add
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            read = _read.get()
            token = None
            if read is None:  # a merged() outside estimate()/query()
                read = _new_read()
                token = _read.set(read)
            restore0, merge0 = read["restore"], read["merge"]
            span = read["fanin_span"] = [float("inf"), float("-inf")]
            started = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                fanin = max(0.0, span[1] - span[0])
                self_s = elapsed - fanin - (read["restore"] - restore0) - (
                    read["merge"] - merge0
                )
                read["fanin_wall"] += fanin
                read["merged_self"] += self_s
                add("service.coordinator.merged", elapsed)
                with self._lock:
                    self.merged_self_s += self_s
                if token is not None:
                    _read.reset(token)

        return wrapper

    def _read_scope(self, fn):
        """``coordinator.estimate`` / ``query``: one budget record per read."""
        reads = self.reads
        lock = self._lock

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            read = _new_read()
            token = _read.set(read)
            try:
                result = await fn(*args, **kwargs)
            finally:
                _read.reset(token)
            with lock:
                reads.append({part: read[part] for part in BUDGET_PARTS})
            return result

        return wrapper

    # -- install / restore ----------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        owned = attribute in vars(owner)
        self._saved.append((owner, attribute, vars(owner).get(attribute), owned))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "LayerTracer":
        for prefix, owner, attribute, frame in LAYERS:
            owner = owner if owner is not None else self.sketch_class
            original = getattr(owner, attribute)
            if prefix == "service.coordinator.merged":
                wrapper = self._merged(original)
            elif prefix in _ASYNC_LAYERS:
                wrapper = self._timed_async(prefix, original)
            else:
                wrapper = self._timed(prefix, original, frame)
            self._patch(owner, attribute, wrapper)
        for attribute in ("estimate", "query"):
            self._patch(
                SketchCoordinator,
                attribute,
                self._read_scope(getattr(SketchCoordinator, attribute)),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- report ---------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals over a traced window of ``wall_s`` seconds."""
        out: dict[str, float] = {}
        for prefix, _, _, frame in LAYERS:
            calls, busy, size = self.totals[prefix]
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.busy_s"] = busy
            out[f"{prefix}.share"] = busy / wall_s
            if frame:
                out[f"{prefix}.bytes"] = size
        out["service.coordinator.merged.self_s"] = self.merged_self_s
        for part in BUDGET_PARTS:
            out[f"read_budget.{part}_ms"] = (
                1e3 * statistics.fmean(read[part] for read in self.reads)
                if self.reads
                else 0.0
            )
        out["read_budget.sum_p50_ms"] = (
            1e3 * statistics.median(sum(read.values()) for read in self.reads)
            if self.reads
            else 0.0
        )
        return out


def _new_read() -> dict:
    read = {part: 0.0 for part in BUDGET_PARTS}
    read["fanin_span"] = [float("inf"), float("-inf")]  # set per merged()
    return read


#: Sync layers whose time also counts toward the enclosing read's budget.
#: Server threads never see a read context, so only the coordinator's own
#: restore/merge/answer calls land here.
_READ_PARTS = {
    "sketch.restore": "restore",
    "sketch.merge": "merge",
    "sketch.estimate_batch": "answer",
    "sketch.query": "answer",
}

_ASYNC_LAYERS = frozenset({"service.client.snapshot", "service.coordinator.feed"})
