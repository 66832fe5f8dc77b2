"""Run one workload of the sketch-fleet benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

The run generates its inputs from ``--seed``, sets the fleet up
``SETUP_REPEATS`` times (servers, kernel self-check, connect and
handshake, preload, warm-up) and keeps the last one, measures a closed
loop for ``--seconds``, then checks the fleet's final state against a
serial engine fed exactly the acknowledged stream.

The timed window is cut into ``PARTS`` back-to-back parts.  ``--trace 0``
prints the end-to-end metrics, each the median of its value over the
parts.  They are counted in CPU time of the whole process (client,
coordinator and servers alike), which the host's other load and the
hypervisor's stolen time leave out; the same figures on the wall clock
are printed beside them, unbounded.  ``--trace 1`` times every layer's
calls (see ``layers.py``) in every other part, and prints the per-layer
metrics, the wall-clock figures of the untraced parts, the tracing
overhead between the untraced and the traced parts, and the coordinator
read budget.

Human-readable lines come first, each starting with ``#``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: The traced per-read budget must match the untraced read p50 within
#: this many percent on the coordinator workloads.
BUDGET_TOLERANCE_PCT = 15.0
#: Fleet set-ups per run; ``setup_s`` is the median of their scaled CPU times.
SETUP_REPEATS = 7
#: ``workloads.calibrate`` calls before each set-up; their median scales
#: that set-up's CPU time to the reference host's speed.
SETUP_CALIBRATIONS = 25
#: The timed window is cut into this many back-to-back parts, and every
#: end-to-end metric is the median of its value over the parts: a burst
#: of host noise then moves one part, not the run's figure.
PARTS = 10


class _TracebackCounter(logging.Handler):
    """Counts tracebacks nobody handled: asyncio's error log records and
    exceptions that end a thread (both still print as usual)."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.count = 0
        self._thread_hook = threading.excepthook
        logging.getLogger("asyncio").addHandler(self)
        threading.excepthook = self._thread_exception

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1

    def _thread_exception(self, args) -> None:
        self.count += 1
        self._thread_hook(args)


def _report_host(nproc: int, kernel_tier: str) -> None:
    """Print the host and tier record; flag a run the baseline cannot match."""
    host = {
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_OBS": os.environ.get("REPRO_OBS", "unset"),
        "REPRO_NATIVE_KERNELS": os.environ.get("REPRO_NATIVE_KERNELS", "unset"),
        "kernel_tier": kernel_tier,
    }
    print("# host: " + " ".join(f"{key}={value}" for key, value in host.items()))
    baseline = json.loads((HERE / "baseline.json").read_text())
    differs = [key for key in baseline if host[key] != baseline[key]]
    if differs:
        note = ", ".join(f"{key} {host[key]} vs baseline {baseline[key]}" for key in differs)
        print(f"# NOT COMPARABLE with the recorded baseline: {note}")
        print(f"perfbench: not comparable with the baseline: {note}", file=sys.stderr)


def _percentile_ms(values: list[float], q: float) -> float:
    return 1e3 * float(numpy.percentile(values, q))


def _median_over(parts: list, metric) -> float:
    return statistics.median(metric(part) for part in parts)


def _latencies(parts: list, prefix: str, field: str) -> dict[str, float]:
    """Median over the parts of each part's p50 and p90 of one latency list."""
    return {
        f"{prefix}_p{q}_ms": _median_over(parts, lambda p: _percentile_ms(getattr(p, field), q))
        for q in (50, 90)
    }


def _end_to_end(parts: list, setups: list[float], rss_mb: float) -> dict:
    """The bounded metrics: work per CPU second and CPU time per
    operation, both scaled to the reference host's speed."""
    metrics = {
        "updates_per_cpu_s": (_median_over(parts, lambda p: p.cpu_rate("updates")), "1/s"),
        "reads_per_cpu_s": (_median_over(parts, lambda p: p.cpu_rate("reads")), "1/s"),
    }
    for kind in ("read", "write"):
        for q in (50, 90):
            value = _median_over(parts, lambda p: p.cpu_ms(kind, q))
            metrics[f"{kind}_cpu_p{q}_ms"] = (value, "ms")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def _wall(parts: list, setup_walls: list[float]) -> dict[str, float]:
    """The same figures on the wall clock, which a caller waits out, and
    the host's speed as the calibration measured it.

    They move with the host's load as much as with the program, so they
    are reported beside the bounded metrics, not bounded themselves.
    """
    return {
        "host.calibration_ms": _median_over(
            parts, lambda p: 1e3 * statistics.median(p.calibration_s)
        ),
        "wall.updates_per_s": _median_over(parts, lambda p: p.rate("updates")),
        "wall.reads_per_s": _median_over(parts, lambda p: p.rate("reads")),
        **_latencies(parts, "wall.read", "read_s"),
        **_latencies(parts, "wall.write", "write_s"),
        "wall.setup_s": statistics.median(setup_walls),
    }


def _cpu_now() -> float:
    """CPU seconds of this process and of the children it waited for
    (the native kernel compiler, on the first set-up in a checkout)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source, never an
    # installed copy; its kernel build cache stays inside the checkout.
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
    sys.path.insert(0, str(source))
    from repro.core import kernels
    from layers import LayerTracer, metric_names
    from workloads import WORKLOADS, calibrate, speed_scale

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracebacks = _TracebackCounter()
    # Every thread of the run -- client, coordinator and server threads,
    # all started after this -- shares one CPU.  Spread over two, the
    # threads hand the interpreter lock across CPUs, and that costs a
    # varying 10-20% more CPU time per operation.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](args.seed)
    print(f"# workload {workload.name} seed {args.seed}: {workload.why}")

    setups = []
    setup_walls = []
    for repeat in range(SETUP_REPEATS):
        calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        cpu_started, started = _cpu_now(), time.perf_counter()
        # Re-run the native tier's load and self-check on every set-up
        # (the first one in a checkout also compiles it).
        kernels._reset_native_for_tests()
        native = kernels.native_kernels_available()
        workload.start()
        setup_walls.append(time.perf_counter() - started)
        setups.append((_cpu_now() - cpu_started) * speed_scale(calibrations))
        if repeat < SETUP_REPEATS - 1:
            workload.stop()
    _report_host(nproc, "native" if native else "numpy")

    part_s = args.seconds / PARTS
    failed = 0
    plain: list = []
    traced: list = []
    tracer = LayerTracer(workload.sketch_class)
    try:
        gc.collect()
        for part in range(PARTS):
            if args.trace and part % 2:
                # Traced parts alternate with untraced ones, so drift in
                # the host's speed reaches both halves alike.
                with tracer:
                    traced.append(workload.window(part_s))
            else:
                plain.append(workload.window(part_s))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fleet_snapshot, fleet_answer = workload.final()
    except Exception:  # an operation failed: report it and print no result
        traceback.print_exc()
        failed += 1
    # Clients and the coordinator close before the servers stop; any
    # traceback left while stopping is teardown noise, not a failed
    # operation, and is counted apart.
    errors_before = tracebacks.count
    workload.stop()
    teardown_errors = tracebacks.count - errors_before
    print(f"# teardown_errors: {teardown_errors} (unhandled tracebacks while stopping)")
    if failed:
        return 1

    ref_snapshot, ref_answer, engine_ups = workload.reference()
    checks = {
        "snapshot bytes": fleet_snapshot == ref_snapshot,
        "probe answers": _same(fleet_answer, ref_answer),
    }
    for check, ok in checks.items():
        print(f"# exactness, {check} equal to the serial engine: {ok}")
    failed = sum(not ok for ok in checks.values())
    windows = plain + traced
    attempted = sum(w.operations for w in windows) + len(checks)
    print(f"# error_rate: {failed}/{attempted} = {failed / attempted:g}")
    print(f"# serial reference engine: {engine_ups:.4g} updates/s")
    print("# setup_s repeats (CPU s): " + " ".join(f"{s:.4f}" for s in setups))
    print("# set-up repeats (wall s): " + " ".join(f"{s:.4f}" for s in setup_walls))
    reads = [latency for w in windows for latency in w.read_s]
    writes = [latency for w in windows for latency in w.write_s]
    print(
        f"# timed: {sum(w.wall_s for w in windows):.3f} s in {len(windows)} parts, "
        f"{len(writes)} writes, {len(reads)} reads, {sum(w.updates for w in windows)} updates"
    )
    # The 99th percentiles over the whole run swing with host noise far
    # more than the bounds allow, so they are shown but not bounded.
    print(
        f"# p99 over the run: read {_percentile_ms(reads, 99):.4g} ms, "
        f"write {_percentile_ms(writes, 99):.4g} ms"
    )

    if args.trace:
        values = _trace_metrics(tracer, plain, traced, workload.primary_rate)
        values["core.engine.drive_arrays.ups"] = engine_ups
        values["teardown_errors"] = teardown_errors
        values.update(_wall(plain, setup_walls))
        units = {name: unit for name, unit, _ in metric_names()}
        metrics = {name: (value, units[name]) for name, value in values.items()}
    else:
        metrics = _end_to_end(plain, setups, rss_mb)
        for name, value in _wall(plain, setup_walls).items():
            print(f"# {name} = {value:.6g} (not bounded)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _trace_metrics(tracer, plain: list, traced: list, primary: str) -> dict[str, float]:
    """Per-layer totals, the read budget check and the tracing overhead."""
    values = tracer.metrics(sum(part.wall_s for part in traced))
    if tracer.reads:
        plain_p50 = _median_over(plain, lambda p: _percentile_ms(p.read_s, 50))
        budget = values["read_budget.sum_p50_ms"]
        gap = 100 * (budget - plain_p50) / plain_p50
        within = "within" if abs(gap) <= BUDGET_TOLERANCE_PCT else "OUTSIDE"
        print(
            f"# read budget: traced per-read sum p50 {budget:.3f} ms vs untraced read "
            f"p50 {plain_p50:.3f} ms, gap {gap:+.2f}% ({within} +-{BUDGET_TOLERANCE_PCT:g}%)"
        )
    else:
        gap = 0.0
    values["read_budget.gap_pct"] = gap
    values["trace_overhead_pct"] = 100 * (
        1 - _median_over(traced, lambda p: p.cpu_rate(primary))
        / _median_over(plain, lambda p: p.cpu_rate(primary))
    )
    return values


def _same(left, right) -> bool:
    """Equality of two probe answers (int64 arrays or plain ints)."""
    if isinstance(left, numpy.ndarray) or isinstance(right, numpy.ndarray):
        return bool(numpy.array_equal(left, right))
    return left == right


if __name__ == "__main__":
    sys.exit(main())
