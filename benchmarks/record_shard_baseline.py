"""Record shard-scaling numbers for the sharded engine (BENCH_batch.json).

Measures CountMin and SIS-L0 on a uniform 10^7-update stream over a 10^6
universe (``--quick``: 10^6 updates) along three axes and merges the
results into the ``shard_scaling`` key of ``BENCH_batch.json`` (the other
keys -- PR 1's per-update-vs-batched baseline -- are preserved):

* ``seed_batched_seconds`` -- the pre-sharding 1-shard batched path as the
  seed repo ran it: plain ``StreamEngine.drive_arrays``, with the SIS
  estimator pinned to its exact sparse-dict arithmetic (``force_exact``,
  the only representation the seed had);
* ``batched_seconds`` -- the same 1-shard path today (for SIS-L0 this is
  where the int64 dense fast path lands);
* ``shards`` -- ``ShardedAlgorithm`` fleets at 1/2/4/8 shards, serial
  scatter, driven by ``StreamEngine`` in ``DEFAULT_CHUNK_SIZE * shards``
  chunks (so each shard scatters near-default sub-chunks), each verified
  bit-identical to the single-engine state before its numbers count.

``speedup_vs_seed`` compares the 4-shard engine against the seed's 1-shard
batched path.  Honesty note, recorded in the payload: this host exposes
``cpus`` cores.  On one core the sharded CountMin scatter cannot beat the
already numpy-bound single-engine path (partitioning adds work and there
is nothing to overlap), so its shard columns measure pure partitioning
overhead; SIS-L0's speedup comes from the int64 fast path the sharded
subsystem ships.  With ``backend="thread"`` on a multi-core host the
per-shard scatters overlap (numpy kernels release the GIL).

A second section, ``process_scaling``, detects ``os.cpu_count()`` and
races the three scatter backends (serial / thread / process) at a shard
count sized to the host, each verified bit-identical to the single
engine before its numbers count; every backend row is tagged with the
detected core count.  On a single-CPU host the parallel backends can
only measure dispatch overhead (shared-memory transport + snapshot
fan-in for the process pool), so the race is *skipped* there and the
payload records the skip reason instead of overhead-dominated numbers.

Usage::

    PYTHONPATH=src python benchmarks/record_shard_baseline.py [--quick]
        [--require-backends]

``--require-backends`` turns the single-CPU skip into a hard failure: the
CI shard-smoke job passes it so the backend race is *recorded* on every
multi-core runner (GitHub runners expose 2 cores) instead of silently
degrading to skip rows if the runner shape ever changes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import DEFAULT_CHUNK_SIZE, StreamEngine
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.parallel import ShardedAlgorithm
from repro.workloads.frequency import uniform_arrays

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARD_COUNTS = (1, 2, 4, 8)


def _sis_params(n: int) -> SISParams:
    """Benchmark SIS parameters: q ~ 2^20 keeps the int64 fast path live.

    The modulus is a free poly(n) choice in Theorem 1.5; a smaller q only
    shrinks the per-register space, never the n^eps guarantee.
    """
    return SISParams(rows=8, cols=1000, modulus=next_prime(1 << 20), beta=1000.0 * n)


def _state_signature(sketch) -> dict:
    """Observable fields as a plain dict (order-insensitive equality)."""
    return dict(sketch.state_view().fields)


def measure_family(name: str, factory, seed_factory, items, deltas) -> dict:
    """Time seed-batched, current-batched, and 1/2/4/8-shard runs."""
    length = len(items)

    seed_alg = seed_factory()
    start = time.perf_counter()
    StreamEngine().drive_arrays(seed_alg, items, deltas)
    seed_seconds = time.perf_counter() - start

    batch_alg = factory()
    start = time.perf_counter()
    StreamEngine().drive_arrays(batch_alg, items, deltas)
    batch_seconds = time.perf_counter() - start

    # The two 1-shard paths must agree before any number means anything.
    if _state_signature(seed_alg) != _state_signature(batch_alg):
        raise AssertionError(f"{name}: fast-path state diverged from seed path")

    reference = _state_signature(batch_alg)
    shard_rows = []
    for count in SHARD_COUNTS:
        fleet = ShardedAlgorithm(factory, num_shards=count)
        start = time.perf_counter()
        StreamEngine(chunk_size=DEFAULT_CHUNK_SIZE * count).drive_arrays(
            fleet, items, deltas
        )
        seconds = time.perf_counter() - start
        if _state_signature(fleet.merged()) != reference:
            raise AssertionError(f"{name}: {count}-shard merged state diverged")
        shard_rows.append(
            {
                "shards": count,
                "seconds": round(seconds, 4),
                "ups": round(length / seconds),
                "speedup_vs_seed": round(seed_seconds / seconds, 2),
                "speedup_vs_batched": round(batch_seconds / seconds, 2),
            }
        )

    four = next(r for r in shard_rows if r["shards"] == 4)
    return {
        "sketch": name,
        "updates": length,
        "seed_batched_seconds": round(seed_seconds, 4),
        "batched_seconds": round(batch_seconds, 4),
        "batched_ups": round(length / batch_seconds),
        "shards": shard_rows,
        "speedup_4shard_vs_seed_batched": four["speedup_vs_seed"],
    }


def measure_backends(name: str, factory, items, deltas, num_shards: int) -> dict:
    """Race serial vs thread vs process scatter at one shard count.

    Every backend's merged state is verified bit-identical to the single
    batched engine before its timing counts -- the process rows therefore
    also certify the wire-format snapshot fan-in end to end.
    """
    length = len(items)
    reference_alg = factory()
    StreamEngine().drive_arrays(reference_alg, items, deltas)
    reference = _state_signature(reference_alg)

    cpus = os.cpu_count() or 1
    rows = []
    serial_seconds = None
    for backend in ("serial", "thread", "process"):
        with ShardedAlgorithm(
            factory, num_shards=num_shards, backend=backend
        ) as fleet:
            start = time.perf_counter()
            StreamEngine(chunk_size=DEFAULT_CHUNK_SIZE * num_shards).drive_arrays(
                fleet, items, deltas
            )
            merged = fleet.merged()  # process backend: snapshot fan-in
            seconds = time.perf_counter() - start
            if _state_signature(merged) != reference:
                raise AssertionError(
                    f"{name}: {backend} backend merged state diverged"
                )
        if backend == "serial":
            serial_seconds = seconds
        rows.append(
            {
                "backend": backend,
                "shards": num_shards,
                "cpus": cpus,
                "seconds": round(seconds, 4),
                "ups": round(length / seconds),
                "speedup_vs_serial": round(serial_seconds / seconds, 2),
            }
        )
    return {"sketch": name, "updates": length, "backends": rows}


def main() -> None:
    quick = "--quick" in sys.argv
    n = 1_000_000
    m = 1_000_000 if quick else 10_000_000
    items, deltas = uniform_arrays(n, m, seed=20260729)

    results = [
        measure_family(
            "count-min 4x64",
            lambda: CountMinSketch(n, width=64, depth=4, seed=1),
            lambda: CountMinSketch(n, width=64, depth=4, seed=1),
            items,
            deltas,
        ),
        measure_family(
            "sis-l0 q~2^20",
            lambda: SisL0Estimator(n, params=_sis_params(n), seed=2),
            lambda: SisL0Estimator(n, params=_sis_params(n), seed=2, force_exact=True),
            items,
            deltas,
        ),
    ]

    payload = {
        "benchmark": "sharded engine scaling (merged state verified bit-identical)",
        "universe_size": n,
        "stream_length": m,
        "chunk_size_per_shard": StreamEngine().chunk_size,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "numpy": np.__version__,
        "note": (
            "seed_batched = pre-sharding engine (SIS-L0 in exact arithmetic); "
            "shard rows run the serial scatter -- on a single-core host they "
            "measure partition overhead for CountMin, while SIS-L0's gain is "
            "the int64 dense fast path; backend='thread' overlaps shard scatters "
            "on multi-core hosts"
        ),
        "results": results,
    }

    # Backend race: shard count sized to the detected cores (capped so the
    # run stays honest and quick on small hosts; never below 2 shards so
    # the parallel backends actually fan out).  The race runs whenever
    # os.cpu_count() > 1; on a single-CPU host the parallel backends can
    # only measure dispatch overhead -- the race is skipped outright, with
    # the reason recorded, rather than committing overhead-dominated
    # numbers as if they were scaling data.  --require-backends (the CI
    # shard-smoke job's mode) refuses the skip, so multi-core runners
    # always record real serial/thread/process rows.
    cpus = os.cpu_count() or 1
    if cpus < 2:
        if "--require-backends" in sys.argv:
            print(
                "--require-backends: single-CPU host cannot record the "
                "backend race",
                file=sys.stderr,
            )
            raise SystemExit(1)
        process_payload = {
            "benchmark": "scatter backend race (serial vs thread vs process)",
            "cpus": cpus,
            "skipped": True,
            "reason": (
                "single-CPU host: thread/process backends have no cores to "
                "overlap on, so their rows would measure shared-memory "
                "transport + snapshot fan-in dispatch overhead, not "
                "scaling -- the CI shard-smoke job records the race on its "
                "2-core runners (--require-backends), and a multi-core "
                "dev host re-records these committed rows"
            ),
        }
    else:
        backend_shards = max(2, min(4, cpus))
        backend_items = items[: len(items) // 4]
        backend_deltas = deltas[: len(deltas) // 4]
        process_payload = {
            "benchmark": "scatter backend race (serial vs thread vs process)",
            "cpus": cpus,
            "shards": backend_shards,
            "stream_length": len(backend_items),
            "note": (
                "process rows include wire-format snapshot fan-in (merged "
                "state verified bit-identical each run) and run the "
                "double-buffered pipelined scatter: chunk t+1's partition/"
                "copy overlaps chunk t's worker scatter"
            ),
            "results": [
                measure_backends(
                    "count-min 4x64",
                    lambda: CountMinSketch(n, width=64, depth=4, seed=1),
                    backend_items,
                    backend_deltas,
                    backend_shards,
                ),
                measure_backends(
                    "sis-l0 q~2^20",
                    lambda: SisL0Estimator(n, params=_sis_params(n), seed=2),
                    backend_items,
                    backend_deltas,
                    backend_shards,
                ),
            ],
        }

    out = REPO_ROOT / "BENCH_batch.json"
    existing = json.loads(out.read_text()) if out.exists() else {}
    existing["shard_scaling"] = payload
    existing["process_scaling"] = process_payload
    out.write_text(json.dumps(existing, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(json.dumps(process_payload, indent=2))
    for family in results:
        print(
            f"{family['sketch']}: 4-shard vs seed batched "
            f"{family['speedup_4shard_vs_seed_batched']}x -> {out}"
        )


if __name__ == "__main__":
    main()
