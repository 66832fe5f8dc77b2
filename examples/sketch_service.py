"""The network sketch service: a collector fleet behind TCP sockets.

The deployment shape from the paper's motivating applications (Section
1: sketches living on shared infrastructure, serving many writers and
readers at once), built from the layers the repo already certifies --
mergeable sketches, universe-partitioned fleets, wire-format snapshots,
checkpoint/recovery -- with `repro.service` putting sockets in front.

Part one hosts a single `SketchServer` (a process-backend CountMin
fleet) and drives it with four concurrent clients, then checks the
merged estimates byte-for-byte against one serial engine fed the same
stream: commutative update rules make the interleaving irrelevant, so
the service inherits the single-engine semantics -- including the
white-box ones -- unchanged.

Part two goes multi-host: a `SketchCoordinator` owns the
`UniversePartitioner` over two servers, routes each batch's slices
concurrently, pulls wire-format snapshots back for the merge, writes a
standard checkpoint file of the fleet's merged state, and recovers it
into a brand-new fleet -- all bit-exact.

Run:  PYTHONPATH=src python examples/sketch_service.py
It exits non-zero when any "identical to serial engine" check fails.
"""

import asyncio
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.api import (
    SketchClient,
    SketchCoordinator,
    SketchServer,
    StreamEngine,
)
from repro.heavyhitters.count_min import CountMinSketch
from repro.workloads.frequency import uniform_arrays

UNIVERSE = 1_000_000
STREAM = 1_000_000
CHUNK = 1 << 16


def factory():
    """One CountMin replica; every server/shard shares this seed."""
    return CountMinSketch(UNIVERSE, width=64, depth=4, seed=1)


def main() -> bool:
    """Run both parts; whether every check held."""
    items, deltas = uniform_arrays(UNIVERSE, STREAM, seed=42)
    probe = np.arange(1024, dtype=np.int64)
    reference = factory()
    StreamEngine(chunk_size=CHUNK).drive_arrays([reference], items, deltas)
    checks: list[bool] = []

    def check(estimates) -> bool:
        identical = bool(np.array_equal(estimates, reference.estimate_batch(probe)))
        checks.append(identical)
        return identical

    # -- part one: one server, four concurrent clients -------------------
    print("== one collector, four concurrent clients ==")
    server = SketchServer(factory, num_shards=2, backend="process", chunk_size=CHUNK)
    with server.run_in_thread() as srv:

        def feed_slice(offset: int) -> None:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed_chunks(
                    (items[i : i + CHUNK], deltas[i : i + CHUNK])
                    for i in range(offset * CHUNK, STREAM, 4 * CHUNK)
                )

        start = time.perf_counter()
        threads = [
            threading.Thread(target=feed_slice, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start

        with SketchClient.connect("127.0.0.1", srv.port) as client:
            exact = check(client.estimate(probe))
            stats = client.stats()
        print(
            f"  4 clients fed {STREAM:,} updates in {seconds:.2f}s "
            f"({STREAM / seconds / 1e6:.1f}M ups) over "
            f"{stats['frames']} frames"
        )
        print(f"  merged estimates identical to serial engine: {exact}")

    # -- part two: a coordinator over two servers ------------------------
    print("== coordinator: two servers, wire merge, checkpoint/recover ==")
    s1 = SketchServer(factory, chunk_size=CHUNK)
    s2 = SketchServer(factory, chunk_size=CHUNK)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.ckpt"

        async def deploy() -> None:
            coordinator = SketchCoordinator(
                factory, [("127.0.0.1", s1.port), ("127.0.0.1", s2.port)]
            )
            await coordinator.connect()
            await coordinator.feed_chunks(
                (items[i : i + CHUNK], deltas[i : i + CHUNK])
                for i in range(0, STREAM, CHUNK)
            )
            print(
                "  fleet estimates identical to serial engine:",
                check(await coordinator.estimate(probe)),
            )
            positions = [s["position"] for s in await coordinator.stats()]
            print(f"  per-server loads: {positions} (sum {sum(positions):,})")
            await coordinator.checkpoint(path)
            await coordinator.close()

        with s1.run_in_thread(), s2.run_in_thread():
            asyncio.run(deploy())

        # a brand-new fleet picks the checkpoint up over the wire
        f1 = SketchServer(factory, chunk_size=CHUNK)
        f2 = SketchServer(factory, chunk_size=CHUNK)

        async def recover() -> None:
            coordinator = SketchCoordinator(
                factory, [("127.0.0.1", f1.port), ("127.0.0.1", f2.port)]
            )
            await coordinator.connect()
            position = await coordinator.recover(path)
            print(
                f"  recovered fresh fleet at position {position:,}; "
                "estimates identical:",
                check(await coordinator.estimate(probe)),
            )
            await coordinator.close()

        with f1.run_in_thread(), f2.run_in_thread():
            asyncio.run(recover())

    return len(checks) == 3 and all(checks)


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
