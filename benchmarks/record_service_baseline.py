"""Record network-service throughput numbers (``service_path`` section).

Hosts a :class:`repro.service.SketchServer` on localhost and drives it
the way a deployment would -- concurrent client swarms pipelining large
update frames -- then merges the results into the ``service_path`` key of
``BENCH_batch.json`` (all other keys are preserved):

* ``single_client`` -- one blocking :class:`SketchClient` streaming the
  whole stream through ``feed_chunks`` (pipelined acknowledgements), for
  serial and process-backend fleets;
* ``client_swarm`` -- ``--clients`` threads (default 4), each feeding a
  strided slice of the stream to a **process-backend** fleet, timed
  wall-clock across the whole swarm.  This is the acceptance row: the
  aggregate rate must clear ``TARGET_UPS`` (1M updates/sec) and the
  server-side merged estimates must come back bit/float-identical to a
  serial ``StreamEngine`` run over the same stream before the row is
  recorded (``verified: true``);
* ``fault_recovery`` -- the single-client process feed re-run with one
  shard worker SIGKILLed halfway through the stream: the supervisor
  respawns it and replays its journal while the client keeps streaming,
  and the row records the throughput cost against the fault-free run;
* ``failover_migration`` -- a three-server coordinated fleet with one
  whole server process SIGKILLed mid-feed: the coordinator's
  :class:`~repro.service.FleetProber` detects the outage and migrates
  the dead server's shards to a survivor (cached snapshot + journal
  replay) while the feed keeps streaming, and the row records the
  crash-to-migration recovery time.

Every row's exactness check compares the full wire path -- client frame
encode, server decode, partition/scatter into the fleet, snapshot
fan-in, estimate packing -- against the local single-engine truth, so
the recorded numbers certify correctness, not just speed.

Usage::

    PYTHONPATH=src python benchmarks/record_service_baseline.py
        [--quick] [--clients N] [--require-target]

``--quick`` shrinks the stream (CI-sized); ``--require-target`` turns a
missed 1M-updates/sec target into a hard failure (the CI service-smoke
job passes it).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.engine import StreamEngine
from repro.heavyhitters.count_min import CountMinSketch
from repro.service import SketchClient, SketchServer
from repro.workloads.frequency import uniform_arrays

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The acceptance bar: aggregate swarm throughput on localhost.
TARGET_UPS = 1_000_000

#: Frame size for the feed path.  Large frames amortize the per-message
#: codec + syscall cost; 64k updates/frame is ~1 MiB on the wire.
FEED_CHUNK = 1 << 16


def _chunks(items: np.ndarray, deltas: np.ndarray, step: int):
    for i in range(0, len(items), step):
        yield items[i : i + step], deltas[i : i + step]


def _verify(client: SketchClient, reference, probe: np.ndarray) -> None:
    """The wire answer must be byte-identical to the local truth."""
    estimates = client.estimate(probe)
    expected = reference.estimate_batch(probe)
    if estimates.tobytes() != expected.tobytes():
        raise AssertionError("service estimates diverged from serial engine")
    if client.snapshot() != reference.snapshot():
        raise AssertionError("service snapshot diverged from serial engine")


def measure_single_client(
    factory, backend: str, num_shards: int, items, deltas, reference, probe
) -> dict:
    """One client, one fleet: the pipelined feed_chunks path end to end."""
    server = SketchServer(factory, num_shards=num_shards, backend=backend)
    with server.run_in_thread() as srv:
        with SketchClient.connect("127.0.0.1", srv.port) as client:
            start = time.perf_counter()
            ack = client.feed_chunks(_chunks(items, deltas, FEED_CHUNK))
            seconds = time.perf_counter() - start
            assert ack["position"] == len(items)
            _verify(client, reference, probe)
    return {
        "mode": "single_client",
        "backend": backend,
        "shards": num_shards,
        "updates": len(items),
        "seconds": round(seconds, 4),
        "ups": round(len(items) / seconds),
        "verified": True,
    }


def measure_swarm(
    factory, num_clients: int, num_shards: int, items, deltas, reference, probe
) -> dict:
    """``num_clients`` concurrent clients vs one process-backend fleet.

    Each client owns the strided slice ``k, k+N, k+2N, ...`` of the
    chunk sequence; commutative update rules make the merged state
    independent of how the server interleaves them, which the post-run
    exactness check certifies.
    """
    server = SketchServer(factory, num_shards=num_shards, backend="process")
    failures: list[BaseException] = []
    with server.run_in_thread() as srv:

        def feed_slice(offset: int) -> None:
            try:
                with SketchClient.connect("127.0.0.1", srv.port) as client:
                    client.feed_chunks(
                        (
                            items[i : i + FEED_CHUNK],
                            deltas[i : i + FEED_CHUNK],
                        )
                        for i in range(
                            offset * FEED_CHUNK,
                            len(items),
                            num_clients * FEED_CHUNK,
                        )
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=feed_slice, args=(k,), name=f"client-{k}")
            for k in range(num_clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        if failures:
            raise failures[0]
        with SketchClient.connect("127.0.0.1", srv.port) as client:
            position = client.ping()["position"]
            assert position == len(items), (position, len(items))
            _verify(client, reference, probe)
            stats = client.stats()
    ups = len(items) / seconds
    return {
        "mode": "client_swarm",
        "backend": "process",
        "clients": num_clients,
        "shards": num_shards,
        "updates": len(items),
        "seconds": round(seconds, 4),
        "ups": round(ups),
        "target_ups": TARGET_UPS,
        "target_met": ups >= TARGET_UPS,
        "server_frames": stats["frames"],
        "verified": True,
    }


def measure_fault_recovery(
    factory, num_shards: int, items, deltas, reference, probe, fault_free: dict
) -> dict:
    """One client vs a supervised process fleet with a SIGKILL mid-stream.

    Halfway through the feed a shard worker is killed outright; the
    supervisor respawns it and replays its journal while the client keeps
    streaming.  The row records the throughput cost of that recovery
    against the fault-free ``single_client`` process row -- and, like
    every other row, it only lands after the merged wire-path state
    checks out byte-identical to the serial engine, so "recovered" means
    *exactly* recovered, not approximately.
    """
    from repro.testing.faults import kill_worker

    server = SketchServer(
        factory,
        num_shards=num_shards,
        backend="process",
        snapshot_every=8,
    )
    chunk_starts = list(range(0, len(items), FEED_CHUNK))
    kill_at = max(1, len(chunk_starts) // 2)

    def chunks():
        for index, i in enumerate(chunk_starts):
            if index == kill_at:
                kill_worker(server, kill_at % num_shards)
            yield items[i : i + FEED_CHUNK], deltas[i : i + FEED_CHUNK]

    with server.run_in_thread() as srv:
        with SketchClient.connect("127.0.0.1", srv.port) as client:
            start = time.perf_counter()
            ack = client.feed_chunks(chunks())
            seconds = time.perf_counter() - start
            assert ack["position"] == len(items)
            _verify(client, reference, probe)
        health = server.fleet.health()
    if health["restarts"] < 1:
        raise AssertionError("fault_recovery row ran without a worker restart")
    if not health["ok"]:
        raise AssertionError("fleet unhealthy after recovery")
    ups = len(items) / seconds
    return {
        "mode": "fault_recovery",
        "backend": "process",
        "shards": num_shards,
        "updates": len(items),
        "worker_kills": health["restarts"],
        "seconds": round(seconds, 4),
        "ups": round(ups),
        "fault_free_ups": fault_free["ups"],
        "recovery_cost_pct": round(100.0 * (1.0 - ups / fault_free["ups"]), 2),
        "verified": True,
    }


def measure_failover_migration(factory, items, deltas, probe) -> dict:
    """Kill one of three coordinated servers mid-feed; self-heal; verify.

    A three-server fleet (one process per server, coordinator-routed
    partitions) ingests the stream while a :class:`FleetProber` runs on
    the coordinator's loop.  Halfway through, one server is SIGKILLed --
    a full-process ``server_crash``, not a worker kill -- and nothing
    intervenes manually: the prober detects the outage, declares the
    server down, and migrates its shards (cached snapshot + journal
    replay) to a survivor while the feed keeps streaming.  The row
    records wall-clock throughput, the crash-to-migration recovery time,
    and lands only after the exact (non-degraded) fan-in comes back
    byte-identical to the serial engine.
    """
    import asyncio

    from repro.service import RetryPolicy, SketchCoordinator
    from repro.testing.faults import ServerProcess

    reference = factory()
    StreamEngine(chunk_size=FEED_CHUNK).drive_arrays([reference], items, deltas)
    victim = 1
    chunk_starts = list(range(0, len(items), FEED_CHUNK))
    kill_at = max(1, len(chunk_starts) // 2)
    timings: dict[str, float] = {}

    async def scenario(servers) -> float:
        coordinator = SketchCoordinator(
            factory, [("127.0.0.1", server.port) for server in servers]
        )
        await coordinator.connect(
            retry=RetryPolicy(
                max_attempts=12,
                base_delay=0.05,
                multiplier=2.0,
                max_delay=0.3,
                deadline=60.0,
                op_timeout=5.0,
            )
        )
        coordinator.start_prober(
            policy=RetryPolicy(
                max_attempts=3,
                base_delay=0.05,
                multiplier=2.0,
                max_delay=0.2,
                deadline=1.0,
                op_timeout=0.5,
            ),
            recover_after=2,
        )

        async def watch_recovery() -> None:
            while coordinator.migrations == 0:
                await asyncio.sleep(0.005)
            timings["recovered"] = time.perf_counter()

        watcher = asyncio.ensure_future(watch_recovery())
        start = time.perf_counter()
        for index, i in enumerate(chunk_starts):
            if index == kill_at:
                servers[victim].crash()
                timings["crashed"] = time.perf_counter()
            await coordinator.feed(
                items[i : i + FEED_CHUNK], deltas[i : i + FEED_CHUNK]
            )
        seconds = time.perf_counter() - start
        await watcher
        assert coordinator.position == len(items)
        merged = await coordinator.merged(allow_degraded=False)
        if merged.estimate_batch(probe).tobytes() != reference.estimate_batch(
            probe
        ).tobytes():
            raise AssertionError("post-failover estimates diverged")
        if merged.snapshot() != reference.snapshot():
            raise AssertionError("post-failover snapshot diverged")
        migrations = coordinator.migrations
        await coordinator.close()
        if migrations < 1:
            raise AssertionError("failover row ran without a shard migration")
        return seconds

    # Fork the fleet before any event loop exists in this process.
    servers = [ServerProcess(factory) for _ in range(3)]
    for server in servers:
        server.start()
    try:
        seconds = asyncio.run(scenario(servers))
    finally:
        for server in servers:
            server.stop()
    return {
        "mode": "failover_migration",
        "backend": "coordinator",
        "servers": 3,
        "updates": len(items),
        "seconds": round(seconds, 4),
        "ups": round(len(items) / seconds),
        "recover_seconds": round(timings["recovered"] - timings["crashed"], 4),
        "verified": True,
    }


def main() -> None:
    quick = "--quick" in sys.argv
    num_clients = 4
    if "--clients" in sys.argv:
        num_clients = int(sys.argv[sys.argv.index("--clients") + 1])
    n = 1_000_000
    m = 1_000_000 if quick else 4_000_000
    items, deltas = uniform_arrays(n, m, seed=20260807)
    probe = np.arange(4096, dtype=np.int64)

    def factory():
        return CountMinSketch(n, width=64, depth=4, seed=1)

    # The local truth every wire answer is checked against.
    reference = factory()
    start = time.perf_counter()
    StreamEngine(chunk_size=FEED_CHUNK).drive_arrays([reference], items, deltas)
    serial_seconds = time.perf_counter() - start

    results = [
        measure_single_client(
            factory, "serial", 1, items, deltas, reference, probe
        ),
        measure_single_client(
            factory, "process", 2, items, deltas, reference, probe
        ),
        measure_swarm(factory, num_clients, 2, items, deltas, reference, probe),
    ]
    swarm = results[-1]
    results.append(
        measure_fault_recovery(
            factory, 2, items, deltas, reference, probe, results[1]
        )
    )
    # The failover row routes through the coordinator (python-level
    # partition split per chunk), so it runs a capped slice of the
    # stream -- the interesting number is recover_seconds, not ups.
    failover_m = min(m, 1_000_000)
    results.append(
        measure_failover_migration(
            factory, items[:failover_m], deltas[:failover_m], probe
        )
    )

    payload = {
        "benchmark": (
            "network service path (TCP localhost, merged state verified "
            "bit-identical to a serial engine run)"
        ),
        "universe_size": n,
        "stream_length": m,
        "feed_chunk": FEED_CHUNK,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "serial_engine_seconds": round(serial_seconds, 4),
        "serial_engine_ups": round(m / serial_seconds),
        "note": (
            "every row re-checks the full wire path (frame encode/decode, "
            "partition/scatter, snapshot fan-in, estimate packing) against "
            "the local single-engine truth before its timing is recorded; "
            "the client_swarm row is the acceptance row -- concurrent "
            "clients against a process-backend fleet must clear target_ups "
            "aggregate; the fault_recovery row re-runs the single-client "
            "process feed with a worker SIGKILLed mid-stream (supervised "
            "respawn + journal replay) and records the throughput cost vs "
            "the fault-free run, digest equality still enforced; the "
            "failover_migration row SIGKILLs one of three coordinated "
            "server processes mid-feed and lets the fleet prober migrate "
            "its shards to a survivor with no manual intervention, "
            "recording crash-to-migration recovery time with the same "
            "byte-identical certificate"
        ),
        "results": results,
    }

    out = REPO_ROOT / "BENCH_batch.json"
    existing = json.loads(out.read_text()) if out.exists() else {}
    existing["service_path"] = payload
    out.write_text(json.dumps(existing, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(
        f"swarm: {swarm['clients']} clients -> {swarm['ups']:,} updates/sec "
        f"(target {TARGET_UPS:,}, met={swarm['target_met']}) -> {out}"
    )
    if "--require-target" in sys.argv and not swarm["target_met"]:
        print(
            f"--require-target: swarm sustained {swarm['ups']:,} updates/sec, "
            f"below the {TARGET_UPS:,} bar",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
