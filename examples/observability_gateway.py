"""The observability gateway: scrape, probe, and page a sketch fleet.

The paper's core finding is that an adaptive adversary can learn sketch
randomness from the answers it gets back -- which makes *watching* a
deployed fleet part of the defense, not an afterthought.  This example
wires the full loop on real HTTP ports:

Part one runs a standalone `ObservabilityGateway` over the process
registry while an instrumented engine drives a stream: `/metrics` is a
live Prometheus target and `/spans` exports the tracer ring as
OTLP/JSON.

Part two attaches a gateway to a `SketchServer` (`gateway_port=0`) with
an `AlertEngine` whose one rule watches the `ShardSkewMonitor`-derived
peak-to-mean shard ratio.  A balanced stream leaves the alert inactive;
an adversarially aimed stream (every update routed to shard 0) walks it
through pending to firing; a balanced tail resolves it.  Every state is
read back through `/alerts` and the wire-level `alerts` op -- exactly
what a paging pipeline would scrape.

Run:  PYTHONPATH=src python examples/observability_gateway.py
"""

import json
import time
import urllib.request

import numpy as np

from repro import obs
from repro.api import (
    AlertEngine,
    ObservabilityGateway,
    ShardSkewMonitor,
    SketchClient,
    SketchServer,
    StreamEngine,
    ThresholdRule,
)
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs.monitors import SHARD_SKEW_METRIC
from repro.workloads.frequency import uniform_arrays

UNIVERSE = 1 << 16
CHUNK = 1 << 13


def factory():
    return CountMinSketch(UNIVERSE, width=256, depth=4, seed=1)


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read().decode("utf-8")


def main() -> None:
    obs.get_registry().enabled = True
    obs.get_tracer().enabled = True

    # -- part one: a standalone scrape target over the process registry --
    print("== standalone gateway: /metrics and /spans ==")
    items, deltas = uniform_arrays(UNIVERSE, 200_000, seed=42)
    with ObservabilityGateway().run_in_thread() as gw:
        StreamEngine(chunk_size=CHUNK).drive_arrays([factory()], items, deltas)
        exposition = scrape(gw.port, "/metrics")
        sketch_lines = [
            line
            for line in exposition.splitlines()
            if line.startswith("repro_sketch_updates_total")
        ]
        print(f"  /metrics: {len(exposition.splitlines())} lines, e.g.")
        for line in sketch_lines[:2]:
            print(f"    {line}")
        spans = json.loads(scrape(gw.port, "/spans"))
        scope = spans["resourceSpans"][0]["scopeSpans"][0]["spans"]
        print(
            f"  /spans: {len(scope)} OTLP spans retained, "
            f"{spans['dropped']} dropped by the ring"
        )

    # -- part two: a served fleet that pages on adversarial skew ---------
    print("== server-attached gateway: paging on shard skew ==")
    engine = AlertEngine(
        [
            ThresholdRule(
                "shard-skew",
                SHARD_SKEW_METRIC,
                1.5,
                for_seconds=0.5,
                severity="critical",
            )
        ],
        monitors=[ShardSkewMonitor(1.5, min_window=1024, num_shards=2)],
    )
    server = SketchServer(
        factory, num_shards=2, gateway_port=0, alert_engine=engine
    )
    rng = np.random.default_rng(7)
    with server.run_in_thread() as srv:
        port = srv.gateway.port
        partitioner = srv.fleet.partitioner
        universe = np.arange(UNIVERSE, dtype=np.int64)
        shard0 = universe[partitioner.assign_array(universe) == 0]

        def feed(client, pool):
            batch = rng.choice(pool, size=CHUNK).astype(np.int64)
            client.feed(batch, np.ones(len(batch), dtype=np.int64))

        def alert_state() -> dict:
            (state,) = json.loads(scrape(port, "/alerts"))["alerts"]
            return state

        with SketchClient.connect("127.0.0.1", srv.port) as client:
            feed(client, universe)
            state = alert_state()
            print(f"  balanced stream   -> {state['state']}")

            feed(client, shard0)  # the adversary aims at one shard
            state = alert_state()
            print(
                f"  skewed stream     -> {state['state']} "
                f"(ratio {state['value']:.2f}, holding {0.5}s)"
            )

            time.sleep(0.6)
            feed(client, shard0)
            state = alert_state()
            print(f"  still skewed      -> {state['state']} (paging!)")

            feed(client, universe)
            state = alert_state()
            print(f"  attack ends       -> {state['state']}")

            # The same states travel the binary protocol for coordinators.
            wire = client.alerts()
            print(
                f"  wire alerts op    -> {wire['alerts'][0]['state']} "
                f"from {wire['server']}"
            )
            ready = json.loads(scrape(port, "/readyz"))
            print(
                f"  /readyz           -> {ready['status']} "
                f"({ready['num_shards']} shards, backend {ready['backend']})"
            )


if __name__ == "__main__":
    main()
