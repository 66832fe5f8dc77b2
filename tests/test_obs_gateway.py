"""The observability gateway: HTTP endpoints, server attachment, live load.

Three tiers:

* standalone gateway semantics over injected providers (status codes,
  content types, error mapping, HEAD, the request counter);
* a gateway attached to a :class:`SketchServer` (providers ride the
  engine thread, so scrapes serialize with feeds);
* the live-load scrape: a second thread hammers ``/metrics`` and
  ``/alerts`` while a four-client swarm feeds a process-backend fleet,
  and the final sketch state must still be byte-identical to a serial
  run -- scraping is observation, never interference.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.engine import StreamEngine
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import (
    AlertEngine,
    MetricsRegistry,
    ObservabilityGateway,
    ShardSkewMonitor,
    ThresholdRule,
    get_registry,
    get_tracer,
)
from repro.obs.expo import EXPOSITION_CONTENT_TYPE
from repro.obs.gateway import GATEWAY_REQUESTS_METRIC
from repro.obs.monitors import SHARD_SKEW_METRIC, SHARD_UPDATES_METRIC
from repro.service import SketchClient, SketchServer

UNIVERSE = 1 << 14
STREAM_LENGTH = 20_000
CHUNK = 4 * 1024
PROBE = np.arange(256, dtype=np.int64)


@pytest.fixture(autouse=True)
def _force_obs_on():
    registry = obs.get_registry()
    tracer = obs.get_tracer()
    prev = (registry.enabled, tracer.enabled)
    registry.enabled = True
    tracer.enabled = True
    obs.reset()
    yield
    obs.reset()
    registry.enabled, tracer.enabled = prev


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=512, seed=7)


def stream(seed=0, length=STREAM_LENGTH):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, UNIVERSE, size=length, dtype=np.int64)
    deltas = rng.integers(-2, 5, size=length, dtype=np.int64)
    return items, deltas


def serial_reference(factory, items, deltas):
    sketch = factory()
    StreamEngine(chunk_size=CHUNK).drive_arrays([sketch], items, deltas)
    return sketch


def http_get(port, path, method="GET", timeout=10.0):
    """One scrape: returns (status, headers dict, body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        connection.close()


class TestStandaloneGateway:
    def test_default_metrics_endpoint_serves_the_process_registry(self):
        get_registry().counter("repro_gw_probe_total", "probe").add(
            3, kind="x"
        )
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            status, headers, body = http_get(gw.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
        assert b'repro_gw_probe_total{kind="x"} 3' in body

    def test_custom_sync_and_async_metrics_providers(self):
        sync_gateway = ObservabilityGateway(
            metrics_provider=lambda: "sync_metric 1\n"
        )
        with sync_gateway.run_in_thread() as gw:
            assert http_get(gw.port, "/metrics")[2] == b"sync_metric 1\n"

        async def render():
            return "async_metric 2\n"

        async_gateway = ObservabilityGateway(metrics_provider=render)
        with async_gateway.run_in_thread() as gw:
            assert http_get(gw.port, "/metrics")[2] == b"async_metric 2\n"

    def test_health_and_ready_defaults_are_200(self):
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            status, _, body = http_get(gw.port, "/healthz")
            assert status == 200 and json.loads(body) == {"status": "ok"}
            status, _, body = http_get(gw.port, "/readyz")
            assert status == 200 and json.loads(body) == {"status": "ready"}

    def test_not_ready_and_raising_probes_map_to_503(self):
        def unready():
            return False, {"status": "draining"}

        def exploding():
            raise RuntimeError("pool is gone")

        gateway = ObservabilityGateway(
            ready_provider=unready, health_provider=exploding
        )
        with gateway.run_in_thread() as gw:
            status, _, body = http_get(gw.port, "/readyz")
            assert status == 503
            assert json.loads(body) == {"status": "draining"}
            status, _, body = http_get(gw.port, "/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "error"
            assert "pool is gone" in payload["error"]

    def test_metrics_provider_failure_is_a_500(self):
        def broken():
            raise ValueError("no snapshot for you")

        gateway = ObservabilityGateway(metrics_provider=broken)
        with gateway.run_in_thread() as gw:
            status, _, body = http_get(gw.port, "/metrics")
        assert status == 500
        assert "no snapshot for you" in json.loads(body)["error"]

    def test_spans_endpoint_drains_the_tracer_ring(self):
        tracer = get_tracer()
        with tracer.span("scrape-me", phase="test"):
            pass
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            status, headers, body = http_get(gw.port, "/spans")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert any(span["name"] == "scrape-me" for span in spans)
        assert payload["dropped"] == 0

    def test_alert_engine_evaluates_once_per_scrape(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("temp", "t").set(99.0)
        engine = AlertEngine(
            [ThresholdRule("hot", "temp", 10.0)], registry=registry
        )
        gateway = ObservabilityGateway(alert_engine=engine)
        with gateway.run_in_thread() as gw:
            status, _, body = http_get(gw.port, "/alerts")
            assert status == 200
            payload = json.loads(body)
            assert payload["firing"] == 1
            assert payload["alerts"][0]["rule"] == "hot"
            registry.gauge("temp", "t").set(1.0)
            _, _, body = http_get(gw.port, "/alerts")
            assert json.loads(body)["alerts"][0]["state"] == "resolved"

    def test_alert_engine_and_alerts_provider_are_exclusive(self):
        engine = AlertEngine([], registry=MetricsRegistry(enabled=True))
        with pytest.raises(ValueError):
            ObservabilityGateway(
                alert_engine=engine, alerts_provider=lambda: {}
            )

    def test_unknown_path_404_and_non_get_405(self):
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            assert http_get(gw.port, "/nope")[0] == 404
            assert http_get(gw.port, "/metrics", method="POST")[0] == 405
            assert http_get(gw.port, "/metrics", method="DELETE")[0] == 405

    def test_head_sends_headers_but_no_body(self):
        gateway = ObservabilityGateway(metrics_provider=lambda: "m 1\n")
        with gateway.run_in_thread() as gw:
            status, headers, body = http_get(
                gw.port, "/metrics", method="HEAD"
            )
        assert status == 200
        assert headers["Content-Length"] == "4"
        assert body == b""

    def test_requests_are_counted_by_path(self):
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            http_get(gw.port, "/metrics")
            http_get(gw.port, "/metrics")
            http_get(gw.port, "/healthz")
            http_get(gw.port, "/bogus")
        values = get_registry().snapshot()["counters"][
            GATEWAY_REQUESTS_METRIC
        ]["values"]
        assert values['path="/metrics"'] == 2
        assert values['path="/healthz"'] == 1
        assert values['path="other"'] == 1

    def test_double_start_rejected_and_stop_idempotent(self):
        gateway = ObservabilityGateway()
        with gateway.run_in_thread() as gw:
            import asyncio

            with pytest.raises(RuntimeError):
                asyncio.run(gw.start())

    def test_stop_with_an_idle_client_connected(self):
        """From Python 3.12.1 ``wait_closed()`` waits for every open
        connection, so ``stop()`` reaps the handler holding an idle
        client's connection (for its 10 s read timeout) first."""
        hosted = ObservabilityGateway().run_in_thread()
        before = set(threading.enumerate())
        gw = hosted.__enter__()
        (loop_thread,) = set(threading.enumerate()) - before
        with socket.create_connection(("127.0.0.1", gw.port)) as idle:
            idle.sendall(b"GET /metrics")  # no newline: the read waits
            time.sleep(0.1)
            started = time.monotonic()
            hosted.__exit__(None, None, None)
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert not loop_thread.is_alive()


class TestServerAttachedGateway:
    def test_no_gateway_by_default(self):
        server = SketchServer(count_min_factory)
        with server.run_in_thread() as srv:
            assert srv.gateway is None

    def test_endpoints_reflect_the_engine(self):
        items, deltas = stream(5, 8_192)
        server = SketchServer(
            count_min_factory, num_shards=2, gateway_port=0
        )
        with server.run_in_thread() as srv:
            assert srv.gateway.port
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items, deltas)

            status, headers, body = http_get(srv.gateway.port, "/metrics")
            assert status == 200
            assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
            text = body.decode("utf-8")
            shard_counts = [
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(SHARD_UPDATES_METRIC + "{")
            ]
            assert sum(shard_counts) == len(items)

            status, _, body = http_get(srv.gateway.port, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["position"] == len(items)

            status, _, body = http_get(srv.gateway.port, "/readyz")
            assert status == 200
            ready = json.loads(body)
            assert ready["status"] == "ready"
            assert ready["ok"] is True
            assert ready["num_shards"] == 2

            # No engine attached -> uniform empty alert payload.
            status, _, body = http_get(srv.gateway.port, "/alerts")
            assert status == 200
            payload = json.loads(body)
            assert payload["alerts"] == [] and payload["firing"] == 0
            assert payload["server"] == srv.label

    def test_alert_engine_runs_on_the_merged_snapshot(self):
        engine = AlertEngine(
            [
                ThresholdRule(
                    "skew", SHARD_SKEW_METRIC, 1.5, severity="critical"
                )
            ],
            monitors=[ShardSkewMonitor(1.5, min_window=64, num_shards=2)],
        )
        server = SketchServer(
            count_min_factory,
            num_shards=2,
            gateway_port=0,
            alert_engine=engine,
        )
        with server.run_in_thread() as srv:
            partitioner = srv.fleet.partitioner
            all_items = np.arange(UNIVERSE, dtype=np.int64)
            shard0 = all_items[partitioner.assign_array(all_items) == 0]
            skewed = np.random.default_rng(1).choice(shard0, 4_096)
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(
                    skewed.astype(np.int64),
                    np.ones(len(skewed), dtype=np.int64),
                )
                status, _, body = http_get(srv.gateway.port, "/alerts")
                assert status == 200
                payload = json.loads(body)
                assert payload["server"] == srv.label
                (state,) = payload["alerts"]
                assert state["rule"] == "skew"
                assert state["state"] == "firing"
                assert state["value"] == pytest.approx(2.0)
                # The same evaluation is visible through the wire op.
                wire = client.alerts()
                assert wire["alerts"][0]["state"] == "firing"
                assert wire["server"] == srv.label


class TestGatewayLiveLoad:
    def test_scraping_under_swarm_load_never_perturbs_state(self):
        """The acceptance run: scrape a process fleet mid-ingest.

        Four client threads interleave one stream into a process-backend
        server with an attached gateway while a scraper thread loops on
        ``/metrics`` + ``/alerts``.  Scrapes serialize with feeds on the
        engine thread, so the final state must be byte-identical to a
        serial engine fed the concatenation, and the last scrape must
        account for every update.
        """
        items, deltas = stream(2, 40_000)
        reference = serial_reference(count_min_factory, items, deltas)
        engine = AlertEngine(
            [ThresholdRule("skew", SHARD_SKEW_METRIC, 4.0)],
            monitors=[ShardSkewMonitor(4.0, min_window=64, num_shards=2)],
        )
        server = SketchServer(
            count_min_factory,
            num_shards=2,
            backend="process",
            queue_depth=4,
            gateway_port=0,
            alert_engine=engine,
        )
        errors = []
        scrapes = {"metrics": 0, "alerts": 0}
        done = threading.Event()
        with server.run_in_thread() as srv:
            gateway_port = srv.gateway.port

            def scrape_loop():
                try:
                    while not done.is_set():
                        status, _, body = http_get(gateway_port, "/metrics")
                        assert status == 200
                        if SHARD_UPDATES_METRIC in body.decode("utf-8"):
                            scrapes["metrics"] += 1
                        status, _, body = http_get(gateway_port, "/alerts")
                        assert status == 200
                        json.loads(body)
                        scrapes["alerts"] += 1
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            def feed_slice(start):
                try:
                    with SketchClient.connect("127.0.0.1", srv.port) as c:
                        c.feed_chunks(
                            (items[i : i + 1024], deltas[i : i + 1024])
                            for i in range(start, len(items), 4 * 1024)
                        )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            scraper = threading.Thread(target=scrape_loop)
            feeders = [
                threading.Thread(target=feed_slice, args=(k * 1024,))
                for k in range(4)
            ]
            scraper.start()
            for thread in feeders:
                thread.start()
            for thread in feeders:
                thread.join()
            done.set()
            scraper.join()
            assert not errors
            assert scrapes["metrics"] >= 1 and scrapes["alerts"] >= 1

            # The final scrape accounts for every update...
            _, _, body = http_get(gateway_port, "/metrics")
            text = body.decode("utf-8")
            shard_counts = [
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith(SHARD_UPDATES_METRIC + "{")
            ]
            assert sum(shard_counts) == len(items)

            # ...and the sketch state is byte-identical to the serial run.
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                assert client.ping()["position"] == len(items)
                assert np.array_equal(
                    client.estimate(PROBE), reference.estimate_batch(PROBE)
                )
                assert client.snapshot() == reference.snapshot()
