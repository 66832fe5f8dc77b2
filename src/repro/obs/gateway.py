"""Observability gateway: the HTTP face of the telemetry substrate.

Everything in ``repro.obs`` so far is in-process: registries snapshot,
tracers ring-buffer, monitors alarm, alert engines hold state.  The
gateway puts that state on a real port for the tools that actually run
fleets -- Prometheus scrapers, Kubernetes-style health probes, trace
collectors -- using nothing but the asyncio stdlib (no HTTP framework;
the protocol subset needed is tiny and the dependency budget is zero).

Endpoints
---------
``GET /metrics``
    Prometheus text exposition (``text/plain; version=0.0.4``).  The
    default provider renders the process registry; a server-attached or
    coordinator-backed gateway plugs in a fleet-merged provider.
``GET /healthz``
    Liveness JSON -- 200 while the process serves, 503 when the
    provider reports (or raises) otherwise.
``GET /readyz``
    Readiness JSON -- 200 only when the engine/pool behind the gateway
    is actually able to absorb work.
``GET /spans``
    OTLP/JSON export of the tracer ring (``resourceSpans`` shape, plus
    the ring's ``dropped`` count).
``GET /alerts``
    Current alert states.  With an attached
    :class:`~repro.obs.alerts.AlertEngine` each request runs one
    evaluation pass, so scrape cadence *is* evaluation cadence --
    exactly how Prometheus-style rule evaluation binds to scraping.

Providers are zero-argument callables and may be sync or async: the
server-attached gateway's providers are coroutines closing over the
sketch server's engine thread, so scrapes serialize with feeds (a
process-backend fleet's metric pipes are single-reader).  Responses are
always ``Connection: close`` -- scrapers open one connection per scrape
anyway, and it keeps the server loop-shutdown story trivial.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import threading
from typing import Callable, Optional

from repro.obs.expo import EXPOSITION_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import get_registry
from repro.obs.trace import export_otlp, get_tracer

__all__ = ["ObservabilityGateway"]

#: Counter of gateway HTTP requests, labelled by (known) path.
GATEWAY_REQUESTS_METRIC = "repro_gateway_requests_total"

_KNOWN_PATHS = frozenset(
    {"/metrics", "/healthz", "/readyz", "/spans", "/alerts"}
)

_REASONS = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JSON_TYPE = "application/json"


async def _call_provider(provider):
    """Invoke a sync-or-async zero-argument provider."""
    result = provider()
    if inspect.isawaitable(result):
        result = await result
    return result


async def close_listener(server, handlers) -> None:
    """Stop accepting on ``server`` and end every connection handler.

    The listener close both the gateway and the sketch server use.  The
    handlers are cancelled and reaped before ``wait_closed()``: from
    Python 3.12.1 that waits until every connection is gone, and only a
    handler closes its connection (an idle client's after its whole read
    timeout).
    """
    if server is not None:
        server.close()
    handlers = list(handlers)
    for task in handlers:
        task.cancel()
    await asyncio.gather(*handlers, return_exceptions=True)
    if server is not None:
        await server.wait_closed()


@contextlib.contextmanager
def host_in_thread(service, name: str):
    """Run ``service`` on an event loop in a daemon thread named ``name``.

    How sync callers host the gateway and the sketch server.  Yields
    ``service`` once its ``start()`` returned.  On exit, and also when
    ``start`` fails (so a failed bind leaves nothing running), its
    ``stop()`` runs inside the loop before the loop stops and the thread
    is joined.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name=name, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(service.start(), loop).result()
        yield service
    finally:
        try:
            asyncio.run_coroutine_threadsafe(service.stop(), loop).result()
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()


class ObservabilityGateway:
    """Minimal asyncio HTTP/1.1 server over pluggable telemetry providers.

    Parameters
    ----------
    host / port:
        Listen address; port 0 picks a free port (read ``gateway.port``
        after :meth:`start`).
    metrics_provider:
        Returns the Prometheus exposition text.  Defaults to rendering
        the process registry's snapshot.
    health_provider / ready_provider:
        Return ``(ok, payload_dict)``.  Defaults: always-live ``{"status":
        "ok"}`` and always-ready ``{"status": "ready"}``.  A provider
        that raises maps to a 503 carrying the error string -- probe
        failures must never take the gateway down with them.
    spans_provider:
        Returns the ``/spans`` JSON dict.  Defaults to
        :func:`repro.obs.trace.export_otlp` over the process tracer.
    alert_engine:
        Optional :class:`~repro.obs.alerts.AlertEngine`; each ``/alerts``
        request evaluates it once and serves its payload.  Mutually
        exclusive with ``alerts_provider``.
    alerts_provider:
        Returns the ``/alerts`` JSON dict directly (the server-attached
        gateway uses this to serve engine-thread-evaluated states).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_provider: Optional[Callable] = None,
        health_provider: Optional[Callable] = None,
        ready_provider: Optional[Callable] = None,
        spans_provider: Optional[Callable] = None,
        alert_engine=None,
        alerts_provider: Optional[Callable] = None,
    ) -> None:
        if alert_engine is not None and alerts_provider is not None:
            raise ValueError(
                "pass alert_engine or alerts_provider, not both"
            )
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._metrics = metrics_provider or (
            lambda: render_prometheus(get_registry().snapshot())
        )
        self._health = health_provider or (
            lambda: (True, {"status": "ok"})
        )
        self._ready = ready_provider or (
            lambda: (True, {"status": "ready"})
        )
        self._spans = spans_provider or (lambda: export_otlp(get_tracer()))
        if alert_engine is not None:
            def _evaluate():
                alert_engine.evaluate()
                return alert_engine.payload()

            self._alerts = _evaluate
        else:
            self._alerts = alerts_provider or (
                lambda: {"alerts": [], "firing": 0, "evaluated_at": None}
            )
        self._requests = get_registry().counter(
            GATEWAY_REQUESTS_METRIC,
            "HTTP requests served by the observability gateway",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: set[asyncio.Task] = set()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ObservabilityGateway":
        """Bind and start serving; resolves the port."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting, end every open connection, close the socket."""
        if self._closed:
            return
        self._closed = True
        await close_listener(self._server, self._handlers)

    def run_in_thread(self):
        """Host the gateway on a daemon-thread event loop (sync callers).

        The standalone spelling: a driver process that wants scrapes
        without running a sketch service.  Server-attached gateways are
        started by :class:`~repro.service.server.SketchServer` on its
        own loop instead (their providers must share its engine thread).
        """
        return host_in_thread(self, "obs-gateway")

    # -- HTTP ---------------------------------------------------------------

    async def _respond(self, path: str) -> tuple[int, str, bytes]:
        """Resolve one GET/HEAD into (status, content type, body)."""
        if path == "/metrics":
            text = await _call_provider(self._metrics)
            return 200, EXPOSITION_CONTENT_TYPE, text.encode("utf-8")
        if path in ("/healthz", "/readyz"):
            provider = self._health if path == "/healthz" else self._ready
            try:
                ok, payload = await _call_provider(provider)
            except Exception as exc:
                ok, payload = False, {"status": "error", "error": str(exc)}
            body = json.dumps(payload).encode("utf-8")
            return (200 if ok else 503), _JSON_TYPE, body
        if path == "/spans":
            payload = await _call_provider(self._spans)
            return 200, _JSON_TYPE, json.dumps(payload).encode("utf-8")
        if path == "/alerts":
            payload = await _call_provider(self._alerts)
            return 200, _JSON_TYPE, json.dumps(payload).encode("utf-8")
        body = json.dumps({"error": f"no such endpoint {path}"})
        return 404, _JSON_TYPE, body.encode("utf-8")

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            if self._closed:
                return  # accepted while stop() ran
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=10.0
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            # Drain headers (ignored: every response is Connection: close
            # and no endpoint takes a body).
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            path = target.split("?", 1)[0] or "/"
            self._requests.add(
                1, path=path if path in _KNOWN_PATHS else "other"
            )
            if method not in ("GET", "HEAD"):
                status, content_type, body = (
                    405,
                    _JSON_TYPE,
                    json.dumps({"error": "GET/HEAD only"}).encode("utf-8"),
                )
            else:
                try:
                    status, content_type, body = await self._respond(path)
                except Exception as exc:
                    status, content_type, body = (
                        500,
                        _JSON_TYPE,
                        json.dumps({"error": str(exc)}).encode("utf-8"),
                    )
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(
                head.encode("latin-1") + (b"" if method == "HEAD" else body)
            )
            await writer.drain()
        except (
            asyncio.TimeoutError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
