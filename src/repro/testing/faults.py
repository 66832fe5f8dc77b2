"""Deterministic chaos injection for the fault-tolerance test suite.

Reproducibility is the whole point: a chaos run that cannot be replayed
is a flake generator, not a test.  Everything here derives from one
seeded :class:`FaultPlan` -- same seed, same parameters, same fault
schedule, byte for byte (``plan.digest()`` pins that in the tests) --
so a failing chaos run reproduces under the same seed and the passing
certificate means something.

Three layers:

:class:`FaultPlan`
    A seeded schedule of :class:`FaultEvent`\\ s: worker SIGKILLs at
    chunk boundaries and wire faults (connection resets, truncated
    frames, delayed frames, slow reads) at frame boundaries.
:class:`ChaosProxy`
    A frame-aware TCP proxy that sits between a client and a
    :class:`~repro.service.server.SketchServer` and applies the plan's
    wire faults at exactly the scheduled frame indices -- it parses the
    RSV1 framing on the client-to-server direction, so "truncate frame
    17" means frame 17, not "whatever bytes were in flight".
:func:`kill_worker` / :func:`inject_chunk_faults`
    SIGKILL a process-backend shard worker (resolving pids through the
    pool) and a chunk-source wrapper that fires the plan's chunk-boundary
    faults (worker kills, and full ``server_crash`` events for the
    self-healing suite) on schedule.
:class:`ServerProcess`
    A whole :class:`~repro.service.server.SketchServer` hosted in a
    SIGKILL-able child process -- the ``server_crash`` fault's target.
    Unlike a worker kill (one shard dies, the server supervises the
    respawn), crashing a server process takes down its connections,
    its engine, and its state in one blow; recovery is the
    coordinator's job (migration or readmission), which is exactly
    what the self-healing tests certify.

The certification tests drive a sequenced client through the proxy at a
fleet whose workers get killed mid-ingest, then assert the final merged
snapshot is byte-identical to a serial engine fed the same stream --
supervised respawn plus exactly-once replay leaves no trace in the
state.
"""

from __future__ import annotations

import hashlib
import inspect
import multiprocessing.connection
import os
import random
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.service.protocol import MAGIC

__all__ = [
    "CHUNK_FAULT_KINDS",
    "ChaosProxy",
    "FaultEvent",
    "FaultPlan",
    "ServerProcess",
    "WIRE_FAULT_KINDS",
    "inject_chunk_faults",
    "kill_worker",
]

_HEADER = struct.Struct(">4sI")

#: Wire-fault kinds the proxy knows how to inject.
WIRE_FAULT_KINDS = ("conn_reset", "frame_truncate", "frame_delay", "slow_read")

#: Chunk-boundary fault kinds (fired by :func:`inject_chunk_faults`).
CHUNK_FAULT_KINDS = ("worker_kill", "server_crash")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a chunk index for ``worker_kill`` / ``server_crash``
    events and a global client-to-server frame index for wire faults;
    ``target`` is the shard to kill (worker kills) or the server index
    to crash (server crashes); ``param`` is the fault's knob (delay
    seconds, slow-read duration).
    """

    at: int
    kind: str
    target: int = 0
    param: float = 0.0


class FaultPlan:
    """A seeded, fully deterministic fault schedule.

    Parameters
    ----------
    seed:
        Everything derives from this through one ``random.Random``.
    chunks:
        How many chunks the driven stream has; worker kills land on
        chunk boundaries in ``[1, chunks)``.
    frames:
        How many client-to-server frames the run is expected to carry;
        wire faults land on frame indices in ``[1, frames)``.  Replayed
        frames keep counting, so schedule faults well inside the
        fault-free frame count.
    worker_kills / wire_faults:
        How many of each to schedule.
    num_shards:
        Kill targets are drawn uniformly from this many shards.
    server_crashes / num_servers:
        Full-server SIGKILLs at chunk boundaries, targets drawn
        uniformly from ``num_servers`` servers.  Drawn *after* every
        other event so plans without server crashes keep their exact
        historical schedules (the pinned-digest tests rely on it).
    kinds:
        The wire-fault repertoire to draw from (defaults to all of
        :data:`WIRE_FAULT_KINDS`).
    delay:
        The ``param`` for delay/slow-read faults, seconds.
    """

    def __init__(
        self,
        seed: int,
        *,
        chunks: int,
        frames: int,
        worker_kills: int = 1,
        wire_faults: int = 3,
        num_shards: int = 2,
        kinds: Sequence[str] = WIRE_FAULT_KINDS,
        delay: float = 0.05,
        server_crashes: int = 0,
        num_servers: int = 1,
    ) -> None:
        for kind in kinds:
            if kind not in WIRE_FAULT_KINDS:
                raise ValueError(f"unknown wire-fault kind {kind!r}")
        if worker_kills and chunks < 2:
            raise ValueError("worker kills need a stream of at least 2 chunks")
        if wire_faults and frames < 2:
            raise ValueError("wire faults need a run of at least 2 frames")
        if server_crashes and chunks < 2:
            raise ValueError("server crashes need a stream of at least 2 chunks")
        self.seed = seed
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        if worker_kills:
            boundaries = rng.sample(
                range(1, chunks), min(worker_kills, chunks - 1)
            )
            for at in sorted(boundaries):
                events.append(
                    FaultEvent(
                        at=at,
                        kind="worker_kill",
                        target=rng.randrange(num_shards),
                    )
                )
        if wire_faults:
            positions = rng.sample(
                range(1, frames), min(wire_faults, frames - 1)
            )
            for at in sorted(positions):
                kind = kinds[rng.randrange(len(kinds))]
                events.append(
                    FaultEvent(
                        at=at,
                        kind=kind,
                        param=delay
                        if kind in ("frame_delay", "slow_read")
                        else 0.0,
                    )
                )
        # Server crashes draw last, behind a guard: a plan without them
        # consumes the exact RNG sequence it always did, so historical
        # schedules (and their pinned digests) are untouched.
        if server_crashes:
            boundaries = rng.sample(
                range(1, chunks), min(server_crashes, chunks - 1)
            )
            for at in sorted(boundaries):
                events.append(
                    FaultEvent(
                        at=at,
                        kind="server_crash",
                        target=rng.randrange(num_servers),
                    )
                )
        self.events: tuple[FaultEvent, ...] = tuple(events)

    def worker_kills(self) -> list[FaultEvent]:
        """The scheduled worker SIGKILLs, in chunk order."""
        return [e for e in self.events if e.kind == "worker_kill"]

    def server_crashes(self) -> list[FaultEvent]:
        """The scheduled full-server SIGKILLs, in chunk order."""
        return [e for e in self.events if e.kind == "server_crash"]

    def chunk_faults(self) -> list[FaultEvent]:
        """All chunk-boundary events (worker kills and server crashes),
        in chunk order."""
        return sorted(
            (e for e in self.events if e.kind in CHUNK_FAULT_KINDS),
            key=lambda e: e.at,
        )

    def wire_faults(self) -> dict[int, FaultEvent]:
        """The scheduled wire faults, keyed by global frame index."""
        return {
            e.at: e for e in self.events if e.kind in WIRE_FAULT_KINDS
        }

    def kinds(self) -> set[str]:
        """The distinct fault kinds this plan injects."""
        return {e.kind for e in self.events}

    def digest(self) -> str:
        """Schedule fingerprint -- same seed/parameters, same digest."""
        canon = ";".join(
            f"{e.at}:{e.kind}:{e.target}:{e.param:.6f}" for e in self.events
        )
        return hashlib.sha256(canon.encode()).hexdigest()


def _shutdown(sock: socket.socket) -> None:
    """Shut down both directions, waking any thread blocked on ``sock``.

    On Linux ``close()`` alone does not wake a thread blocked in
    ``recv()`` or ``accept()`` on the same socket; ``shutdown()`` does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected, or already shut down


def _abort(sock: socket.socket) -> None:
    """Kill the connection: a FIN now, an RST when it is closed.

    SO_LINGER 0 makes the eventual ``close()`` send an RST; the
    shutdown ends the peer's next read at once and wakes the relay
    threads blocked on this socket.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    _shutdown(sock)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return b"".join(chunks)  # short read = EOF mid-frame
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class ChaosProxy:
    """Frame-aware TCP chaos proxy for one sketch server.

    Clients connect to ``proxy.port`` instead of the server; the proxy
    forwards both directions, parsing RSV1 frames on the
    client-to-server direction and applying the plan's wire faults when
    the *global* frame counter (across all connections and reconnects,
    in arrival order) hits a scheduled index:

    ``conn_reset``
        The frame is dropped and both sides of the connection are
        aborted (a FIN, then an RST) -- the client's next read or write
        fails.
    ``frame_truncate``
        The header plus half the payload reach the server, then both
        sides are aborted -- the server sees a mid-frame EOF
        (``ProtocolError``) and drops the connection; the in-flight
        feed is lost and must be replayed.
    ``frame_delay``
        The whole frame is forwarded after ``param`` seconds.
    ``slow_read``
        The frame trickles through in small pieces over ``param``
        seconds (total), exercising per-op timeouts without killing
        the connection.

    Deterministic given a plan and a single client: faults fire on
    exact frame indices.  With concurrent clients the interleaving
    chooses *which* client absorbs a fault, but the fault schedule
    itself -- how many, which kinds, at which global frames -- is still
    the plan's.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[dict[int, FaultEvent]] = None,
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.faults = dict(faults or {})
        self.frames_seen = 0
        self.faults_applied: list[FaultEvent] = []
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        #: Open connections, ``(downstream, upstream)`` -> relay threads
        #: still running.  Sockets are shut down and closed only under
        #: ``_lock``, so no thread touches a socket another has closed.
        self._relays: dict[tuple[socket.socket, socket.socket], int] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        """Bind the listener and begin accepting; returns self, with
        ``port`` resolved (pass port=0 to let the OS pick one)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(32)
        self._listener = listener
        self.port = listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Shut the listener and every live relay down; joins the threads.

        The threads close the sockets on their way out (see
        :meth:`_relay`).
        """
        with self._lock:
            self._closed = True
            if self._listener is not None:
                _shutdown(self._listener)
            for pair in self._relays:
                for sock in pair:
                    _abort(sock)
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- pumping ------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        try:
            while True:
                try:
                    downstream, _ = listener.accept()
                except OSError:
                    return  # stop() shut the listener down
                try:
                    upstream = socket.create_connection(self.upstream, timeout=10)
                except OSError:
                    _abort(downstream)
                    downstream.close()
                    continue
                downstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                pair = (downstream, upstream)
                relays = (
                    threading.Thread(
                        target=self._relay,
                        args=(pair, self._pump_frames, downstream, upstream),
                        name="chaos-c2s",
                        daemon=True,
                    ),
                    threading.Thread(
                        target=self._relay,
                        args=(pair, self._pump_raw, upstream, downstream),
                        name="chaos-s2c",
                        daemon=True,
                    ),
                )
                with self._lock:
                    if self._closed:  # accepted while stop() ran
                        for sock in pair:
                            _abort(sock)
                            sock.close()
                        return
                    self._relays[pair] = len(relays)
                    for relay in relays:
                        relay.start()
                    self._threads.extend(relays)
        finally:
            with self._lock:
                listener.close()

    def _relay(
        self,
        pair: tuple[socket.socket, socket.socket],
        pump: Callable[[socket.socket, socket.socket], None],
        source: socket.socket,
        sink: socket.socket,
    ) -> None:
        """Run one direction of a connection; the last one out closes it.

        On exit both sockets are shut down, which wakes the other
        direction.  Only the second direction to finish closes them:
        closing a socket while another thread may still be inside a call
        on it can send that call to a recycled descriptor, where it
        blocks until its timeout (a relay stuck that way held up about
        one swarm-test ``stop()`` in ten for its 5 s join timeout).
        """
        try:
            pump(source, sink)
        except OSError:
            pass
        finally:
            with self._lock:
                for sock in pair:
                    _shutdown(sock)
                self._relays[pair] -= 1
                if not self._relays[pair]:
                    del self._relays[pair]
                    for sock in pair:
                        sock.close()

    def _next_fault(self) -> Optional[FaultEvent]:
        """Count one frame; pop and return its scheduled fault, if any."""
        with self._lock:
            self.frames_seen += 1
            fault = self.faults.pop(self.frames_seen, None)
            if fault is not None:
                self.faults_applied.append(fault)
            return fault

    def _pump_frames(
        self, downstream: socket.socket, upstream: socket.socket
    ) -> None:
        """Client-to-server direction, one RSV1 frame at a time."""
        while True:
            header = _recv_exact(downstream, _HEADER.size)
            if len(header) < _HEADER.size:
                break
            magic, length = _HEADER.unpack(header)
            if magic != MAGIC:
                # Not our framing: fall back to raw passthrough.
                upstream.sendall(header)
                self._pump_raw(downstream, upstream)
                return
            payload = _recv_exact(downstream, length)
            short = len(payload) < length
            fault = self._next_fault()
            if fault is None or short:
                upstream.sendall(header + payload)
                if short:
                    break
                continue
            if fault.kind == "conn_reset":
                _abort(downstream)
                _abort(upstream)
                return
            if fault.kind == "frame_truncate":
                upstream.sendall(header + payload[: length // 2])
                _abort(downstream)
                _abort(upstream)
                return
            if fault.kind == "frame_delay":
                time.sleep(fault.param)
                upstream.sendall(header + payload)
                continue
            if fault.kind == "slow_read":
                blob = header + payload
                pieces = 8
                step = max(1, len(blob) // pieces)
                pause = fault.param / pieces
                for start in range(0, len(blob), step):
                    upstream.sendall(blob[start : start + step])
                    time.sleep(pause)
                continue
            raise AssertionError(f"unhandled fault kind {fault.kind!r}")

    @staticmethod
    def _pump_raw(source: socket.socket, sink: socket.socket) -> None:
        """Server-to-client direction: unmodified byte passthrough."""
        while True:
            chunk = source.recv(1 << 16)
            if not chunk:
                return
            sink.sendall(chunk)


# -- worker kills ------------------------------------------------------------


def _has_pool_surface(target) -> bool:
    return inspect.getattr_static(target, "worker_pids", None) is not None


def _resolve_pool(target):
    """Accept a pool, a ShardedAlgorithm, or a SketchServer and find the
    process pool underneath.

    The descent must never invoke dynamic attribute machinery:
    ``ShardedAlgorithm.__getattr__`` resolves unknown names -- including
    a plain ``hasattr(..., "worker_pids")`` probe -- against a live
    ``merged()`` view, which flushes the pool over its pipes.  A chaos
    thread doing that concurrently with the engine thread's scatter
    pipeline steals acks and corrupts the very accounting the kill is
    meant to exercise, so every probe here goes through
    :func:`inspect.getattr_static`, which reads class and instance
    dictionaries without triggering ``__getattr__`` or descriptors.
    """
    for attribute in ("fleet", "_pool"):
        if _has_pool_surface(target):
            break
        inner = inspect.getattr_static(target, attribute, None)
        if inner is not None:
            target = inner
    if not _has_pool_surface(target):
        raise TypeError(
            f"{type(target).__name__} holds no process worker pool "
            "(worker kills need backend='process')"
        )
    return target


def kill_worker(target, shard: int, *, wait: float = 5.0) -> int:
    """SIGKILL the worker process owning ``shard``; returns its pid.

    Blocks (up to ``wait`` seconds) until the process is actually dead,
    so a test that kills at a chunk boundary knows the next scatter hits
    a corpse rather than racing the signal.
    """
    pool = _resolve_pool(target)
    # Capture the process before signalling: the engine thread may reap
    # the corpse and install a respawned worker in its slot at any time
    # after the kill.  Its sentinel turns readable when the child exits,
    # whichever thread reaps it.
    process = pool._processes[shard]
    pid = process.pid
    os.kill(pid, signal.SIGKILL)
    exited = multiprocessing.connection.wait([process.sentinel], timeout=wait)
    if not exited:  # pragma: no cover - SIGKILL cannot be ignored
        raise RuntimeError(f"worker {shard} (pid {pid}) survived SIGKILL")
    return pid


def inject_chunk_faults(
    source: Iterable,
    plan: FaultPlan,
    killer: Callable[[FaultEvent], None],
) -> Iterator:
    """Yield ``source``'s chunks, firing the plan's chunk faults on schedule.

    Fires the plan's worker kills and server crashes on the chunk
    boundary, where the engines synchronize: a fault ``at=k`` fires
    after chunk ``k-1`` is yielded and before chunk ``k``.  ``killer``
    receives each :class:`FaultEvent` and dispatches on ``event.kind``
    -- typically a worker kill goes to :func:`kill_worker` (``lambda e:
    kill_worker(server, e.target)`` when the plan has only kills) and a
    ``server_crash`` to :meth:`ServerProcess.crash` on
    ``servers[event.target]``.
    """
    faults: dict[int, list[FaultEvent]] = {}
    for event in plan.chunk_faults():
        faults.setdefault(event.at, []).append(event)
    for index, chunk in enumerate(source):
        for event in faults.pop(index, ()):
            if index > 0:
                killer(event)
        yield chunk


# -- whole-server crashes -----------------------------------------------------


def _server_process_main(factory, host, port, conn, kwargs):
    """Child entry point: host one SketchServer until killed."""
    import asyncio

    from repro.service.server import SketchServer

    async def main() -> None:
        server = SketchServer(factory, host=host, port=port, **kwargs)
        try:
            await server.start()
        except Exception as exc:  # report instead of dying silently
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ok", server.port))
        await asyncio.Event().wait()  # serve until SIGKILL/terminate

    asyncio.run(main())


class ServerProcess:
    """A :class:`SketchServer` in a SIGKILL-able child process.

    The ``server_crash`` fault's target: where :func:`kill_worker` takes
    out one shard worker under a still-supervising server,
    :meth:`crash` takes out the *whole server* -- engine, supervisor,
    connections, state -- with an uncatchable signal, exactly like a
    machine loss.  :meth:`restart` brings a fresh, *empty* server back
    up on the same port, which is the comeback the coordinator's
    readmission path expects.

    Uses the ``fork`` start method so test-local factories (closures)
    survive the trip; ``start()`` blocks until the child reports its
    bound port over a pipe.  Use as a context manager or pair
    ``start()`` with ``stop()``.
    """

    def __init__(
        self,
        factory,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        start_timeout: float = 30.0,
        **server_kwargs,
    ) -> None:
        self.factory = factory
        self.host = host
        self.port: Optional[int] = port if port else None
        self._requested_port = port
        self.start_timeout = start_timeout
        self.server_kwargs = dict(server_kwargs)
        self._process = None
        self.crashes = 0

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def start(self) -> "ServerProcess":
        """Fork the child and wait for it to report its bound port."""
        if self.alive:
            raise RuntimeError("server process already running")
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        port = self.port if self.port is not None else self._requested_port
        self._process = context.Process(
            target=_server_process_main,
            args=(self.factory, self.host, port, child_conn, self.server_kwargs),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            self.stop()
            raise RuntimeError("server process did not come up in time")
        status, value = parent_conn.recv()
        parent_conn.close()
        if status != "ok":
            self.stop()
            raise RuntimeError(f"server process failed to start: {value}")
        self.port = int(value)
        return self

    def crash(self) -> int:
        """SIGKILL the server process; blocks until it is reaped.

        Returns the dead pid.  The port stays recorded so
        :meth:`restart` can bring a fresh empty server back on the same
        address -- clients and the coordinator keep their routing.
        """
        if not self.alive:
            raise RuntimeError("server process is not running")
        pid = self._process.pid
        os.kill(pid, signal.SIGKILL)
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - SIGKILL is final
            raise RuntimeError(f"server process {pid} survived SIGKILL")
        self.crashes += 1
        return pid

    def restart(self) -> "ServerProcess":
        """Start a fresh (empty) server on the recorded port."""
        return self.start()

    def stop(self) -> None:
        """Terminate the child (escalating to SIGKILL); idempotent."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
