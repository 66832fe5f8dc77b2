"""The benchmark's three workloads against the real service stack.

Every workload is a closed loop driven from the main thread: each call
waits for its reply before the next is sent.  A *round* is a fixed mix
of writes and reads, repeated until the window's time is up; the
wall-clock latency and the process CPU time of every write and every
read are recorded.

``ingest``
    One blocking :class:`SketchClient` against one :class:`SketchServer`
    (serial backend, 2 shards, CountMin 4 x 2048).  A round is one
    ``feed_chunks`` call of two 65,536-update Zipf(1.1) frames, which
    the client pipelines, then one server-side ``estimate`` of a
    4,096-item probe.  No fan-in: the wire feed path end to end.
``fanin_read``
    A :class:`SketchCoordinator` over two servers, each holding a
    CountMin 4 x 16384; 2^20 updates are fed during set-up.  A round is one
    2,048-update ``coordinator.feed`` then four ``coordinator.estimate``
    calls with the 4,096-item probe: snapshot, transfer, restore, merge
    and estimate on every read, and three reads in four follow no write.
``turnstile_mixed``
    A coordinator over two servers holding the paper's Algorithm 5,
    :class:`SisL0Estimator` (q the first prime above 2^20, 8 rows,
    1000 columns: the int64 dense path), fed a turnstile stream with
    deltas in +-1..8.  A round is four 16,384-update ``coordinator.feed``
    calls then one ``coordinator.query()``, so every read follows fresh
    writes.

Inputs come from the seed alone and are generated before set-up,
outside the servers.  Each workload logs every acknowledged update
slice in order; :meth:`Workload.reference` replays exactly that stream
through a serial :class:`StreamEngine`, and the run compares the
fleet's merged snapshot bytes and probe answers with it.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import time
from typing import Callable

import numpy as np

from repro.core.engine import StreamEngine
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.service.client import SketchClient
from repro.service.coordinator import SketchCoordinator
from repro.service.server import SketchServer
from repro.workloads.frequency import turnstile_arrays, zipf_arrays

UNIVERSE = 10**6
PROBE_SIZE = 4_096
HOST = "127.0.0.1"
#: Chunk size of the serial reference engine.
REFERENCE_CHUNK = 1 << 16
#: What one :func:`calibrate` call costs, in CPU seconds, on the host the
#: recorded figures come from; CPU times are scaled to this speed.
CALIBRATION_REFERENCE_S = 0.5e-3
_CALIBRATION_ITEMS = np.arange(1 << 15, dtype=np.int64)


def calibrate() -> float:
    """CPU seconds this thread spends on one fixed piece of work.

    The work runs no program code -- an interpreter loop over a dict, a
    NumPy pass, a histogram and a bytes copy, the kinds of work the fleet
    does -- so what it costs moves with the speed the host gives this
    CPU at the moment, and with nothing else.
    """
    started = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(1_500):
        table[i & 127] = total
        total += i ^ (total & 1023)
    data = (_CALIBRATION_ITEMS * 7 + total) & 4095
    np.bincount(data, minlength=4096)
    np.frombuffer(data.tobytes(), dtype=np.int64).sum()
    return time.thread_time() - started


def speed_scale(calibrations: list[float]) -> float:
    """The factor that scales CPU times measured beside ``calibrations``
    to the reference host's speed."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)


class Samples:
    """What one timed window measured.

    Every operation is timed twice: on the wall clock, and in CPU time of
    the whole process (``time.process_time``: the client, the coordinator
    and every server thread).  The kernel leaves out of CPU time both the
    time a thread waits for a processor and the time the hypervisor steals.
    What CPU time still carries is the speed the host gives the CPU, which
    moves with the load on the host's other threads; a :func:`calibrate`
    call after every round measures it, and :meth:`cpu_rate` and
    :meth:`cpu_ms` scale CPU times by the window's :func:`speed_scale`.
    Calibration time is left out of the window's wall and CPU time.
    """

    def __init__(self) -> None:
        self.write_s: list[float] = []
        self.read_s: list[float] = []
        self.write_cpu_s: list[float] = []
        self.read_cpu_s: list[float] = []
        self.calibration_s: list[float] = []
        self.updates = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def operations(self) -> int:
        return len(self.write_s) + len(self.read_s)

    def _count(self, kind: str) -> int:
        return self.updates if kind == "updates" else len(self.read_s)

    def rate(self, kind: str) -> float:
        """Acknowledged updates, or completed reads, per timed second."""
        return self._count(kind) / self.wall_s

    def cpu_rate(self, kind: str) -> float:
        """Acknowledged updates, or completed reads, per reference CPU second."""
        return self._count(kind) / (self.cpu_s * speed_scale(self.calibration_s))

    def cpu_ms(self, kind: str, q: float) -> float:
        """The ``q``-th percentile of per-write or per-read CPU time, in
        reference CPU milliseconds."""
        values = self.read_cpu_s if kind == "read" else self.write_cpu_s
        return 1e3 * float(np.percentile(values, q)) * speed_scale(self.calibration_s)


class Workload:
    """One workload: its inputs, its fleet, its loop and its reference."""

    name = ""
    why = ""
    sketch_class: type
    #: Zero-argument sketch constructor shared by servers and reference.
    factory: Callable[[], object]
    #: Rounds run (and acknowledged) during set-up, before timing.
    warmup_rounds = 4
    #: The rate the workload exists to measure (``"updates"`` or ``"reads"``).
    primary_rate = "updates"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.probe = rng.choice(UNIVERSE, size=PROBE_SIZE, replace=False).astype(
            np.int64
        )
        self.preload, self.writes = self._inputs(seed)
        self._stack: contextlib.ExitStack | None = None
        self.acked: list[tuple[np.ndarray, np.ndarray]] = []
        self._cursor = 0

    # -- inputs -------------------------------------------------------------

    def _inputs(self, seed: int) -> tuple[list, list]:
        """Update slices fed during set-up, and the write slices the loop
        cycles through, in order."""
        raise NotImplementedError

    def _next_write(self) -> tuple[np.ndarray, np.ndarray]:
        write = self.writes[self._cursor % len(self.writes)]
        self._cursor += 1
        return write

    # -- fleet ----------------------------------------------------------------

    def _start_servers(self, count: int) -> list[SketchServer]:
        servers = []
        for _ in range(count):
            server = SketchServer(self.factory, 2, backend="serial", host=HOST)
            servers.append(self._stack.enter_context(server.run_in_thread()))
        return servers

    def _open(self) -> None:
        """Start the servers, connect, and feed the preload."""
        raise NotImplementedError

    def start(self) -> None:
        """Servers, connection and handshake, preload, warm-up rounds."""
        self._stack = contextlib.ExitStack()
        self.acked = []
        self._cursor = 0
        self._open()
        for _ in range(self.warmup_rounds):
            self._round(None)

    def stop(self) -> None:
        """Close the client side first, then stop the servers."""
        stack, self._stack = self._stack, None
        if stack is not None:
            stack.close()

    # -- the closed loop ------------------------------------------------------

    def _round(self, samples: Samples | None) -> None:
        """One round of writes then reads, recorded into ``samples``."""
        raise NotImplementedError

    def window(self, seconds: float) -> Samples:
        """Run rounds back to back, each followed by a :func:`calibrate`
        call, until ``seconds`` have passed."""
        samples = Samples()
        clock, cpu = time.perf_counter, time.process_time
        paused = paused_cpu = 0.0
        cpu_started, started = cpu(), clock()
        deadline = started + seconds
        now = started
        while now < deadline:
            self._round(samples)
            cpu_mark, mark = cpu(), clock()
            samples.calibration_s.append(calibrate())
            now = clock()
            paused += now - mark
            paused_cpu += cpu() - cpu_mark
        samples.wall_s = now - started - paused
        samples.cpu_s = cpu() - cpu_started - paused_cpu
        return samples

    def final(self) -> tuple[bytes, object]:
        """The fleet's merged snapshot bytes and its probe answer."""
        raise NotImplementedError

    # -- the serial reference -------------------------------------------------

    def answer(self, sketch) -> object:
        """The probe answer a sketch gives (compared with the fleet's)."""
        return sketch.estimate_batch(self.probe)

    def reference(self) -> tuple[bytes, object, float]:
        """Replay the acknowledged stream serially.

        Returns the reference snapshot bytes, its probe answer and the
        serial engine's rate in updates per second.
        """
        sketch = self.factory()
        engine = StreamEngine(chunk_size=REFERENCE_CHUNK)
        total = sum(len(items) for items, _ in self.acked)
        started = time.perf_counter()
        for items, deltas in self.acked:
            engine.drive_arrays(sketch, items, deltas)
        elapsed = time.perf_counter() - started
        return sketch.snapshot(), self.answer(sketch), total / elapsed


def _slices(items: np.ndarray, deltas: np.ndarray, size: int) -> list:
    return [
        (items[start : start + size], deltas[start : start + size])
        for start in range(0, len(items), size)
    ]


def _countmin_2048() -> CountMinSketch:
    return CountMinSketch(UNIVERSE, 2048, 4, seed=7)


def _countmin_16384() -> CountMinSketch:
    return CountMinSketch(UNIVERSE, 16384, 4, seed=7)


_SIS_PARAMS = SISParams(rows=8, cols=1000, modulus=next_prime(1 << 20), beta=1e9)


def _sis_l0() -> SisL0Estimator:
    return SisL0Estimator(UNIVERSE, params=_SIS_PARAMS, seed=7)


def _check_estimates(answer: np.ndarray, probe: np.ndarray) -> np.ndarray:
    if answer.shape != probe.shape:
        raise RuntimeError(f"estimate answered shape {answer.shape} for {probe.shape}")
    return answer


class Ingest(Workload):
    name = "ingest"
    why = (
        "wire feed path end to end: client encode, server decode, partition "
        "split and CountMin kernel, with no fan-in"
    )
    sketch_class = CountMinSketch
    factory = staticmethod(_countmin_2048)
    frame = 65_536
    frames_per_write = 2
    warmup_rounds = 16

    def _inputs(self, seed: int) -> tuple[list, list]:
        items, deltas = zipf_arrays(UNIVERSE, 64 * self.frame, 1.1, seed=seed)
        return [], _slices(items, deltas, self.frame)

    def _open(self) -> None:
        (server,) = self._start_servers(1)
        self.client = self._stack.enter_context(SketchClient.connect(HOST, server.port))

    def _round(self, samples: Samples | None) -> None:
        frames = [self._next_write() for _ in range(self.frames_per_write)]
        cpu_started, started = time.process_time(), time.perf_counter()
        self.client.feed_chunks(frames)
        cpu_written, written = time.process_time(), time.perf_counter()
        self.acked.extend(frames)
        _check_estimates(self.client.estimate(self.probe), self.probe)
        cpu_done, done = time.process_time(), time.perf_counter()
        if samples is not None:
            samples.write_s.append(written - started)
            samples.read_s.append(done - written)
            samples.write_cpu_s.append(cpu_written - cpu_started)
            samples.read_cpu_s.append(cpu_done - cpu_written)
            samples.updates += sum(len(items) for items, _ in frames)

    def final(self) -> tuple[bytes, object]:
        return self.client.snapshot(), self.client.estimate(self.probe)


class _CoordinatorWorkload(Workload):
    """A coordinator over two in-process servers, driven on a private loop.

    A round is ``writes_per_round`` feeds then ``reads_per_round`` reads.
    """

    writes_per_round = 1
    reads_per_round = 1

    async def _read(self):
        raise NotImplementedError

    def _open(self) -> None:
        servers = self._start_servers(2)
        self.loop = asyncio.new_event_loop()
        self._stack.callback(self.loop.close)
        self.coordinator = SketchCoordinator(
            self.factory, [(HOST, server.port) for server in servers]
        )
        self.loop.run_until_complete(self.coordinator.connect())
        self._stack.callback(
            lambda: self.loop.run_until_complete(self.coordinator.close())
        )
        for items, deltas in self.preload:
            self.loop.run_until_complete(self.coordinator.feed(items, deltas))
            self.acked.append((items, deltas))

    def _round(self, samples: Samples | None) -> None:
        self.loop.run_until_complete(self._timed_round(samples))

    async def _timed_round(self, samples: Samples | None) -> None:
        clock, cpu = time.perf_counter, time.process_time
        for _ in range(self.writes_per_round):
            items, deltas = self._next_write()
            cpu_started, started = cpu(), clock()
            await self.coordinator.feed(items, deltas)
            elapsed, cpu_elapsed = clock() - started, cpu() - cpu_started
            self.acked.append((items, deltas))
            if samples is not None:
                samples.write_s.append(elapsed)
                samples.write_cpu_s.append(cpu_elapsed)
                samples.updates += len(items)
        for _ in range(self.reads_per_round):
            cpu_started, started = cpu(), clock()
            await self._read()
            elapsed, cpu_elapsed = clock() - started, cpu() - cpu_started
            if samples is not None:
                samples.read_s.append(elapsed)
                samples.read_cpu_s.append(cpu_elapsed)

    def final(self) -> tuple[bytes, object]:
        async def pull():
            merged = await self.coordinator.merged(allow_degraded=False)
            return merged.snapshot(), await self._read()

        return self.loop.run_until_complete(pull())


class FaninRead(_CoordinatorWorkload):
    name = "fanin_read"
    why = (
        "coordinator read path: per-server snapshot, transfer, restore, merge "
        "and estimate on every read, one small write per four reads"
    )
    sketch_class = CountMinSketch
    factory = staticmethod(_countmin_16384)
    reads_per_round = 4
    primary_rate = "reads"

    def _inputs(self, seed: int) -> tuple[list, list]:
        preload = 1 << 20
        items, deltas = zipf_arrays(UNIVERSE, preload + (1 << 18), 1.1, seed=seed)
        return (
            _slices(items[:preload], deltas[:preload], 65_536),
            _slices(items[preload:], deltas[preload:], 2_048),
        )

    async def _read(self):
        return _check_estimates(await self.coordinator.estimate(self.probe), self.probe)


class TurnstileMixed(_CoordinatorWorkload):
    name = "turnstile_mixed"
    why = (
        "SIS-L0 turnstile writes beside reads on one coordinator: every read "
        "follows fresh writes, so a read cache never hits"
    )
    sketch_class = SisL0Estimator
    factory = staticmethod(_sis_l0)
    writes_per_round = 4
    warmup_rounds = 2

    def _inputs(self, seed: int) -> tuple[list, list]:
        items, deltas = turnstile_arrays(UNIVERSE, 1 << 21, max_delta=8, seed=seed)
        return [], _slices(items, deltas, 16_384)

    async def _read(self):
        answer = await self.coordinator.query()
        if not isinstance(answer, int):
            raise RuntimeError(f"query answered {answer!r}")
        return answer

    def answer(self, sketch) -> object:
        return sketch.query()


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    workload.name: workload for workload in (Ingest, FaninRead, TurnstileMixed)
}
