"""The network service: framing, exactness over sockets, failure modes.

Covers the protocol layer in isolation (message/frame round trips,
malformed-frame rejection, array packing, error-reply mapping), the
server/client path end to end (feed -> estimate bit-exact against a
serial ``StreamEngine`` run, with concurrent clients and with a
process-backend fleet), the coordinator (universe partitioning across
two servers, wire merge, fleet checkpoint, the versioned fan-in and its
merged-view cache), and the recovery story
(fingerprint-mismatch rejection that leaves the fleet intact, server
restart from checkpoint with a reconnecting client replaying the tail).

Everything runs on localhost with OS-assigned ports; servers host their
event loop on a daemon thread via ``run_in_thread()`` so the sync client
tests stay loop-free.
"""

import asyncio
import contextlib
import hashlib
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest
from client_transports import connect, drop_connection, is_closed

from repro import obs
from repro.core.engine import StreamEngine
from repro.distributed.checkpoint import tail_chunks
from repro.distributed.codec import FingerprintMismatch, SnapshotError
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.service import (
    AsyncSketchClient,
    ProtocolError,
    ProtocolVersionMismatch,
    RetryPolicy,
    SequenceGap,
    ServerBusy,
    ServiceError,
    SketchClient,
    SketchCoordinator,
    SketchServer,
)
from repro.service import server as server_module
from repro.service.protocol import (
    MAGIC,
    PAUSE_BYTES,
    STAGING_BYTES,
    FrameProtocol,
    make_error_reply,
    make_reply,
    make_request,
    pack_array,
    pack_message,
    raise_for_reply,
    sanitize_value,
    unpack_array,
    unpack_message,
)

UNIVERSE = 1 << 14
STREAM_LENGTH = 20_000
CHUNK = 4 * 1024


def count_min_factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=512, seed=7)


def other_seed_factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=512, seed=8)


def count_sketch_factory():
    return CountSketch(universe_size=UNIVERSE, width=512, depth=5, seed=11)


def stream(seed=0, length=STREAM_LENGTH):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, UNIVERSE, size=length, dtype=np.int64)
    deltas = rng.integers(-2, 5, size=length, dtype=np.int64)
    return items, deltas


def serial_reference(factory, items, deltas):
    sketch = factory()
    StreamEngine(chunk_size=CHUNK).drive_arrays([sketch], items, deltas)
    return sketch


PROBE = np.arange(256, dtype=np.int64)


def chunked(items, deltas, chunk=CHUNK):
    return [
        (items[i : i + chunk], deltas[i : i + chunk])
        for i in range(0, len(items), chunk)
    ]


class HostedFleet:
    """In-process servers (CountMin by default), each stoppable and
    restartable (empty) on its own port."""

    def __init__(self, count, factory=count_min_factory):
        self.factory = factory
        self.ports = [0] * count
        self._contexts = [None] * count
        for index in range(count):
            self.start(index)

    def start(self, index):
        server = SketchServer(
            self.factory, chunk_size=CHUNK, port=self.ports[index]
        )
        context = server.run_in_thread()
        context.__enter__()
        self._contexts[index] = context
        self.ports[index] = server.port

    def stop(self, index):
        context, self._contexts[index] = self._contexts[index], None
        if context is not None:
            context.__exit__(None, None, None)

    def addresses(self):
        return [("127.0.0.1", port) for port in self.ports]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for index in range(len(self._contexts)):
            self.stop(index)


def record_snapshot_replies(coordinator):
    """Log every snapshot reply the coordinator's server clients receive."""
    replies = []
    for client in coordinator.clients:
        original = client.snapshot

        async def recorded(*args, _original=original, **kwargs):
            reply = await _original(*args, **kwargs)
            replies.append(reply)
            return reply

        client.snapshot = recorded
    return replies


# -- protocol layer, no sockets ----------------------------------------------


class TestMessageCodec:
    def test_request_round_trip(self):
        items, deltas = stream(3, 100)
        message = make_request("feed", 17, items=items, deltas=deltas)
        decoded = unpack_message(pack_message(message)[8:])
        assert decoded["op"] == "feed" and decoded["id"] == 17
        assert np.array_equal(decoded["items"], items)
        assert np.array_equal(decoded["deltas"], deltas)

    def test_reply_round_trip(self):
        reply = make_reply(3, {"count": 5, "position": 10})
        decoded = unpack_message(pack_message(reply)[8:])
        assert raise_for_reply(decoded, 3) == {"count": 5, "position": 10}

    def test_frame_carries_magic_and_length(self):
        frame = pack_message(make_request("ping", 1))
        assert frame[:4] == MAGIC
        (length,) = struct.unpack(">I", frame[4:8])
        assert length == len(frame) - 8

    def test_non_dict_payload_rejected(self):
        from repro.distributed.codec import encode_value

        with pytest.raises(ProtocolError):
            unpack_message(encode_value([1, 2, 3]))

    def test_payload_without_op_rejected(self):
        from repro.distributed.codec import encode_value

        with pytest.raises(ProtocolError):
            unpack_message(encode_value({"id": 1}))

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_message(b"\xff\xfe\xfd not a codec value")

    def test_message_must_have_string_op(self):
        with pytest.raises(ProtocolError):
            pack_message({"op": 42})
        with pytest.raises(ProtocolError):
            pack_message({"id": 1})

    def test_int64_array_pack_bit_exact(self):
        array = np.array([0, -1, 2**62, -(2**62)], dtype=np.int64)
        assert np.array_equal(unpack_array(pack_array(array)), array)

    def test_float64_array_pack_bit_exact(self):
        rng = np.random.default_rng(0)
        array = rng.standard_normal(257)
        round_tripped = unpack_array(pack_array(array))
        # bit-identical, not approximately equal
        assert array.tobytes() == round_tripped.tobytes()

    def test_float64_survives_message_round_trip(self):
        array = np.array([0.1 + 0.2, 1e-308, -0.0, 3.14159e200])
        message = make_reply(1, pack_array(array))
        result = raise_for_reply(unpack_message(pack_message(message)[8:]), 1)
        assert array.tobytes() == unpack_array(result).tobytes()

    @pytest.mark.parametrize(
        "packed",
        [
            {"kind": "f8", "data": "not bytes!", "length": 1},
            {"kind": "f8", "data": bytes(12), "length": 1},
            {"kind": "f8", "data": bytes(16), "length": 5},
            {"kind": "f8", "data": bytes(16), "length": 1},
            {"kind": "f8", "data": bytes(16)},
        ],
        ids=["not-bytes", "ragged", "long-length", "short-length", "no-length"],
    )
    def test_malformed_f8_array_is_protocol_error(self, packed):
        with pytest.raises(ProtocolError, match="f8"):
            unpack_array(packed)

    def test_error_reply_maps_to_local_exception_types(self):
        for exc, expected in [
            (FingerprintMismatch("nope"), FingerprintMismatch),
            (SnapshotError("bad"), SnapshotError),
            (ValueError("v"), ServiceError),
            (RuntimeError("r"), ServiceError),
        ]:
            reply = unpack_message(pack_message(make_error_reply(9, exc))[8:])
            with pytest.raises(expected):
                raise_for_reply(reply, 9)

    def test_service_error_carries_remote_kind(self):
        reply = make_error_reply(1, KeyError("missing"))
        with pytest.raises(ServiceError) as info:
            raise_for_reply(reply, 1)
        assert info.value.kind == "KeyError"

    def test_mismatched_reply_id_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            raise_for_reply(make_reply(2, None), 3)

    def test_sanitize_folds_numpy_scalars(self):
        value = {"f2": np.float64(1.5), "count": np.int64(3), "seq": [np.int32(1)]}
        clean = sanitize_value(value)
        assert type(clean["f2"]) is float and type(clean["count"]) is int
        assert type(clean["seq"][0]) is int


def int64s(*values):
    return np.array(values, dtype=np.int64)


def pinned_messages():
    """Feed, reply and snapshot messages whose frames are pinned below."""
    rng = np.random.default_rng(2024)
    items = rng.integers(0, 1 << 14, size=4096, dtype=np.int64)
    deltas = rng.integers(-3, 9, size=4096, dtype=np.int64)
    sketch = CountMinSketch(universe_size=1 << 14, depth=4, width=512, seed=7)
    StreamEngine(chunk_size=1024).drive_arrays([sketch], items, deltas)
    probe = np.arange(64, dtype=np.int64)
    return {
        "feed": make_request(
            "feed", 7, items=items, deltas=deltas, client="c" * 32, seq=3
        ),
        "reply": make_reply(7, {"count": 4096, "position": 123456789}),
        "error": make_error_reply(9, ValueError("bad batch")),
        "estimate_i8": make_reply(11, pack_array(sketch.estimate_batch(probe))),
        "estimate_f8": make_reply(12, pack_array(np.linspace(-1.5, 2.25, 33))),
        "snapshot": make_reply(
            13, {"version": ("0123abcd", 42), "snapshot": sketch.snapshot()}
        ),
        "kitchen": make_request(
            "query",
            14,
            big=2**100,
            neg=-(2**70),
            f=0.1 + 0.2,
            s="sketché",
            none=None,
            flags=(True, False),
            nested=[1, [2, (3, b"\x00\xff")]],
            grid=np.arange(12, dtype=np.int64).reshape(3, 4),
            empty=np.zeros(0, dtype=np.int64),
            objs=np.array([2**80, -1, 0], dtype=object),
        ),
        # One int64 array at each width, each range reaching both ends
        # of its width; then an all-negative 2-D range and the extremes.
        "width_1": make_request("estimate", 15, items=int64s(-128, 0, 127)),
        "width_2": make_request("estimate", 16, items=int64s(-129, 0, 32767)),
        "width_4": make_request(
            "estimate", 17, items=int64s(-(2**31), 32768, 2**31 - 1)
        ),
        "width_8": make_request("estimate", 18, items=int64s(-(2**31) - 1, 0, 2**31)),
        "negative": make_request(
            "estimate", 19, items=np.arange(-40_000, -39_000).reshape(10, 100)
        ),
        "extremes": make_request(
            "estimate", 20, items=int64s(-(2**63), 2**63 - 1, -1, 0)
        ),
    }


#: ``(length, sha256)`` of each pinned message's frame.  The wire format
#: of each ``PROTOCOL_VERSION`` is fixed: every peer speaking it must
#: produce the same bytes.
PINNED_FRAMES = {
    "feed": (12392, "3f11fd0c0e7597df25e07645bf25e5bc814af9cc4f51fe7db55c15051f2ba430"),
    "reply": (73, "83e300f3ea11eebc9b254cea4f9086b1f68745e5ad311797adffd4b8a43ec19b"),
    "error": (73, "68955d63092abe4f690e5513f8db340e67a11ddaadf2a8dfe4036c46eb6f92a9"),
    "estimate_i8": (128, "30e6c9e37ec9d4d630fed7d155f2f7cd714b9045997fd77eff2fe87ac2f4794c"),
    "estimate_f8": (339, "c276c41f416b41964cdfd9b0996a33b5305c5e3f2b44da92584f1ecac78e9683"),
    "snapshot": (2314, "c14f489e9bcab9b2731b41d65f81373cdb5a1f23ff0164259cc318cde650ddf5"),
    "kitchen": (204, "1ff7a072bf476493265600ce68d9c1f9f4470c25ccb7111606f3200229759fd5"),
    "width_1": (46, "f4789f6f120b540b328b7ca3be3108535fcef3028241aef28704f113ba2d25da"),
    "width_2": (49, "1af97c33d90be059409f95378ec93a52a55402230db4e06e14e0fbec9c35d8b3"),
    "width_4": (55, "b03b46376ea5cab9a5ba97b3c6fe1acfe33608391708c882f55c15b5edabaa84"),
    "width_8": (66, "24eb9f4cd33503dcc6385a65190a5aada1e5492a5fb752163e4ccafdb0cd9159"),
    "negative": (4044, "7e7407b463272fb39803684f3cbe62770a30cbd0b048e6e9a3a2b56af1b04419"),
    "extremes": (74, "802ef95c70aaeb96f762fceab85bdc8e39d82d7c9cc35d723b660a90ecbbfe1f"),
}


class TestPinnedFrames:
    @pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
    def test_frame_bytes_unchanged(self, name):
        frame = bytes(pack_message(pinned_messages()[name]))
        assert (len(frame), hashlib.sha256(frame).hexdigest()) == PINNED_FRAMES[name]
        # Decoding and re-encoding reproduces the frame exactly.
        assert bytes(pack_message(unpack_message(frame[8:]))) == frame


# -- the asyncio frame reader, without a socket ------------------------------


class FakeTransport:
    """The transport calls a :class:`FrameProtocol` makes."""

    def __init__(self):
        self.paused = False
        self.closing = False
        self.written = bytearray()

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


def push(frames, data, step=None):
    """Deliver ``data`` the way a socket transport does: fill what
    ``get_buffer`` offers, at most ``step`` bytes per read."""
    data = memoryview(data)
    while data:
        buffer = frames.get_buffer(-1)
        count = min(len(buffer), len(data), step or len(data))
        buffer[:count] = data[:count]
        del buffer
        frames.buffer_updated(count)
        data = data[count:]


def drive(scenario):
    """Run ``scenario(frames, transport)`` against a connected reader."""

    async def main():
        frames = FrameProtocol(max_frame=1 << 20)
        transport = FakeTransport()
        frames.connection_made(transport)
        return await scenario(frames, transport)

    return asyncio.run(main())


async def read_all(frames, count):
    return [bytes(pack_message(await frames.read(timeout=1.0))) for _ in range(count)]


def frame_stream(*sizes):
    """One frame per size: a feed of ``size`` updates, or a ping for 0."""
    frames = []
    for index, size in enumerate(sizes):
        items, deltas = stream(index, size)
        message = (
            make_request("feed", index, items=items, deltas=deltas)
            if size
            else make_request("ping", index)
        )
        frames.append(bytes(pack_message(message)))
    return frames


class TestFrameReader:
    def test_every_split_of_small_frames_decodes_identically(self):
        frames_out = frame_stream(0, 3, 0, 12)
        blob = b"".join(frames_out)

        async def scenario(frames, transport):
            results = []
            for cut in range(len(blob) + 1):
                reader = FrameProtocol()
                reader.connection_made(transport)
                push(reader, blob[:cut])
                push(reader, blob[cut:])
                results.append(await read_all(reader, len(frames_out)))
            reader = FrameProtocol()
            reader.connection_made(transport)
            push(reader, blob, step=1)
            results.append(await read_all(reader, len(frames_out)))
            return results

        for result in drive(scenario):
            assert result == frames_out

    def test_large_frame_split_anywhere_near_its_edges(self):
        # A feed too large to stage, between two staged frames.
        frames_out = frame_stream(0, 24_000, 0)
        large = len(frames_out[0]) + len(frames_out[1])
        assert len(frames_out[1]) > STAGING_BYTES
        blob = b"".join(frames_out)
        cuts = sorted(
            {*range(len(frames_out[0]) + 12), *range(STAGING_BYTES - 8, STAGING_BYTES + 8)}
            | {*range(large - 8, large + 8)}
        )

        async def scenario(frames, transport):
            results = []
            for cut in cuts:
                reader = FrameProtocol()
                reader.connection_made(transport)
                push(reader, blob[:cut])
                push(reader, blob[cut:])
                results.append(await read_all(reader, 3))
            for step in (1_000, 4_096, 1 << 20):
                reader = FrameProtocol()
                reader.connection_made(transport)
                push(reader, blob, step=step)
                results.append(await read_all(reader, 3))
            return results

        for result in drive(scenario):
            assert result == frames_out

    def test_many_small_frames_per_read_and_the_pause_bound(self):
        frames_out = frame_stream(*([40] * 1_600))
        blob = b"".join(frames_out)
        assert len(blob) > PAUSE_BYTES + STAGING_BYTES

        async def scenario(frames, transport):
            push(frames, blob[:STAGING_BYTES])
            staged = len(frames._messages)  # all whole frames, one read
            assert staged > 50 and not transport.paused
            push(frames, blob[STAGING_BYTES:])
            # Unread payload passed the bound: reading paused ...
            assert transport.paused
            got = await read_all(frames, len(frames_out))
            # ... and resumed once the queue drained.
            assert not transport.paused
            return got

        assert drive(scenario) == frames_out

    def test_stream_endings(self):
        ping = bytes(pack_message(make_request("ping", 1)))

        async def scenario(frames, transport):
            outcomes = []
            eof, reset = "eof", ConnectionResetError("reset")
            for tail, ending in [
                (b"", eof),  # clean EOF at a frame boundary
                (ping[:5], eof),  # EOF inside a header
                (ping[:-1], eof),  # EOF inside a payload
                (b"XXXX" + ping[4:], None),  # bad magic
                (MAGIC + struct.pack(">I", (1 << 20) + 1), None),  # oversize
                (ping[:-1], reset),  # connection lost inside a payload
                (b"", reset),  # connection lost at a frame boundary
            ]:
                reader = FrameProtocol(max_frame=1 << 20)
                reader.connection_made(FakeTransport())
                push(reader, ping + tail)
                if ending is eof:
                    reader.eof_received()
                    reader.connection_lost(None)
                elif ending is reset:
                    reader.connection_lost(reset)
                first = await reader.read()
                try:
                    outcomes.append((first["op"], await reader.read()))
                except (ProtocolError, OSError) as exc:
                    outcomes.append((first["op"], type(exc).__name__))
            return outcomes

        assert drive(scenario) == [
            ("ping", None),
            ("ping", "ProtocolError"),
            ("ping", "ProtocolError"),
            ("ping", "ProtocolError"),
            ("ping", "ProtocolError"),
            ("ping", "ConnectionResetError"),
            ("ping", "ConnectionResetError"),
        ]

    def test_read_times_out_without_losing_the_next_frame(self):
        ping = bytes(pack_message(make_request("ping", 5)))

        async def scenario(frames, transport):
            with pytest.raises(asyncio.TimeoutError):
                await frames.read(timeout=0.01)
            push(frames, ping)
            return (await frames.read(timeout=0.01))["id"]

        assert drive(scenario) == 5


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux /proc"
)
def test_announced_frames_do_not_commit_memory():
    """Memory held for a frame in flight follows the bytes received."""
    server = SketchServer(count_min_factory, chunk_size=CHUNK)
    with server.run_in_thread() as srv:
        before = resident_bytes()
        raws = [socket.create_connection(("127.0.0.1", srv.port)) for _ in range(4)]
        try:
            for raw in raws:
                raw.sendall(MAGIC + struct.pack(">I", srv.max_frame) + b"\x00" * 1000)
            deadline = time.monotonic() + 10
            while srv.stats.connections_open < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.stats.connections_open == 4
            # A round trip after the announcements: the loop has read them.
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                assert client.ping()["pong"]
            grown = resident_bytes() - before
        finally:
            for raw in raws:
                raw.close()
    # Committing each announced frame would grow it by 4 x 64 MiB.
    assert grown < srv.max_frame // 2, f"resident memory grew {grown} bytes"


# -- malformed frames against a live server ----------------------------------


class TestMalformedFrames:
    def test_bad_magic_closes_connection_not_server(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            raw = socket.create_connection(("127.0.0.1", srv.port))
            raw.sendall(b"XXXX" + struct.pack(">I", 4) + b"junk")
            # server drops the connection without replying
            assert raw.recv(1024) == b""
            raw.close()
            # ...but keeps serving other clients
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                assert client.ping()["pong"]
                assert client.stats()["errors"] >= 1

    def test_oversized_frame_rejected(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK, max_frame=1024)
        with server.run_in_thread() as srv:
            raw = socket.create_connection(("127.0.0.1", srv.port))
            raw.sendall(MAGIC + struct.pack(">I", 1 << 30))
            assert raw.recv(1024) == b""
            raw.close()

    def test_truncated_frame_is_protocol_error_client_side(self):
        from repro.service.protocol import recv_message

        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            client = SketchClient.connect("127.0.0.1", srv.port, hello=False)
            # hand-feed a frame whose payload never arrives, then half-close:
            # the server sees EOF inside the frame, drops the connection
            # without a reply, and the client's read surfaces that
            client._sock.sendall(MAGIC + struct.pack(">I", 100) + b"short")
            client._sock.shutdown(socket.SHUT_WR)
            with pytest.raises(ProtocolError):
                recv_message(client._sock)
            client.close()


# -- end-to-end exactness ----------------------------------------------------


class TestServerExactness:
    def test_single_client_matches_serial_engine(self):
        items, deltas = stream(1)
        reference = serial_reference(count_min_factory, items, deltas)
        server = SketchServer(count_min_factory, num_shards=2, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                ack = client.feed_chunks(
                    (items[i : i + CHUNK], deltas[i : i + CHUNK])
                    for i in range(0, len(items), CHUNK)
                )
                assert ack["count"] == len(items)
                assert ack["position"] == len(items)
                estimates = client.estimate(PROBE)
                assert np.array_equal(
                    estimates, reference.estimate_batch(PROBE)
                )
                # the snapshot over the wire equals the local merged state
                assert client.snapshot() == reference.snapshot()

    def test_concurrent_clients_bit_exact(self):
        """Many clients, interleaved over TCP, one merged truth.

        Update rules commute, so whatever order the server absorbs the
        four sub-streams in, the final state must equal one serial engine
        fed the concatenation.
        """
        items, deltas = stream(2, 40_000)
        reference = serial_reference(count_min_factory, items, deltas)
        server = SketchServer(
            count_min_factory, num_shards=2, chunk_size=CHUNK, queue_depth=4
        )
        errors = []
        with server.run_in_thread() as srv:

            def feed_slice(start):
                try:
                    with SketchClient.connect("127.0.0.1", srv.port) as c:
                        c.feed_chunks(
                            (
                                items[i : i + 1024],
                                deltas[i : i + 1024],
                            )
                            for i in range(start, len(items), 4 * 1024)
                        )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=feed_slice, args=(k * 1024,))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                assert client.ping()["position"] == len(items)
                assert np.array_equal(
                    client.estimate(PROBE), reference.estimate_batch(PROBE)
                )
                assert client.snapshot() == reference.snapshot()

    def test_process_backend_fleet_bit_exact(self):
        items, deltas = stream(4)
        reference = serial_reference(count_min_factory, items, deltas)
        server = SketchServer(
            count_min_factory, num_shards=2, backend="process", chunk_size=CHUNK
        )
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items, deltas)
                assert np.array_equal(
                    client.estimate(PROBE), reference.estimate_batch(PROBE)
                )

    def test_float_estimates_bit_identical(self):
        """CountSketch medians are float64; the wire must not perturb them."""
        items, deltas = stream(5)
        reference = serial_reference(count_sketch_factory, items, deltas)
        server = SketchServer(count_sketch_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items, deltas)
                estimates = client.estimate(PROBE)
                expected = reference.estimate_batch(PROBE)
                assert estimates.tobytes() == expected.tobytes()

    def test_f2_query_over_the_wire(self):
        items, deltas = stream(6)
        reference = serial_reference(count_sketch_factory, items, deltas)
        server = SketchServer(count_sketch_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items, deltas)
                assert client.f2_estimate() == reference.f2_estimate()

    def test_hello_pins_identity(self):
        server = SketchServer(count_min_factory, num_shards=3, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                info = client.server_info
                assert info["sketch"].endswith("CountMinSketch")
                assert info["fingerprint"] == srv.fingerprint
                assert info["num_shards"] == 3

    def test_stop_with_an_idle_client_connected(self):
        """From Python 3.12.1 ``wait_closed()`` waits for every open
        connection, so ``stop()`` reaps the handlers that own them first;
        otherwise the server thread outlives ``run_in_thread``'s join."""
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        hosted = server.run_in_thread()
        before = set(threading.enumerate())
        srv = hosted.__enter__()
        loop_threads = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name == "sketch-server"
        ]
        assert len(loop_threads) == 1
        with SketchClient.connect("127.0.0.1", srv.port) as client:
            client.ping()
            started = time.monotonic()
            hosted.__exit__(None, None, None)
            elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert not loop_threads[0].is_alive()

    def test_a_failed_gateway_bind_closes_the_listener(self):
        """``start`` binds the server before its gateway; when the
        gateway's port is taken, the server's listening socket closes
        too, so nothing accepts on ``server.port`` and no unclosed
        socket is left for ``-X dev`` to report."""
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = SketchServer(
                count_min_factory,
                chunk_size=CHUNK,
                gateway_port=taken.getsockname()[1],
            )
            with pytest.raises(OSError):
                with server.run_in_thread():
                    pass
        assert server.port
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5).close()


# -- application errors leave the connection usable --------------------------


class TestApplicationErrors:
    def test_unknown_op_and_bad_kind_then_connection_survives(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                with pytest.raises(ServiceError) as info:
                    client._run(client._call("definitely_not_an_op"))
                assert info.value.kind == "ValueError"
                with pytest.raises(ServiceError):
                    client.query(kind="nope")
                assert client.ping()["pong"]

    def test_misaligned_feed_rejected_client_side(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                with pytest.raises(ValueError):
                    client.feed(np.arange(5, dtype=np.int64), np.ones(4, dtype=np.int64))

    def test_fingerprint_mismatch_rejected_and_fleet_intact(self):
        items, deltas = stream(7)
        reference = serial_reference(count_min_factory, items, deltas)
        server = SketchServer(count_min_factory, num_shards=2, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items, deltas)
                with pytest.raises(FingerprintMismatch):
                    client.load_snapshot(other_seed_factory().snapshot())
                # the rejected snapshot must not have touched the fleet
                assert np.array_equal(
                    client.estimate(PROBE), reference.estimate_batch(PROBE)
                )

    def test_checkpoint_without_path_is_remote_error(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.checkpoint()
                assert info.value.kind == "RuntimeError"


class TestFeedPipelineErrors:
    """A failing ``feed_chunks`` source on :class:`SketchClient`;
    :class:`TestFeedPipelineErrorsAsync` reruns it on the async client."""

    transport = "sync"

    @pytest.mark.parametrize("sequenced", [False, True], ids=["plain", "sequenced"])
    @pytest.mark.parametrize("failure", ["misshapen", "raises"])
    def test_source_error_reads_the_in_flight_acks_first(self, failure, sequenced):
        items, deltas = stream(12, 3 * CHUNK)

        def source():
            # Three frames are in flight (the window is 8) when the
            # fourth chunk fails: their acks must still be read.
            yield from chunked(items, deltas)
            if failure == "raises":
                raise RuntimeError("source failed")
            yield items[:10], deltas[:5]

        retry = RetryPolicy(max_attempts=3, base_delay=0.01) if sequenced else None
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with connect(self.transport, "127.0.0.1", srv.port) as client:
                expected = RuntimeError if failure == "raises" else ValueError
                with pytest.raises(expected, match="source failed|aligned"):
                    client.feed_chunks(source(), retry=retry)
                assert client.ping()["position"] == len(items)
                # ...and the stream goes on from there.
                assert client.feed_chunks(chunked(items, deltas), retry=retry) == {
                    "count": len(items),
                    "position": 2 * len(items),
                }


class TestFeedPipelineErrorsAsync(TestFeedPipelineErrors):
    transport = "async"


# -- protocol version handshake ----------------------------------------------


def wait_for(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestProtocolVersionHandshake:
    """A server of another ``PROTOCOL_VERSION`` is refused at ``hello``,
    never retried into; :class:`TestProtocolVersionHandshakeAsync` reruns
    it on the async client."""

    transport = "sync"

    def test_connect_refuses_another_version_without_retrying(self, monkeypatch):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            monkeypatch.setattr(server_module, "PROTOCOL_VERSION", 1)
            with pytest.raises(ProtocolVersionMismatch) as info:
                connect(self.transport, "127.0.0.1", srv.port, retries=3)
            assert info.value.server_version == 1
            assert not isinstance(info.value, (OSError, ProtocolError))
            # One connection, closed by the client.
            assert wait_for(lambda: srv.stats.connections_open == 0)
            assert srv.stats.connections_total == 1

    def test_feed_replay_never_resends_into_another_version(self, monkeypatch):
        items, deltas = stream(13, 2 * CHUNK)
        retry = RetryPolicy(max_attempts=5, base_delay=0.01)
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with connect(self.transport, "127.0.0.1", srv.port) as client:
                # The server "restarts" speaking version 1: the replay
                # loop's reconnect meets it and stops there.
                monkeypatch.setattr(server_module, "PROTOCOL_VERSION", 1)
                drop_connection(client)
                with pytest.raises(ProtocolVersionMismatch):
                    client.feed_chunks(chunked(items, deltas), retry=retry)
                assert is_closed(client)
            assert srv.position == 0
            assert srv.stats.connections_total == 2


class TestProtocolVersionHandshakeAsync(TestProtocolVersionHandshake):
    transport = "async"


# -- restart / reconnect -----------------------------------------------------


class TestRestartRecovery:
    def test_client_reconnects_after_server_restart_from_checkpoint(self, tmp_path):
        """Kill the server mid-stream, restart from its checkpoint, replay
        the tail through a reconnecting client: final state bit-exact."""
        items, deltas = stream(8, 30_000)
        reference = serial_reference(count_min_factory, items, deltas)
        path = tmp_path / "service.ckpt"
        cut = 20_000

        first = SketchServer(
            count_min_factory,
            num_shards=2,
            chunk_size=CHUNK,
            checkpoint_path=path,
            checkpoint_every=5_000,
        )
        with first.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(items[:cut], deltas[:cut])
                client.checkpoint()  # pin the cut point on disk
        # server gone; a fresh one resumes from the file
        assert path.exists()
        second = SketchServer(
            count_min_factory, num_shards=2, chunk_size=CHUNK, resume_path=path
        )
        with second.run_in_thread() as srv:
            client = SketchClient.connect(
                "127.0.0.1",
                srv.port,
                retry=RetryPolicy(
                    max_attempts=21, base_delay=0.05, multiplier=1.0, deadline=None
                ),
            )
            with client:
                position = client.ping()["position"]
                assert position == cut
                # replay only the tail, exactly like local recovery
                chunks = (
                    (items[i : i + CHUNK], deltas[i : i + CHUNK])
                    for i in range(0, len(items), CHUNK)
                )
                for tail_items, tail_deltas in tail_chunks(chunks, position):
                    client.feed(tail_items, tail_deltas)
                assert np.array_equal(
                    client.estimate(PROBE), reference.estimate_batch(PROBE)
                )
                assert client.snapshot() == reference.snapshot()

    def test_a_resumed_server_remembers_each_clients_last_seq(self, tmp_path):
        """A server acks five sequenced 2,000-update feeds, then "dies":
        a copy of its 8,000-update checkpoint stands in for the crash.
        Resumed from that copy, it must refuse the client's sixth feed
        with a gap (seq 6 after 4), never ack it at position 10,000."""
        items, deltas = stream(9, 12_000)
        path = tmp_path / "service.ckpt"
        crashed = tmp_path / "crashed.ckpt"
        first = SketchServer(
            count_min_factory,
            chunk_size=CHUNK,
            checkpoint_path=path,
            checkpoint_every=8_000,
        )
        with first.run_in_thread() as srv:
            port = srv.port
            client = SketchClient.connect("127.0.0.1", port)
            for start in range(0, 10_000, 2_000):
                reply = client.feed(
                    items[start : start + 2_000],
                    deltas[start : start + 2_000],
                    seq=client.next_seq(),
                )
            assert reply["position"] == 10_000
            crashed.write_bytes(path.read_bytes())
        second = SketchServer(
            count_min_factory, chunk_size=CHUNK, port=port, resume_path=crashed
        )
        with second.run_in_thread() as srv, client:
            client.reconnect()
            with pytest.raises(SequenceGap, match="seq 6 after 4.*resend from seq 5"):
                client.feed(items[10_000:], deltas[10_000:], seq=client.next_seq())
            assert client.ping()["position"] == 8_000
            assert srv.position == 8_000

    def test_connect_retries_ride_out_a_down_server(self):
        # grab a port with no listener
        probe_sock = socket.socket()
        probe_sock.bind(("127.0.0.1", 0))
        port = probe_sock.getsockname()[1]
        probe_sock.close()
        with pytest.raises(OSError):
            SketchClient.connect(
                "127.0.0.1",
                port,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )


# -- the coordinator ---------------------------------------------------------


class TestCoordinator:
    def run(self, coroutine):
        return asyncio.run(coroutine)

    def test_two_server_fleet_bit_exact_and_checkpoints(self, tmp_path):
        items, deltas = stream(9)
        reference = serial_reference(count_min_factory, items, deltas)
        s1 = SketchServer(count_min_factory, chunk_size=CHUNK)
        s2 = SketchServer(count_min_factory, chunk_size=CHUNK)
        path = tmp_path / "fleet.ckpt"

        async def scenario():
            coordinator = SketchCoordinator(
                count_min_factory,
                [("127.0.0.1", s1.port), ("127.0.0.1", s2.port)],
            )
            await coordinator.connect()
            position = await coordinator.feed_chunks(
                (items[i : i + CHUNK], deltas[i : i + CHUNK])
                for i in range(0, len(items), CHUNK)
            )
            assert position == len(items)
            estimates = await coordinator.estimate(PROBE)
            assert np.array_equal(estimates, reference.estimate_batch(PROBE))
            merged = await coordinator.merged()
            assert merged.snapshot() == reference.snapshot()
            # per-server stats cover the whole stream between them
            stats = await coordinator.stats()
            assert sum(s["position"] for s in stats) == len(items)
            assert await coordinator.checkpoint(path) == len(items)
            await coordinator.close()

        with s1.run_in_thread(), s2.run_in_thread():
            self.run(scenario())
        assert path.exists()

        # recovery into a brand-new fleet
        f1 = SketchServer(count_min_factory, chunk_size=CHUNK)
        f2 = SketchServer(count_min_factory, chunk_size=CHUNK)

        async def recovery():
            coordinator = SketchCoordinator(
                count_min_factory,
                [("127.0.0.1", f1.port), ("127.0.0.1", f2.port)],
            )
            await coordinator.connect()
            assert await coordinator.recover(path) == len(items)
            estimates = await coordinator.estimate(PROBE)
            assert np.array_equal(estimates, reference.estimate_batch(PROBE))
            await coordinator.close()

        with f1.run_in_thread(), f2.run_in_thread():
            self.run(recovery())

    def test_two_by_two_fleet_loads_every_shard(self):
        """Servers cut their part of the universe independently of the
        coordinator's cut, so each of a 2x2 fleet's servers feeds both
        of its shards -- and the fleet still matches the serial engine."""
        items, deltas = stream(21)
        reference = serial_reference(count_min_factory, items, deltas)
        servers = [
            SketchServer(count_min_factory, num_shards=2, chunk_size=CHUNK)
            for _ in range(2)
        ]

        async def scenario():
            coordinator = SketchCoordinator(
                count_min_factory,
                [("127.0.0.1", server.port) for server in servers],
            )
            await coordinator.connect()
            await coordinator.feed_chunks(chunked(items, deltas))
            stats = await coordinator.stats()
            merged = await coordinator.merged()
            await coordinator.close()
            return stats, merged

        with servers[0].run_in_thread(), servers[1].run_in_thread():
            stats, merged = self.run(scenario())
        for server_stats in stats:
            loads = server_stats["shard_loads"]
            assert len(loads) == 2
            assert min(loads) > 0.4 * sum(loads), loads
        assert merged.snapshot() == reference.snapshot()

    def test_mis_seeded_server_rejected_at_connect(self):
        good = SketchServer(count_min_factory, chunk_size=CHUNK)
        bad = SketchServer(other_seed_factory, chunk_size=CHUNK)
        with good.run_in_thread(), bad.run_in_thread():

            async def scenario():
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", good.port), ("127.0.0.1", bad.port)],
                )
                with pytest.raises(FingerprintMismatch):
                    await coordinator.connect()
                assert not coordinator.clients  # connections torn down

            self.run(scenario())

    def test_a_refused_connect_closes_the_connections_that_opened(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with socket.socket() as unused:
            unused.bind(("127.0.0.1", 0))
            refused_port = unused.getsockname()[1]
        with server.run_in_thread() as srv:

            async def scenario():
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", srv.port), ("127.0.0.1", refused_port)],
                )
                with pytest.raises(OSError):
                    await coordinator.connect()
                assert not coordinator.clients

            self.run(scenario())
            # The live server's connection was closed, not left behind.
            assert wait_for(lambda: srv.stats.connections_open == 0)
            assert srv.stats.connections_total == 1

    def test_coordinator_requires_addresses(self):
        with pytest.raises(ValueError):
            SketchCoordinator(count_min_factory, [])

    # -- the versioned fan-in and the merged view ----------------------------

    async def connected(self, fleet):
        coordinator = SketchCoordinator(count_min_factory, fleet.addresses())
        await coordinator.connect(retry=RetryPolicy(max_attempts=4, base_delay=0.05))
        return coordinator

    def test_unchanged_fleet_read_ships_no_bytes_and_reuses_the_view(self):
        items, deltas = stream(20, 4 * CHUNK)
        reference = serial_reference(count_min_factory, items, deltas)

        async def scenario(fleet):
            coordinator = await self.connected(fleet)
            await coordinator.feed_chunks(chunked(items, deltas))
            first = await coordinator.merged()
            assert first.snapshot() == reference.snapshot()
            replies = record_snapshot_replies(coordinator)
            second = await coordinator.merged()
            assert second is first
            assert len(replies) == 2
            assert all(reply["snapshot"] is None for reply in replies)
            assert np.array_equal(
                await coordinator.estimate(PROBE), reference.estimate_batch(PROBE)
            )
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_direct_feed_to_one_server_shows_in_the_next_read(self):
        items, deltas = stream(21, 2 * CHUNK)
        extra_items, extra_deltas = stream(22, CHUNK)
        reference = serial_reference(
            count_min_factory,
            np.concatenate([items, extra_items]),
            np.concatenate([deltas, extra_deltas]),
        )

        async def scenario(fleet):
            coordinator = await self.connected(fleet)
            await coordinator.feed_chunks(chunked(items, deltas))
            before = await coordinator.merged()
            # Another client writes to server 1 behind the coordinator's back.
            with SketchClient.connect(*fleet.addresses()[1]) as other:
                other.feed(extra_items, extra_deltas)
            after = await coordinator.merged()
            assert after is not before
            assert after.snapshot() == reference.snapshot()
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_restart_at_the_same_mutation_count_is_a_miss(self):
        items, deltas = stream(23, CHUNK)
        extra_items, extra_deltas = stream(24, CHUNK)
        reference = serial_reference(
            count_min_factory,
            np.concatenate([items, extra_items]),
            np.concatenate([deltas, extra_deltas]),
        )

        async def scenario(fleet):
            coordinator = await self.connected(fleet)
            await coordinator.feed(items, deltas)  # one feed per server
            await coordinator.merged()
            old_version = coordinator._logs[1].version
            # Server 1 restarts on its port and takes exactly one feed, as
            # before: its slice of the chunk plus updates the old server
            # never saw.
            slice_items, slice_deltas = coordinator.partitioner.split(
                items, deltas
            )[1]
            fleet.stop(1)
            fleet.start(1)
            with SketchClient.connect(*fleet.addresses()[1]) as direct:
                direct.feed(
                    np.concatenate([slice_items, extra_items]),
                    np.concatenate([slice_deltas, extra_deltas]),
                )
            await coordinator.readmit(1)
            new_version = coordinator._logs[1].version
            assert new_version[1] == old_version[1]
            assert new_version != old_version
            merged = await coordinator.merged()
            assert coordinator.last_read["degraded"] is False
            assert merged.snapshot() == reference.snapshot()
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_reads_stay_exact_through_degradation_readmission_and_migration(
        self, tmp_path
    ):
        items, deltas = stream(25, 6 * CHUNK)
        chunks = chunked(items, deltas)
        cuts = (2 * CHUNK, 4 * CHUNK, 6 * CHUNK)
        references = [
            serial_reference(count_min_factory, items[:cut], deltas[:cut])
            for cut in cuts
        ]
        path = tmp_path / "fleet.ckpt"

        async def scenario(fleet):
            coordinator = await self.connected(fleet)
            for batch in chunks[:2]:
                await coordinator.feed(*batch)
            hit = await coordinator.merged()
            assert await coordinator.merged() is hit
            # Server 2 goes down: the degraded read serves its cache.
            fleet.stop(2)
            degraded = await coordinator.merged()
            assert coordinator.last_read["degraded"] is True
            assert degraded is hit  # the cached versions still match
            assert degraded.snapshot() == references[0].snapshot()
            # It comes back empty and is restored from cache + journal.
            fleet.start(2)
            assert (await coordinator.readmit(2))["restored"] is True
            readmitted = await coordinator.merged()
            assert coordinator.last_read["degraded"] is False
            assert readmitted.snapshot() == references[0].snapshot()
            for batch in chunks[2:4]:
                await coordinator.feed(*batch)
            # Server 1 is lost for good: its shards move to a survivor.
            fleet.stop(1)
            assert (await coordinator.migrate_server(1))["migrated"] is True
            migrated = await coordinator.merged(allow_degraded=False)
            assert migrated.snapshot() == references[1].snapshot()
            for batch in chunks[4:]:
                await coordinator.feed(*batch)
            final = await coordinator.merged(allow_degraded=False)
            assert final.snapshot() == references[2].snapshot()
            await coordinator.checkpoint(path)
            await coordinator.close()

        async def recovery(fleet):
            coordinator = await self.connected(fleet)
            empty = await coordinator.merged()
            assert empty.snapshot() == count_min_factory().snapshot()
            await coordinator.recover(path)
            recovered = await coordinator.merged()
            assert recovered is not empty
            assert recovered.snapshot() == references[2].snapshot()
            await coordinator.close()

        with HostedFleet(3) as fleet:
            asyncio.run(scenario(fleet))
        with HostedFleet(2) as fleet:
            asyncio.run(recovery(fleet))

    def test_a_handed_out_view_is_unchanged_by_later_misses(self):
        items, deltas = stream(26, 3 * CHUNK)
        chunks = chunked(items, deltas)

        async def scenario(fleet):
            coordinator = await self.connected(fleet)
            views = []
            for end, batch in enumerate(chunks, start=1):
                await coordinator.feed(*batch)
                views.append((end, await coordinator.merged()))
            assert len({id(view) for _, view in views}) == len(chunks)
            for end, view in views:
                cut = end * CHUNK
                reference = serial_reference(
                    count_min_factory, items[:cut], deltas[:cut]
                )
                assert view.snapshot() == reference.snapshot()
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_snapshot_unless_skips_only_an_unchanged_state(self):
        items, deltas = stream(27, CHUNK)
        reference = serial_reference(count_min_factory, items, deltas)
        twice = serial_reference(
            count_min_factory,
            np.concatenate([items, items]),
            np.concatenate([deltas, deltas]),
        )
        # One shard, so a replacing load_snapshot replaces the whole state.
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                empty = client.snapshot(unless=None)
                assert empty["snapshot"] == client.snapshot()
                version = empty["version"]
                assert client.snapshot(unless=version) == {
                    "version": version,
                    "snapshot": None,
                }
                # An applied feed moves the version ...
                assert not client.feed(items, deltas, seq=1).get("duplicate")
                fed = client.snapshot(unless=version)
                assert fed["version"] != version
                assert fed["snapshot"] == reference.snapshot()
                version = fed["version"]
                # ... a duplicate-acked resend does not.
                assert client.feed(items, deltas, seq=1)["duplicate"] is True
                assert client.snapshot(unless=version)["snapshot"] is None
                # load_snapshot moves it in either mode, even when the
                # replacing state is byte-identical to the current one.
                client.load_snapshot(reference.snapshot())
                replaced = client.snapshot(unless=version)
                assert replaced["version"] != version
                assert replaced["snapshot"] == reference.snapshot()
                version = replaced["version"]
                client.load_snapshot(reference.snapshot(), merge=True)
                merged = client.snapshot(unless=version)
                assert merged["version"] != version
                assert merged["snapshot"] == twice.snapshot()
                # A plain request still gets plain bytes.
                assert client.snapshot() == twice.snapshot()



@contextlib.contextmanager
def held(target, name):
    """Hold every call of ``target.name`` (on the server's engine thread)
    until the block exits; yields an event set once a call is held."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(target, name)

    def hold(*args):
        entered.set()
        release.wait(timeout=10)
        return original(*args)

    setattr(target, name, hold)
    try:
        yield entered
    finally:
        release.set()


class TestVersionCheckOnTheLoop:
    """A ``snapshot`` check at the server's current version is answered
    on the event loop; any other check queues on the engine thread."""

    def test_a_matching_check_answers_while_the_engine_is_held(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        # Without a loop-side answer the check would wait for the held
        # estimate and time out.
        policy = RetryPolicy(max_attempts=1, op_timeout=5.0)
        with server.run_in_thread():
            with SketchClient.connect(
                "127.0.0.1", server.port, retry=policy
            ) as checker, SketchClient.connect("127.0.0.1", server.port) as other:
                version = checker.snapshot(unless=None)["version"]
                with held(server.engine, "estimate_batch") as entered:
                    reader = threading.Thread(target=other.estimate, args=(PROBE,))
                    reader.start()
                    assert entered.wait(timeout=5)
                    assert checker.snapshot(unless=version) == {
                        "version": version,
                        "snapshot": None,
                    }
                    assert reader.is_alive()
                reader.join(timeout=10)

    def test_a_matching_check_is_never_shed(self):
        items, deltas = stream(28, CHUNK)
        server = SketchServer(
            count_min_factory, chunk_size=CHUNK, queue_depth=1, queue_deadline=0.05
        )
        with server.run_in_thread():
            with SketchClient.connect(
                "127.0.0.1", server.port
            ) as checker, SketchClient.connect("127.0.0.1", server.port) as other:
                old = checker.snapshot(unless=None)["version"]
                checker.feed(items, deltas)
                current = checker.snapshot(unless=old)["version"]
                with held(server.engine, "estimate_batch") as entered:
                    reader = threading.Thread(target=other.estimate, args=(PROBE,))
                    reader.start()
                    assert entered.wait(timeout=5)
                    # The held estimate owns the only engine slot: a check
                    # at the current version is answered, one at an older
                    # version needs the engine and is shed.
                    assert checker.snapshot(unless=current)["snapshot"] is None
                    with pytest.raises(ServerBusy, match="retry"):
                        checker.snapshot(unless=old)
                reader.join(timeout=10)
                assert checker.stats()["busy"] == 1

    def test_a_check_never_passes_a_feed_being_applied(self):
        """The ordering the loop-side answer relies on: a feed bumps the
        version before its apply, so while the apply is held a check for
        the version before it waits on the engine thread, then gets the
        post-feed bytes."""
        first, second = stream(29, CHUNK), stream(30, CHUNK)
        reference = serial_reference(
            count_min_factory,
            np.concatenate([first[0], second[0]]),
            np.concatenate([first[1], second[1]]),
        )
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread():
            with SketchClient.connect(
                "127.0.0.1", server.port
            ) as checker, SketchClient.connect("127.0.0.1", server.port) as writer:
                writer.feed(*first)
                before = checker.snapshot(unless=None)["version"]
                replies = []
                with held(server.engine.algorithm, "process_batch") as entered:
                    feeding = threading.Thread(target=writer.feed, args=second)
                    feeding.start()
                    assert entered.wait(timeout=5)
                    checking = threading.Thread(
                        target=lambda: replies.append(checker.snapshot(unless=before))
                    )
                    checking.start()
                    checking.join(timeout=0.3)
                    assert not replies
                feeding.join(timeout=10)
                checking.join(timeout=10)
        (reply,) = replies
        assert reply["version"] != before
        assert reply["snapshot"] == reference.snapshot()


# -- the metrics op and fleet exposition --------------------------------------


class TestServiceTelemetry:
    @pytest.fixture(autouse=True)
    def _force_obs_on(self):
        """These assertions need recording on; force it so the class
        stays meaningful under a ``REPRO_OBS=0`` environment (CI runs
        the service suite in both modes)."""
        registry = obs.get_registry()
        prev = registry.enabled
        registry.enabled = True
        yield
        registry.enabled = prev

    def test_metrics_op_reconciles_with_server_stats(self):
        """Four clients against a 2-shard process fleet: the ``metrics``
        op's merged Prometheus view must reconcile exactly with the
        ``stats`` op's counters and with the updates actually fed."""
        obs.reset()
        items, deltas = stream(11)
        quarter = len(items) // 4
        fed = quarter * 4
        server = SketchServer(
            count_min_factory, num_shards=2, backend="process", chunk_size=CHUNK
        )
        with server.run_in_thread() as srv:
            for k in range(4):
                with SketchClient.connect("127.0.0.1", srv.port) as client:
                    client.feed(
                        items[k * quarter : (k + 1) * quarter],
                        deltas[k * quarter : (k + 1) * quarter],
                    )
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                stats = client.stats()
                payload = client.metrics()
        assert payload["server"] == srv.label
        assert payload["content_type"].startswith("text/plain")
        snapshot = payload["snapshot"]
        assert stats["updates"] == fed
        assert (
            obs.counter_value(
                snapshot, "repro_service_updates_total", server=srv.label
            )
            == fed
        )
        # 4 feed connections plus the stats/metrics one.
        assert stats["connections_total"] == 5
        assert (
            obs.counter_value(
                snapshot, "repro_service_connections_total", server=srv.label
            )
            == 5
        )
        # The fleet-merged sketch counters (worker registries fanned in
        # over the pipes) account for every update the service absorbed.
        assert (
            obs.counter_value(
                snapshot, "repro_sketch_updates_total", sketch="count-min"
            )
            == fed
        )
        line = f'repro_service_updates_total{{server="{srv.label}"}} {fed}'
        assert line in payload["exposition"]

    def test_coordinator_metrics_merges_fleet(self):
        obs.reset()
        items, deltas = stream(12)
        s1 = SketchServer(count_min_factory, chunk_size=CHUNK)
        s2 = SketchServer(count_min_factory, chunk_size=CHUNK)

        async def scenario():
            coordinator = SketchCoordinator(
                count_min_factory,
                [("127.0.0.1", s1.port), ("127.0.0.1", s2.port)],
            )
            await coordinator.connect()
            await coordinator.feed_chunks(
                (items[i : i + CHUNK], deltas[i : i + CHUNK])
                for i in range(0, len(items), CHUNK)
            )
            payload = await coordinator.metrics()
            await coordinator.close()
            return payload

        with s1.run_in_thread(), s2.run_in_thread():
            payload = asyncio.run(scenario())
        assert sorted(payload["servers"]) == sorted([s1.label, s2.label])
        assert payload["content_type"].startswith("text/plain")
        assert "repro_service_updates_total" in payload["exposition"]
        snapshot = payload["snapshot"]
        # Both servers run in this one process and therefore share one
        # registry, so each server's snapshot already carries both
        # server-labeled series and the coordinator's merge doubles them:
        # the two labels sum to exactly 2x the updates the fleet split.
        per_server = [
            obs.counter_value(
                snapshot, "repro_service_updates_total", server=server.label
            )
            for server in (s1, s2)
        ]
        assert all(value > 0 for value in per_server)
        assert sum(per_server) == 2 * len(items)


# -- the async client --------------------------------------------------------


class TestAsyncClient:
    def test_async_feed_estimate_round_trip(self):
        items, deltas = stream(10)
        reference = serial_reference(count_min_factory, items, deltas)
        server = SketchServer(count_min_factory, num_shards=2, chunk_size=CHUNK)
        with server.run_in_thread() as srv:

            async def scenario():
                async with await AsyncSketchClient.connect(
                    "127.0.0.1", srv.port
                ) as client:
                    ack = await client.feed_chunks(
                        (items[i : i + CHUNK], deltas[i : i + CHUNK])
                        for i in range(0, len(items), CHUNK)
                    )
                    assert ack["position"] == len(items)
                    estimates = await client.estimate(PROBE)
                    assert np.array_equal(
                        estimates, reference.estimate_batch(PROBE)
                    )
                    assert (await client.snapshot()) == reference.snapshot()

            asyncio.run(scenario())
