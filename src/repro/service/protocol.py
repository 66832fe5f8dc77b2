"""The sketch service wire protocol: one message schema for every party.

Design
------
Client, server, and coordinator all speak the same length-prefixed frame
format carrying one *message* per frame -- a plain dict with an ``"op"``
key -- encoded with the deterministic value codec the snapshot wire
format already trusts (:func:`repro.distributed.codec.encode_value`).
Reusing that codec means update batches travel as raw little-endian
integer array bytes (no per-element Python marshalling on the hot path),
big ints survive exactly, and a sketch snapshot is just a ``bytes``
field inside a message -- the construction-fingerprint checks of
:mod:`repro.distributed.codec` keep guarding every snapshot that moves
over a socket, unchanged.

Frame layout::

    MAGIC "RSV1" | u32 payload length (big-endian) | payload =
        encode_value(message dict)

Every int64 array in a payload travels at the narrowest width in
{1, 2, 4, 8} bytes that holds its values and arrives as int64 again: a
feed of items below 2^31 with deltas in +-127 costs 5 bytes an update,
not 16.  The width follows from the values, so equal messages still give
equal frames.  That array encoding is what :data:`PROTOCOL_VERSION` 2
changed; a peer of version 1 could not read it.  The ``hello`` reply
carries the server's ``protocol_version`` and carries no arrays, so the
handshake reads the same in both versions, and a client refuses a server
of another version there (:class:`ProtocolVersionMismatch`) before it
sends a single array.

A frame that fails any structural check -- bad magic, a length above the
negotiated cap, truncated payload, a payload that does not decode to a
dict with a string ``"op"`` -- raises :class:`ProtocolError`; framing
errors are not recoverable mid-stream, so peers close the connection.
Application-level failures (an unknown op, a sketch rejecting an update,
a fingerprint mismatch on a snapshot) travel *inside* the protocol as
error replies and leave the connection usable.

Requests carry a client-assigned ``"id"`` echoed in the reply, so
clients may pipeline many requests before draining acknowledgements --
the server processes each connection's requests in FIFO order.

Copies and the read path
------------------------
:func:`pack_message` reserves the header, encodes the message behind it
into the same buffer and fills the header in: each int64 array is
scanned for its range, and copied into the frame straight from its own
memory at width 8, or cast to its narrow width and that copied in.
:func:`unpack_message` decodes from a view of the received payload: each
int64 array is copied once, out of the frame into a fresh owned int64
array (widened on the way), and each ``bytes`` field once into its
``bytes``.  Every path calls these two functions.  A payload decodes to
at most eight times its own size, so a frame's cap bounds its messages.

The blocking client receives a frame with :func:`recv_message`: the
header, then the payload with ``recv_into`` into one buffer.  The
asyncio peers -- the server and the async client -- read through one
:class:`FrameProtocol`.  It receives small frames into a 64 KiB staging
buffer, several per socket read, and the rest of a larger frame straight
into that frame's own buffer; it pauses reading only while decoded
messages nobody has read yet hold more than :data:`PAUSE_BYTES`.

Memory held for a frame in flight grows with the bytes received, not
with the length its header announces: the header is checked against the
cap first, and a frame's buffer is allocated uninitialised, so only the
pages the socket writes into are committed.

Ops
---
``hello``            server identity, protocol and library versions,
                     sketch class + construction fingerprint, fleet
                     shape
``feed``             one ``(items, deltas)`` int64 update batch;
                     optional ``client`` (opaque id) + ``seq``
                     (contiguous per-client counter) make it
                     exactly-once under reconnect-and-replay: a
                     duplicate seq acks without re-applying, a gap is
                     rejected with :class:`SequenceGap` before the
                     engine sees it
``estimate``         batched point queries (``items`` int64 array)
``query``            the sketch family's native query (``kind="f2"``
                     routes to ``f2_estimate``; default heavy-hitter /
                     family query)
``snapshot``         wire-format snapshot of the merged state; with an
                     ``unless`` field (a state version from an earlier
                     reply, or ``None``) the reply is ``{"version",
                     "snapshot"}`` and ``snapshot`` is ``None`` when the
                     state is still at version ``unless``.  A version
                     is ``(epoch, mutations)``: a random per-server-
                     instance epoch and a count of applied feeds and
                     ``load_snapshot`` calls, so equal versions from one
                     server mean equal snapshot bytes.  The server
                     answers a check at its current version from its
                     event loop, without queueing behind the engine
``load_snapshot``    restore a snapshot into the fleet (recovery)
``checkpoint``       force a checkpoint write now
``stats`` / ``ping`` liveness + operational monitoring counters
``metrics``          obs-registry snapshot + Prometheus exposition text
                     (fleet-merged telemetry; see :mod:`repro.obs`)
``alerts``           current alert-rule states from the server's
                     :class:`~repro.obs.alerts.AlertEngine` (evaluated
                     on request; empty when no engine is attached) --
                     the coordinator merges these into the fleet view
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    decode_value,
    encode_into,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "ProtocolError",
    "ProtocolVersionMismatch",
    "SequenceGap",
    "ServerBusy",
    "ServiceError",
    "pack_message",
    "unpack_message",
    "FrameProtocol",
    "recv_message",
    "send_message",
    "make_request",
    "make_reply",
    "make_error_reply",
    "raise_for_reply",
    "pack_array",
    "unpack_array",
    "sanitize_value",
]

MAGIC = b"RSV1"
PROTOCOL_VERSION = 2

#: Frames above this are rejected before any allocation happens.  Large
#: enough for multi-megabyte update batches and merged SIS snapshots,
#: small enough that a corrupt length prefix cannot demand gigabytes.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">4sI")

#: The asyncio reader's staging buffer: frames up to this size (header
#: included) are received into it, several per socket read.
STAGING_BYTES = 64 * 1024

#: The asyncio reader pauses the transport while decoded, unconsumed
#: messages hold more payload bytes than this (``StreamReader``'s rule).
PAUSE_BYTES = 2 * STAGING_BYTES

#: Ops a server accepts (everything else is an application-level error).
REQUEST_OPS = frozenset(
    {
        "hello",
        "feed",
        "estimate",
        "query",
        "snapshot",
        "load_snapshot",
        "checkpoint",
        "stats",
        "ping",
        "metrics",
        "alerts",
    }
)


class ProtocolError(ValueError):
    """A frame is structurally invalid; the connection cannot continue."""


class ProtocolVersionMismatch(RuntimeError):
    """The server speaks another :data:`PROTOCOL_VERSION`.

    A client's ``hello`` handshake raises it after closing the
    connection.  It is neither an :class:`OSError` nor a
    :class:`ProtocolError`, so no reconnect or resend loop retries into
    a peer that would misread the first array sent to it.
    """

    def __init__(self, server_version: Any) -> None:
        super().__init__(
            f"server speaks protocol version {server_version!r}, this "
            f"client speaks {PROTOCOL_VERSION}"
        )
        self.server_version = server_version


class ServiceError(RuntimeError):
    """A well-formed request failed on the server.

    Carries the server-side exception class name in ``kind`` so clients
    can distinguish e.g. a fingerprint rejection from a bad op.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServerBusy(ServiceError):
    """The server shed this request: its engine queue stayed saturated
    past the configured queue deadline.  Retryable by construction --
    the request was rejected *before* touching the engine, so resending
    it later is safe (and sequenced feeds stay exactly-once)."""

    def __init__(self, message: str) -> None:
        RuntimeError.__init__(self, message)
        self.kind = "ServerBusy"


class SequenceGap(ServiceError):
    """A sequenced feed skipped ahead of the server's contiguity window.

    The server applies each client's feeds in contiguous ``seq`` order:
    a gap means an earlier feed failed (shed, or lost with its
    connection) while a later one arrived.  Rejecting the later one --
    again before the engine -- keeps every client's failure set a
    contiguous suffix, which is what makes retransmit-all-pending
    exactly-once.
    """

    def __init__(self, message: str) -> None:
        RuntimeError.__init__(self, message)
        self.kind = "SequenceGap"


# -- framing -----------------------------------------------------------------


def pack_message(message: dict) -> bytearray:
    """One message dict -> one wire frame.

    The header is reserved first and filled in once the payload is
    encoded behind it, so the frame is built in one buffer.
    """
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("message must be a dict with a string 'op'")
    frame = bytearray(_HEADER.size)
    encode_into(frame, message)
    _HEADER.pack_into(frame, 0, MAGIC, len(frame) - _HEADER.size)
    return frame


def unpack_message(payload) -> dict:
    """Decode one frame payload (any byte buffer) into a message dict,
    validated."""
    try:
        message = decode_value(payload)
    except SnapshotError as exc:
        raise ProtocolError(f"frame payload does not decode: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("frame payload is not a message dict")
    return message


def _check_header(header, max_frame: int, offset: int = 0) -> int:
    magic, length = _HEADER.unpack_from(header, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return length


def _frame_buffer(length: int) -> np.ndarray:
    """An uninitialised buffer for one frame payload.

    Nothing is written to it up front, so the pages it commits grow with
    the bytes received into it, not with the length a header announces.
    """
    return np.empty(length, dtype=np.uint8)


def _expire(waiter: asyncio.Future) -> None:
    """A read's timer: fail its wait unless a frame or an ending came first."""
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


class FrameProtocol(asyncio.BufferedProtocol):
    """The asyncio end of one RSV1 connection: reads frames, writes frames.

    The server and :class:`~repro.service.client.AsyncSketchClient` both
    use it (the module docstring describes its buffers).  Each frame is
    decoded as soon as it is complete and queued for :meth:`read`, which
    raises a framing error, or a connection lost mid-frame, only after
    the messages decoded before it.  ``connected`` is called with the
    protocol once the connection is made.
    """

    def __init__(
        self,
        max_frame: int = DEFAULT_MAX_FRAME,
        connected: Optional[Callable[["FrameProtocol"], None]] = None,
    ) -> None:
        self.max_frame = max_frame
        self._connected = connected
        self.transport: Optional[asyncio.Transport] = None
        self._staging = bytearray(STAGING_BYTES)
        self._view = memoryview(self._staging)
        #: Unparsed bytes are ``_staging[_start:_end]``.
        self._start = self._end = 0
        #: The payload buffer of a frame too large for the staging
        #: buffer, and how much of it has arrived.
        self._frame: Optional[np.ndarray] = None
        self._filled = 0
        self._messages: deque[tuple[dict, int]] = deque()
        self._queued = 0
        self._paused = False
        #: Raised by :meth:`read` once the queue is empty.
        self._error: Optional[BaseException] = None
        self._eof = False
        self._waiter: Optional[asyncio.Future] = None
        self._drain: Optional[asyncio.Future] = None
        self._write_paused = False
        self._closed: Optional[asyncio.Future] = None

    # -- asyncio callbacks ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._closed = asyncio.get_running_loop().create_future()
        if self._connected is not None:
            self._connected(self)

    def get_buffer(self, sizehint: int):
        if self._frame is not None:
            return memoryview(self._frame)[self._filled :]
        if self._end == STAGING_BYTES:
            # A partial frame at the end: move it to the front.
            self._staging[: self._end - self._start] = self._staging[
                self._start : self._end
            ]
            self._start, self._end = 0, self._end - self._start
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._error is not None:
            return
        if self._frame is not None:
            self._filled += nbytes
            if self._filled == len(self._frame):
                frame, self._frame = self._frame, None
                self._deliver(memoryview(frame))
            return
        self._end += nbytes
        view = self._view
        while self._error is None and self._end - self._start >= _HEADER.size:
            try:
                length = _check_header(view, self.max_frame, self._start)
            except ProtocolError as exc:
                self._fail(exc)
                return
            begin = self._start + _HEADER.size
            if _HEADER.size + length > STAGING_BYTES:
                # Too large to stage: copy what arrived into the frame's
                # own buffer, and receive the rest straight into it.
                self._frame = _frame_buffer(length)
                self._filled = self._end - begin
                self._frame[: self._filled] = view[begin : self._end]
                self._start = self._end = 0
                return
            if self._end - begin < length:
                break
            self._start = begin + length
            self._deliver(view[begin : self._start])
        if self._start == self._end:
            self._start = self._end = 0

    def eof_received(self) -> bool:
        self._lose(None)
        return True  # stay open: replies to requests read may still go out

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lose(exc)
        if self._closed is not None and not self._closed.done():
            self._closed.set_result(None)
        if self._drain is not None and not self._drain.done():
            self._drain.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._drain is not None and not self._drain.done():
            self._drain.set_result(None)

    # -- frames in -----------------------------------------------------------

    def _deliver(self, payload: memoryview) -> None:
        try:
            message = unpack_message(payload)
        except ProtocolError as exc:
            self._fail(exc)
            return
        self._messages.append((message, len(payload)))
        self._queued += len(payload)
        if self._queued > PAUSE_BYTES and not self._paused:
            self._paused = True
            self.transport.pause_reading()
        self._wake()

    def _fail(self, exc: BaseException) -> None:
        """End the stream: no frame after this one is read."""
        if self._error is None and not self._eof:
            self._error = exc
            self._frame = None
            self._start = self._end = 0
            if self.transport is not None and not self._paused:
                self._paused = True
                self.transport.pause_reading()
        self._wake()

    def _lose(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            self._fail(exc)
        elif self._frame is not None or self._end - self._start >= _HEADER.size:
            self._fail(ProtocolError("connection closed inside a frame payload"))
        elif self._end > self._start:
            self._fail(ProtocolError("connection closed inside a frame header"))
        elif self._error is None:
            self._eof = True
            self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def read(self, timeout: Optional[float] = None) -> Optional[dict]:
        """The next message; ``None`` on a clean EOF at a frame boundary.

        Raises :class:`ProtocolError` on a malformed frame or an EOF
        inside one, the transport's error when the connection is lost,
        and :class:`asyncio.TimeoutError` when no message arrives within
        ``timeout`` seconds (``None`` waits for ever).
        """
        while not self._messages:
            if self._error is not None:
                raise self._error
            if self._eof:
                return None
            loop = asyncio.get_running_loop()
            self._waiter = waiter = loop.create_future()
            # A loop timer on the reader's own future, not ``wait_for``:
            # from Python 3.12 that cancels the running task, which under
            # the client's ``fan_out`` is the caller's.
            timer = None if timeout is None else loop.call_later(timeout, _expire, waiter)
            try:
                await waiter
            finally:
                self._waiter = None
                if timer is not None:
                    timer.cancel()
        message, size = self._messages.popleft()
        self._queued -= size
        if self._paused and self._queued <= PAUSE_BYTES and self._error is None:
            self._paused = False
            self.transport.resume_reading()
        return message

    # -- frames out ----------------------------------------------------------

    async def write(self, message: dict) -> None:
        """Send one message, waiting while the transport's buffer is full."""
        if self._closed is None or self._closed.done():
            raise ConnectionResetError("connection lost")
        self.transport.write(pack_message(message))
        while self._write_paused and not self._closed.done():
            self._drain = asyncio.get_running_loop().create_future()
            try:
                await self._drain
            finally:
                self._drain = None
        if self._closed.done():
            raise ConnectionResetError("connection lost")

    async def close(self) -> None:
        """Close the connection and wait until it is gone."""
        if self.transport is not None:
            self.transport.close()
            await asyncio.shield(self._closed)


def _recv_into(sock, view: memoryview, in_frame: bool) -> None:
    filled = 0
    while filled < len(view):
        count = sock.recv_into(view[filled:])
        if not count:
            raise ProtocolError(
                "connection closed mid-frame"
                if in_frame or filled
                else "connection closed"
            )
        filled += count


def recv_message(sock, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Read one message from a blocking socket, one buffer per frame."""
    header = bytearray(_HEADER.size)
    _recv_into(sock, memoryview(header), False)
    payload = memoryview(_frame_buffer(_check_header(header, max_frame)))
    _recv_into(sock, payload, True)
    return unpack_message(payload)


def send_message(sock, message: dict) -> None:
    """Write one message to a blocking socket."""
    sock.sendall(pack_message(message))


# -- message constructors ----------------------------------------------------


def make_request(op: str, request_id: int, **fields: Any) -> dict:
    """A request message (``op`` + echoed ``id`` + op-specific fields)."""
    message = {"op": op, "id": int(request_id)}
    message.update(fields)
    return message


def make_reply(request_id: Any, result: Any) -> dict:
    """A success reply echoing the request id."""
    return {"op": "reply", "id": request_id, "ok": True, "result": result}


def make_error_reply(request_id: Any, exc: BaseException) -> dict:
    """A failure reply carrying the exception class name and message."""
    return {
        "op": "reply",
        "id": request_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def raise_for_reply(message: dict, request_id: int) -> Any:
    """Validate a reply and return its result, re-raising server errors.

    Fingerprint rejections come back as
    :class:`~repro.distributed.codec.FingerprintMismatch` (and malformed
    snapshots as :class:`~repro.distributed.codec.SnapshotError`) so
    callers handle wire rejections exactly like local ones; everything
    else raises :class:`ServiceError`.
    """
    if message.get("op") != "reply":
        raise ProtocolError(f"expected a reply, got op {message.get('op')!r}")
    if message.get("id") != request_id:
        raise ProtocolError(
            f"reply id {message.get('id')!r} does not match request "
            f"{request_id} (stream desynchronized)"
        )
    if message.get("ok"):
        return message.get("result")
    kind = str(message.get("error", "ServiceError"))
    text = str(message.get("message", ""))
    if kind == "FingerprintMismatch":
        raise FingerprintMismatch(text)
    if kind == "SnapshotError":
        raise SnapshotError(text)
    if kind == "ServerBusy":
        raise ServerBusy(text)
    if kind == "SequenceGap":
        raise SequenceGap(text)
    raise ServiceError(kind, text)


# -- value helpers -----------------------------------------------------------


def pack_array(array: np.ndarray) -> dict:
    """An estimate-result array as codec-friendly exact bytes.

    int64 arrays ride the codec's int64 ndarray encoding (narrowed on
    the wire, int64 again on arrival); float64 arrays (CountSketch/AMS
    estimates) travel as raw little-endian IEEE bytes -- bit-identical
    either way.
    """
    array = np.asarray(array)
    if array.dtype == np.int64:
        return {"kind": "i8", "data": array}
    if array.dtype == np.float64:
        return {
            "kind": "f8",
            "data": np.ascontiguousarray(array, dtype="<f8").tobytes(),
            "length": int(array.size),
        }
    raise ProtocolError(f"unsupported estimate dtype {array.dtype}")


def unpack_array(packed: Any) -> np.ndarray:
    """Inverse of :func:`pack_array`."""
    if not isinstance(packed, dict) or "kind" not in packed:
        raise ProtocolError("malformed packed array")
    if packed["kind"] == "i8":
        data = packed["data"]
        if not isinstance(data, np.ndarray) or data.dtype != np.int64:
            raise ProtocolError("packed i8 array carries no int64 data")
        return data
    if packed["kind"] == "f8":
        data = packed["data"]
        if (
            not isinstance(data, bytes)
            or len(data) % 8
            or packed.get("length") != len(data) // 8
        ):
            raise ProtocolError(
                "packed f8 array needs bytes of 8 per element, as many "
                "elements as its 'length'"
            )
        return np.frombuffer(data, dtype="<f8").astype(np.float64)
    raise ProtocolError(f"unknown packed-array kind {packed['kind']!r}")


def sanitize_value(value: Any) -> Any:
    """Fold numpy scalars/arrays into codec-encodable plain values.

    Query answers (heavy-hitter dicts, float F2 estimates, int L0
    counts) may carry numpy scalar types; the codec only speaks plain
    Python values plus int64/object ndarrays.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        if value.dtype == np.int64 or value.dtype == object:
            return value
        return pack_array(value)
    if isinstance(value, dict):
        return {sanitize_value(k): sanitize_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(sanitize_value(v) for v in value)
    if isinstance(value, list):
        return [sanitize_value(v) for v in value]
    return value
