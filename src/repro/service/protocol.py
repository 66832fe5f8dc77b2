"""The sketch service wire protocol: one message schema for every party.

Design
------
Client, server, and coordinator all speak the same length-prefixed frame
format carrying one *message* per frame -- a plain dict with an ``"op"``
key -- encoded with the deterministic value codec the snapshot wire
format already trusts (:func:`repro.distributed.codec.encode_value`).
Reusing that codec means update batches travel as raw little-endian
int64 array bytes (no per-element Python marshalling on the hot path),
big ints survive exactly, and a sketch snapshot is just a ``bytes``
field inside a message -- the construction-fingerprint checks of
:mod:`repro.distributed.codec` keep guarding every snapshot that moves
over a socket, unchanged.

Frame layout::

    MAGIC "RSV1" | u32 payload length (big-endian) | payload =
        encode_value(message dict)

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

Ops
---
``hello``            server identity, API version, sketch class +
                     construction fingerprint, fleet shape
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
                     server mean equal snapshot bytes
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
from typing import Any, Optional

import numpy as np

from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    decode_value,
    encode_value,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "ProtocolError",
    "SequenceGap",
    "ServerBusy",
    "ServiceError",
    "pack_message",
    "unpack_message",
    "read_message",
    "write_message",
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
PROTOCOL_VERSION = 1

#: Frames above this are rejected before any allocation happens.  Large
#: enough for multi-megabyte update batches and merged SIS snapshots,
#: small enough that a corrupt length prefix cannot demand gigabytes.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">4sI")

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


def pack_message(message: dict) -> bytes:
    """One message dict -> one wire frame."""
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("message must be a dict with a string 'op'")
    payload = encode_value(message)
    return _HEADER.pack(MAGIC, len(payload)) + payload


def unpack_message(payload: bytes) -> dict:
    """Decode one frame payload back into a message dict, validated."""
    try:
        message = decode_value(payload)
    except SnapshotError as exc:
        raise ProtocolError(f"frame payload does not decode: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("frame payload is not a message dict")
    return message


def _check_header(header: bytes, max_frame: int) -> int:
    if len(header) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return length


async def read_message(reader, max_frame: int = DEFAULT_MAX_FRAME) -> Optional[dict]:
    """Read one message from an asyncio stream reader.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on anything malformed (including EOF inside a
    frame).
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside a frame header") from None
    length = _check_header(header, max_frame)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed inside a frame payload") from None
    return unpack_message(payload)


async def write_message(writer, message: dict) -> None:
    """Write one message to an asyncio stream writer and drain."""
    writer.write(pack_message(message))
    await writer.drain()


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                "connection closed mid-frame"
                if len(chunks) or remaining != count
                else "connection closed"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Blocking-socket counterpart of :func:`read_message`."""
    length = _check_header(_recv_exact(sock, _HEADER.size), max_frame)
    return unpack_message(_recv_exact(sock, length))


def send_message(sock, message: dict) -> None:
    """Blocking-socket counterpart of :func:`write_message`."""
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

    int64 arrays ride the codec's native ndarray tag; float64 arrays
    (CountSketch/AMS estimates) travel as raw little-endian IEEE bytes --
    bit-identical either way.
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
        return np.frombuffer(packed["data"], dtype="<f8").astype(
            np.float64, copy=True
        )[: packed.get("length")]
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
