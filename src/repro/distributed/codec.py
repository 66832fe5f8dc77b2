"""Canonical wire format for mergeable-sketch snapshots.

Why a bespoke codec
-------------------
The merge protocol's exactness guarantee (``merge`` of shards == one
instance on the whole stream, bit for bit) must survive a process or
machine boundary, which rules out anything lossy or nondeterministic:
pickle ties the bytes to Python internals and executes code on load; JSON
mangles big ints, loses dtypes, and has no bytes type.  This codec
serializes exactly the value shapes sketch state is made of -- arbitrary-
precision ints, floats, strings, bytes, tuples/lists, dicts, and int64 or
object-dtype ndarrays -- with one deterministic byte representation per
value, so equal states produce equal bytes and decoding reproduces the
original objects (including ndarray dtype and shape) exactly.

The snapshot envelope
---------------------
::

    MAGIC "RSKW" | version u8 | class name | fingerprint sha256 |
    payload sha256 | payload = encode(state dict)

*Fingerprint*: sha256 over the class name and the canonical encoding of
``_merge_key()`` -- the same construction fingerprint the in-process merge
protocol checks, so replicas built from different seeds or parameters are
rejected before any state moves.  For the SIS-L0 sketch the merge key
spells out the SIS construction parameters (q, rows/cols, mode, seed), so
the hardness assumption's parameters survive transport: a sketch can only
be restored/merged into an instance holding the *same* SIS instance.

*Payload digest*: sha256 of the encoded state, checked before decoding, so
truncated or corrupted snapshots fail loudly instead of restoring garbage.

Errors: :class:`SnapshotError` for malformed/truncated/corrupted bytes,
:class:`FingerprintMismatch` (a subclass) when the bytes are well-formed
but belong to a differently-constructed sketch.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

import numpy as np

__all__ = [
    "SnapshotError",
    "FingerprintMismatch",
    "encode_into",
    "encode_value",
    "decode_value",
    "construction_fingerprint",
    "snapshot_sketch",
    "restore_sketch",
    "snapshot_class_name",
]

MAGIC = b"RSKW"
VERSION = 1
_DIGEST_BYTES = 32  # sha256


class SnapshotError(ValueError):
    """A snapshot byte string is malformed, truncated, or corrupted."""


class FingerprintMismatch(SnapshotError):
    """Snapshot belongs to a sketch with different construction
    parameters/randomness (or a different class) than the target."""


# -- primitive value codec ---------------------------------------------------
#
# Tagged, length-prefixed encoding.  Tags:
#   N None   T/F bool   i int   f float   s str   b bytes
#   t tuple  l list     d dict  a int64 ndarray   O object ndarray (ints)
#
# Copies: encoding writes every value once into one output bytearray (an
# int64 array's buffer goes straight in, with no ``tobytes``).  Decoding
# walks a memoryview of the input, so no field is sliced into an
# intermediate copy: a ``b`` field costs one copy into its ``bytes`` and
# an int64 array one copy into a fresh owned, writable, aligned array,
# never a view into the input buffer.


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SnapshotError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: memoryview, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SnapshotError("truncated payload (varint)")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 128:
            raise SnapshotError("malformed varint (too long)")


def encode_into(out: bytearray, value: Any) -> None:
    """Append the encoding of ``value`` to ``out`` (see :func:`encode_value`)."""
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        out.append(ord("i"))
        out.append(0 if value >= 0 else 1)
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, float):
        out.append(ord("f"))
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(ord("b"))
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, tuple):
        out.append(ord("t"))
        _write_varint(out, len(value))
        for element in value:
            encode_into(out, element)
    elif isinstance(value, list):
        out.append(ord("l"))
        _write_varint(out, len(value))
        for element in value:
            encode_into(out, element)
    elif isinstance(value, dict):
        out.append(ord("d"))
        _write_varint(out, len(value))
        # Canonical entry order: sort by the keys' own encodings (a total,
        # injective order even for mixed key types).  Insertion order would
        # leak stream history into the bytes -- two replicas holding the
        # identical counts dict via different update orders must snapshot
        # to identical bytes for "equal states, equal bytes" to hold.
        entries = sorted(
            ((encode_value(key), entry) for key, entry in value.items()),
            key=lambda pair: pair[0],
        )
        for raw_key, entry in entries:
            out.extend(raw_key)
            encode_into(out, entry)
    elif isinstance(value, np.ndarray):
        if value.dtype == np.int64:
            out.append(ord("a"))
            _write_varint(out, value.ndim)
            for dim in value.shape:
                _write_varint(out, dim)
            # Fixed little-endian int64 bytes: platform-independent.  The
            # buffer is copied once, straight into ``out``.
            out.extend(np.ascontiguousarray(value, dtype="<i8"))
        elif value.dtype == object:
            out.append(ord("O"))
            _write_varint(out, value.ndim)
            for dim in value.shape:
                _write_varint(out, dim)
            for element in value.ravel().tolist():
                encode_into(out, element)
        else:
            raise SnapshotError(
                f"unsupported ndarray dtype for snapshots: {value.dtype}"
            )
    else:
        raise SnapshotError(
            f"unsupported value type for snapshots: {type(value).__name__}"
        )


def _read_shape(data: memoryview, offset: int) -> tuple[list[int], int, int]:
    ndim, offset = _read_varint(data, offset)
    shape = []
    for _ in range(ndim):
        dim, offset = _read_varint(data, offset)
        shape.append(dim)
    count = 1
    for dim in shape:
        count *= dim
    return shape, count, offset


def _decode_from(data: memoryview, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SnapshotError("truncated payload (missing tag)")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        if offset >= len(data):
            raise SnapshotError("truncated payload (int sign)")
        negative = data[offset] == 1
        offset += 1
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (int magnitude)")
        magnitude = int.from_bytes(data[offset : offset + length], "big")
        return (-magnitude if negative else magnitude), offset + length
    if tag == ord("f"):
        if offset + 8 > len(data):
            raise SnapshotError("truncated payload (float)")
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if tag == ord("s"):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (str)")
        try:
            return str(data[offset : offset + length], "utf-8"), offset + length
        except UnicodeDecodeError:
            raise SnapshotError("malformed payload (str is not UTF-8)") from None
    if tag == ord("b"):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (bytes)")
        return bytes(data[offset : offset + length]), offset + length
    if tag in (ord("t"), ord("l")):
        count, offset = _read_varint(data, offset)
        elements = []
        for _ in range(count):
            element, offset = _decode_from(data, offset)
            elements.append(element)
        return (tuple(elements) if tag == ord("t") else elements), offset
    if tag == ord("d"):
        count, offset = _read_varint(data, offset)
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            entry, offset = _decode_from(data, offset)
            try:
                result[key] = entry
            except TypeError:
                raise SnapshotError("malformed payload (unhashable dict key)") from None
        return result, offset
    if tag == ord("a"):
        shape, count, offset = _read_shape(data, offset)
        end = offset + 8 * count
        if end > len(data):
            raise SnapshotError("truncated payload (int64 ndarray)")
        # The one copy: a fresh native-int64 array that owns its memory.
        array = np.frombuffer(data, dtype="<i8", count=count, offset=offset)
        return array.reshape(shape).astype(np.int64), end
    if tag == ord("O"):
        shape, count, offset = _read_shape(data, offset)
        if count > len(data) - offset:  # every element takes a byte at least
            raise SnapshotError("truncated payload (object ndarray)")
        array = np.empty(count, dtype=object)
        for index in range(count):
            element, offset = _decode_from(data, offset)
            array[index] = element
        return array.reshape(shape), offset
    raise SnapshotError(f"unknown value tag {tag:#x}")


def encode_value(value: Any) -> bytes:
    """Deterministic byte encoding of one plain-data value."""
    out = bytearray()
    encode_into(out, value)
    return bytes(out)


def decode_value(data) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing bytes.

    ``data`` may be any byte buffer (``bytes``, ``bytearray``,
    ``memoryview``); nothing decoded refers to it afterwards.
    """
    data = memoryview(data)
    try:
        value, offset = _decode_from(data, 0)
    except RecursionError:
        raise SnapshotError("malformed payload (nested too deeply)") from None
    if offset != len(data):
        raise SnapshotError(
            f"trailing bytes after value ({len(data) - offset} unread)"
        )
    return value


# -- the snapshot envelope ---------------------------------------------------


def snapshot_class_name(sketch: Any) -> str:
    """The class identity recorded in headers: ``module.QualifiedName``."""
    cls = type(sketch)
    return f"{cls.__module__}.{cls.__qualname__}"


def construction_fingerprint(sketch: Any) -> bytes:
    """sha256 over the class identity and the canonical merge key.

    This is the serialized form of the in-process ``_check_mergeable``
    test: two sketches have equal fingerprints iff they are the same class
    constructed with the same parameters and construction randomness.
    """
    digest = hashlib.sha256()
    digest.update(snapshot_class_name(sketch).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(encode_value(sketch._merge_key()))
    return digest.digest()


def snapshot_sketch(sketch: Any) -> bytes:
    """Serialize one sketch's mutable state (see the module docstring)."""
    state = dict(sketch._snapshot_state())
    if "updates_processed" in state:
        raise SnapshotError(
            "_snapshot_state must not set 'updates_processed'; the envelope "
            "records it"
        )
    state["updates_processed"] = sketch.updates_processed
    out = bytearray()
    out.extend(MAGIC)
    out.append(VERSION)
    name = snapshot_class_name(sketch).encode("utf-8")
    _write_varint(out, len(name))
    out.extend(name)
    out.extend(construction_fingerprint(sketch))
    # The payload is encoded in place after a slot for its digest.
    digest_at = len(out)
    out.extend(bytes(_DIGEST_BYTES))
    encode_into(out, state)
    out[digest_at : digest_at + _DIGEST_BYTES] = hashlib.sha256(
        memoryview(out)[digest_at + _DIGEST_BYTES :]
    ).digest()
    return bytes(out)


def _parse_envelope(data: bytes) -> tuple[str, bytes, memoryview]:
    """Split a snapshot into (class name, fingerprint, payload), verified.

    The payload is a view into ``data``, not a copy.
    """
    data = memoryview(data)
    if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
        raise SnapshotError("not a sketch snapshot (bad magic)")
    offset = len(MAGIC)
    version = data[offset]
    offset += 1
    if version != VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} (expected {VERSION})"
        )
    name_length, offset = _read_varint(data, offset)
    if offset + name_length > len(data):
        raise SnapshotError("truncated snapshot (class name)")
    try:
        name = str(data[offset : offset + name_length], "utf-8")
    except UnicodeDecodeError:
        raise SnapshotError("malformed snapshot (class name)") from None
    offset += name_length
    if offset + 2 * _DIGEST_BYTES > len(data):
        raise SnapshotError("truncated snapshot (digests)")
    fingerprint = bytes(data[offset : offset + _DIGEST_BYTES])
    offset += _DIGEST_BYTES
    payload_digest = bytes(data[offset : offset + _DIGEST_BYTES])
    offset += _DIGEST_BYTES
    payload = data[offset:]
    if hashlib.sha256(payload).digest() != payload_digest:
        raise SnapshotError("snapshot payload corrupted (digest mismatch)")
    return name, fingerprint, payload


def restore_sketch(sketch: Any, data: bytes) -> Any:
    """Replace ``sketch``'s mutable state with a snapshot's, verified.

    Raises :class:`FingerprintMismatch` if the snapshot was taken from a
    different class or a differently-constructed instance, and
    :class:`SnapshotError` on malformed/truncated/corrupted bytes.
    Returns ``sketch``.
    """
    name, fingerprint, payload = _parse_envelope(data)
    expected_name = snapshot_class_name(sketch)
    if name != expected_name:
        raise FingerprintMismatch(
            f"snapshot of {name} cannot restore into {expected_name}"
        )
    if fingerprint != construction_fingerprint(sketch):
        raise FingerprintMismatch(
            f"{expected_name}: snapshot construction fingerprint disagrees; "
            "replicas must be built with identical parameters and seed"
        )
    state = decode_value(payload)
    if not isinstance(state, dict) or "updates_processed" not in state:
        raise SnapshotError("snapshot payload is not a sketch state dict")
    updates_processed = state.pop("updates_processed")
    sketch._restore_state(state)
    sketch.updates_processed = updates_processed
    return sketch
