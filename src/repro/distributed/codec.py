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

An int64 array travels at the narrowest little-endian width in
{1, 2, 4, 8} bytes that holds its values, and decodes back to int64.
The width is a function of the values alone, so the representation stays
canonical: in the paper's model an update is ``(i, delta)`` with both
bounded by poly(n), so update batches and counter tables rarely need
all eight bytes.

Every request and reply crosses this codec twice, so its per-value cost
is a fixed cost of every fleet round.  The encoder branches on a value's
exact type, most frequent first (str, int, dict, None, bool, tuple and
list, ndarray, bytes, float); anything else -- an ``np.integer`` scalar,
``np.float64``, a subclass such as a namedtuple or an ``IntEnum`` --
goes through ``isinstance`` tests and is written as its base type is.
A dict whose keys are all protocol field names is ordered by a rank
precomputed from those names' encodings; any other dict sorts its
entries by key encoding.  A length below 0x80 is its own one-byte
varint, written and read inline, and the decoder finds each tag's
reader in a 256-entry table.  These are shortcuts, not rules: the
grammar is the one below, and every value gets the bytes the general
rules give it.  ``tests/test_codec_differential.py`` checks the encoder
and decoder against a reference with no shortcuts, value by value and
on truncated, flipped and extended payloads.

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
VERSION = 2
#: Envelope versions :func:`restore_sketch` reads.  Version 1 payloads
#: wrote every int64 array at width 8, which version 2 decodes as is.
_READABLE_VERSIONS = (1, 2)
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
#   t tuple  l list     d dict  O object ndarray (ints)
#   a int64 ndarray, 8 bytes per element
#   n int64 ndarray, narrow: a width byte (1, 2 or 4) before the shape
#
# An int64 array is written at the narrowest width whose signed range
# holds its [min, max]: ``n`` for widths 1, 2 and 4, ``a`` for width 8 and
# for an empty array.  Any other width byte is malformed.
#
# Copies: encoding writes every value once into one output bytearray (an
# int64 array's buffer goes straight in, with no ``tobytes``; a narrow
# one is cast once and then copied in).  Decoding walks a memoryview of
# the input, so no field is sliced into an intermediate copy: a ``b``
# field costs one copy into its ``bytes`` and an int64 array, narrow or
# not, one copy into a fresh owned, writable, aligned int64 array, never
# a view into the input buffer.  A payload byte decodes to at most eight
# bytes of array.  Every read past the end raises ``SnapshotError``.

_NONE, _TRUE, _FALSE = ord("N"), ord("T"), ord("F")
_INT, _FLOAT, _STR, _BYTES = ord("i"), ord("f"), ord("s"), ord("b")
_TUPLE, _LIST, _DICT = ord("t"), ord("l"), ord("d")
_INT64_ARRAY, _NARROW_ARRAY, _OBJECT_ARRAY = ord("a"), ord("n"), ord("O")

_INT64 = np.dtype("<i8")
_DOUBLE = struct.Struct(">d")

#: ``(dtype, lowest, highest)`` per narrow width, narrowest first; built
#: once, because a dtype made from a string costs per call.
_NARROW = tuple(
    (np.dtype(f"<i{width}"), -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1)
    for width in (1, 2, 4)
)
_NARROW_DTYPES = {dtype.itemsize: dtype for dtype, _, _ in _NARROW}
_minimum, _maximum = np.minimum.reduce, np.maximum.reduce

#: The dict keys wire messages and replies carry on every request.  Their
#: encodings are made once, below :func:`encode_value`, with each name's
#: rank in the canonical (encoding) order, so a dict keyed by field names
#: alone is ordered by rank; any other key is encoded afresh.
_FIELD_NAMES = (
    "op", "id", "ok", "result", "error", "message",
    "items", "deltas", "client", "seq", "unless", "version", "snapshot",
    "count", "position", "duplicate", "kind", "data", "length", "pong",
)


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
    kind = type(value)
    if kind is str:
        raw = value.encode()
        out.append(_STR)
        size = len(raw)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += raw
    elif kind is int:
        out.append(_INT)
        if value < 0:
            out.append(1)
            value = -value
        else:
            out.append(0)
        size = (value.bit_length() + 7) >> 3 or 1
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += value.to_bytes(size, "big")
    elif kind is dict:
        out.append(_DICT)
        size = len(value)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        try:
            keys = sorted(value, key=_field_rank)
        except KeyError:  # a key that is not a field name
            _encode_entries(out, value)
        else:
            for key in keys:
                out += _KEY_ENCODINGS[key]
                encode_into(out, value[key])
    elif value is None:
        out.append(_NONE)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is tuple or kind is list:
        out.append(_TUPLE if kind is tuple else _LIST)
        size = len(value)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        for element in value:
            encode_into(out, element)
    elif kind is np.ndarray:
        _encode_ndarray(out, value)
    elif kind is bytes or kind is bytearray:
        out.append(_BYTES)
        size = len(value)
        if size < 0x80:
            out.append(size)
        else:
            _write_varint(out, size)
        out += value
    elif kind is float:
        out.append(_FLOAT)
        out += _DOUBLE.pack(value)
    else:
        _encode_instance(out, value)


def _encode_instance(out: bytearray, value: Any) -> None:
    """The values whose exact type :func:`encode_into` does not list,
    matched by ``isinstance`` and written as their base type is."""
    if isinstance(value, (int, np.integer)):
        encode_into(out, int(value))
    elif isinstance(value, float):
        out.append(_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_STR)
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_BYTES)
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, (tuple, list)):
        out.append(_TUPLE if isinstance(value, tuple) else _LIST)
        _write_varint(out, len(value))
        for element in value:
            encode_into(out, element)
    elif isinstance(value, dict):
        out.append(_DICT)
        _write_varint(out, len(value))
        _encode_entries(out, value)
    elif isinstance(value, np.ndarray):
        _encode_ndarray(out, value)
    else:
        raise SnapshotError(
            f"unsupported value type for snapshots: {type(value).__name__}"
        )


def _encode_entries(out: bytearray, value: dict) -> None:
    # Canonical entry order: sort by the keys' own encodings (a total,
    # injective order even for mixed key types).  Insertion order would
    # leak stream history into the bytes -- two replicas holding the
    # identical counts dict via different update orders must snapshot
    # to identical bytes for "equal states, equal bytes" to hold.
    entries = sorted(
        ((_key_encoding(key), entry) for key, entry in value.items()),
        key=_first,
    )
    for raw_key, entry in entries:
        out += raw_key
        encode_into(out, entry)


def _first(pair: tuple) -> Any:
    return pair[0]


def _key_encoding(key: Any) -> bytes:
    if type(key) is str:
        raw = _KEY_ENCODINGS.get(key)
        if raw is not None:
            return raw
    return encode_value(key)


def _encode_ndarray(out: bytearray, value: np.ndarray) -> None:
    if value.dtype == np.int64:
        _encode_int64_array(out, value)
    elif value.dtype == object:
        out.append(_OBJECT_ARRAY)
        _write_shape(out, value)
        for element in value.ravel().tolist():
            encode_into(out, element)
    else:
        raise SnapshotError(
            f"unsupported ndarray dtype for snapshots: {value.dtype}"
        )


def _write_shape(out: bytearray, value: np.ndarray) -> None:
    _write_varint(out, value.ndim)
    for dim in value.shape:
        _write_varint(out, dim)


def _encode_int64_array(out: bytearray, value: np.ndarray) -> None:
    """Little-endian bytes at the narrowest width that holds the values."""
    if value.size:
        # The reductions themselves: ``ndarray.min`` wraps them in a
        # Python-level call that costs more than a small array's scan.
        low, high = _minimum(value, None), _maximum(value, None)
        for dtype, lowest, highest in _NARROW:
            if lowest <= low and high <= highest:
                out.append(_NARROW_ARRAY)
                out.append(dtype.itemsize)
                _write_shape(out, value)
                out.extend(value.astype(dtype, order="C"))
                return
    out.append(_INT64_ARRAY)
    _write_shape(out, value)
    # Fixed little-endian bytes: platform-independent.  The buffer is
    # copied once, straight into ``out``.
    out.extend(np.ascontiguousarray(value, dtype=_INT64))


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


def _shaped(array: np.ndarray, shape: list[int]) -> np.ndarray:
    try:
        return array.reshape(shape)
    except ValueError:  # more dimensions, or a larger one, than numpy takes
        raise SnapshotError(f"malformed payload (ndarray shape {shape})") from None


def _read_int64_array(
    data: memoryview, offset: int, dtype: np.dtype
) -> tuple[np.ndarray, int]:
    shape, count, offset = _read_shape(data, offset)
    end = offset + dtype.itemsize * count
    if end > len(data):
        raise SnapshotError(f"truncated payload (int64 ndarray at width {dtype.itemsize})")
    # The one copy: a fresh native-int64 array that owns its memory.
    array = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return _shaped(array, shape).astype(np.int64), end


# One reader per tag: ``reader(data, offset)`` takes the offset just past
# the tag and returns ``(value, offset past the value)``.  Containers look
# their elements' readers up themselves, so each nesting level costs one
# frame of the interpreter's recursion limit.


def _decode_from(data: memoryview, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SnapshotError("truncated payload (missing tag)")
    return _READERS[data[offset]](data, offset + 1)


def _read_str(data: memoryview, offset: int) -> tuple[str, int]:
    try:
        length = data[offset]
    except IndexError:
        raise SnapshotError("truncated payload (varint)") from None
    if length < 0x80:
        offset += 1
    else:
        length, offset = _read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SnapshotError("truncated payload (str)")
    try:
        return str(data[offset:end], "utf-8"), end
    except UnicodeDecodeError:
        raise SnapshotError("malformed payload (str is not UTF-8)") from None


def _read_int(data: memoryview, offset: int) -> tuple[int, int]:
    try:
        negative = data[offset] == 1
        length = data[offset + 1]
    except IndexError:
        if offset >= len(data):
            raise SnapshotError("truncated payload (int sign)") from None
        raise SnapshotError("truncated payload (varint)") from None
    if length < 0x80:
        offset += 2
    else:
        length, offset = _read_varint(data, offset + 1)
    end = offset + length
    if end > len(data):
        raise SnapshotError("truncated payload (int magnitude)")
    magnitude = int.from_bytes(data[offset:end], "big")
    return (-magnitude if negative else magnitude), end


def _read_dict(data: memoryview, offset: int) -> tuple[dict, int]:
    try:
        count = data[offset]
    except IndexError:
        raise SnapshotError("truncated payload (varint)") from None
    if count < 0x80:
        offset += 1
    else:
        count, offset = _read_varint(data, offset)
    size = len(data)
    result: dict[Any, Any] = {}
    for _ in range(count):
        if offset >= size:
            raise SnapshotError("truncated payload (missing tag)")
        key, offset = _READERS[data[offset]](data, offset + 1)
        if offset >= size:
            raise SnapshotError("truncated payload (missing tag)")
        entry, offset = _READERS[data[offset]](data, offset + 1)
        try:
            result[key] = entry
        except TypeError:
            raise SnapshotError("malformed payload (unhashable dict key)") from None
    return result, offset


def _read_sequence(data: memoryview, offset: int) -> tuple[Any, int]:
    """A tuple or a list, by the tag just before ``offset``."""
    tag = data[offset - 1]
    try:
        count = data[offset]
    except IndexError:
        raise SnapshotError("truncated payload (varint)") from None
    if count < 0x80:
        offset += 1
    else:
        count, offset = _read_varint(data, offset)
    size = len(data)
    elements = []
    for _ in range(count):
        if offset >= size:
            raise SnapshotError("truncated payload (missing tag)")
        element, offset = _READERS[data[offset]](data, offset + 1)
        elements.append(element)
    return (tuple(elements) if tag == _TUPLE else elements), offset


def _read_bytes(data: memoryview, offset: int) -> tuple[bytes, int]:
    try:
        length = data[offset]
    except IndexError:
        raise SnapshotError("truncated payload (varint)") from None
    if length < 0x80:
        offset += 1
    else:
        length, offset = _read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SnapshotError("truncated payload (bytes)")
    return bytes(data[offset:end]), end


def _read_float(data: memoryview, offset: int) -> tuple[float, int]:
    if offset + 8 > len(data):
        raise SnapshotError("truncated payload (float)")
    return _DOUBLE.unpack_from(data, offset)[0], offset + 8


def _read_narrow_array(data: memoryview, offset: int) -> tuple[np.ndarray, int]:
    if offset >= len(data):
        raise SnapshotError("truncated payload (ndarray width)")
    dtype = _NARROW_DTYPES.get(data[offset])
    if dtype is None:
        raise SnapshotError(
            f"malformed payload (ndarray width {data[offset]}, not 1, 2 or 4)"
        )
    return _read_int64_array(data, offset + 1, dtype)


def _read_wide_array(data: memoryview, offset: int) -> tuple[np.ndarray, int]:
    return _read_int64_array(data, offset, _INT64)


def _read_object_array(data: memoryview, offset: int) -> tuple[np.ndarray, int]:
    shape, count, offset = _read_shape(data, offset)
    if count > len(data) - offset:  # every element takes a byte at least
        raise SnapshotError("truncated payload (object ndarray)")
    size = len(data)
    array = np.empty(count, dtype=object)
    for index in range(count):
        if offset >= size:
            raise SnapshotError("truncated payload (missing tag)")
        array[index], offset = _READERS[data[offset]](data, offset + 1)
    return _shaped(array, shape), offset


def _read_unknown(data: memoryview, offset: int) -> tuple[Any, int]:
    raise SnapshotError(f"unknown value tag {data[offset - 1]:#x}")


_READERS = [_read_unknown] * 256
_READERS[_NONE] = lambda data, offset: (None, offset)
_READERS[_TRUE] = lambda data, offset: (True, offset)
_READERS[_FALSE] = lambda data, offset: (False, offset)
_READERS[_INT] = _read_int
_READERS[_FLOAT] = _read_float
_READERS[_STR] = _read_str
_READERS[_BYTES] = _read_bytes
_READERS[_TUPLE] = _read_sequence
_READERS[_LIST] = _read_sequence
_READERS[_DICT] = _read_dict
_READERS[_INT64_ARRAY] = _read_wide_array
_READERS[_NARROW_ARRAY] = _read_narrow_array
_READERS[_OBJECT_ARRAY] = _read_object_array
_READERS = tuple(_READERS)


def encode_value(value: Any) -> bytes:
    """Deterministic byte encoding of one plain-data value."""
    out = bytearray()
    encode_into(out, value)
    return bytes(out)


_KEY_ENCODINGS = {name: encode_value(name) for name in _FIELD_NAMES}
_field_rank = {
    name: rank
    for rank, name in enumerate(sorted(_FIELD_NAMES, key=_KEY_ENCODINGS.__getitem__))
}.__getitem__


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
    if version not in _READABLE_VERSIONS:
        raise SnapshotError(
            f"unsupported snapshot version {version} (reads "
            f"{', '.join(map(str, _READABLE_VERSIONS))})"
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
