"""The value codec against its previous implementation, value by value.

The wire codec (:mod:`repro.distributed.codec`) was rewritten for speed
under one rule: the same bytes, the same decoded values and the same
errors.  The previous ``encode_into``, ``_decode_from`` and
``decode_value`` are kept below, verbatim with the helpers and constants
they use, as the reference.  Hypothesis draws values across every tag
-- ints of both signs and past 2**64, str and bytes on both sides of a
one-byte length, tuples, lists, dicts keyed by protocol field names, by
other str, by ints and by a mix, int64 arrays at every width (empty and
2-D too) and object arrays -- and checks that both encoders write
identical bytes and both decoders return equal values.  Truncated,
byte-flipped and extended payloads must meet the same outcome from both:
an equal value, or a ``SnapshotError`` with the same message.
"""

import math
import struct
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.distributed import codec
from repro.distributed.codec import SnapshotError

# -- the reference: the previous value codec, verbatim ---------------------

_NONE, _TRUE, _FALSE = ord("N"), ord("T"), ord("F")
_INT, _FLOAT, _STR, _BYTES = ord("i"), ord("f"), ord("s"), ord("b")
_TUPLE, _LIST, _DICT = ord("t"), ord("l"), ord("d")
_INT64_ARRAY, _NARROW_ARRAY, _OBJECT_ARRAY = ord("a"), ord("n"), ord("O")

_INT64 = np.dtype("<i8")

#: ``(dtype, lowest, highest)`` per narrow width, narrowest first; built
#: once, because a dtype made from a string costs per call.
_NARROW = tuple(
    (np.dtype(f"<i{width}"), -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1)
    for width in (1, 2, 4)
)
_NARROW_DTYPES = {dtype.itemsize: dtype for dtype, _, _ in _NARROW}
_minimum, _maximum = np.minimum.reduce, np.maximum.reduce

#: The dict keys wire messages and replies carry on every request; their
#: encodings are made once (below :func:`encode_value`) and looked up
#: when a dict's entries are sorted.  Any other key is encoded afresh.
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
    if value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        out.append(_INT)
        out.append(0 if value >= 0 else 1)
        magnitude = abs(value)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, float):
        out.append(_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, tuple):
        out.append(_TUPLE)
        _write_varint(out, len(value))
        for element in value:
            encode_into(out, element)
    elif isinstance(value, list):
        out.append(_LIST)
        _write_varint(out, len(value))
        for element in value:
            encode_into(out, element)
    elif isinstance(value, dict):
        out.append(_DICT)
        _write_varint(out, len(value))
        # Canonical entry order: sort by the keys' own encodings (a total,
        # injective order even for mixed key types).  Insertion order would
        # leak stream history into the bytes -- two replicas holding the
        # identical counts dict via different update orders must snapshot
        # to identical bytes for "equal states, equal bytes" to hold.
        entries = sorted(
            ((_key_encoding(key), entry) for key, entry in value.items()),
            key=lambda pair: pair[0],
        )
        for raw_key, entry in entries:
            out.extend(raw_key)
            encode_into(out, entry)
    elif isinstance(value, np.ndarray):
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
    else:
        raise SnapshotError(
            f"unsupported value type for snapshots: {type(value).__name__}"
        )


def _key_encoding(key: Any) -> bytes:
    if type(key) is str:
        raw = _KEY_ENCODINGS.get(key)
        if raw is not None:
            return raw
    return encode_value(key)


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


def _decode_from(data: memoryview, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SnapshotError("truncated payload (missing tag)")
    tag = data[offset]
    offset += 1
    # Tags in rough order of frequency on the wire.
    if tag == _STR:
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (str)")
        try:
            return str(data[offset : offset + length], "utf-8"), offset + length
        except UnicodeDecodeError:
            raise SnapshotError("malformed payload (str is not UTF-8)") from None
    if tag == _INT:
        if offset >= len(data):
            raise SnapshotError("truncated payload (int sign)")
        negative = data[offset] == 1
        offset += 1
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (int magnitude)")
        magnitude = int.from_bytes(data[offset : offset + length], "big")
        return (-magnitude if negative else magnitude), offset + length
    if tag == _DICT:
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
    if tag == _NARROW_ARRAY:
        if offset >= len(data):
            raise SnapshotError("truncated payload (ndarray width)")
        dtype = _NARROW_DTYPES.get(data[offset])
        if dtype is None:
            raise SnapshotError(
                f"malformed payload (ndarray width {data[offset]}, not 1, 2 or 4)"
            )
        return _read_int64_array(data, offset + 1, dtype)
    if tag == _INT64_ARRAY:
        return _read_int64_array(data, offset, _INT64)
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _BYTES:
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise SnapshotError("truncated payload (bytes)")
        return bytes(data[offset : offset + length]), offset + length
    if tag == _TUPLE or tag == _LIST:
        count, offset = _read_varint(data, offset)
        elements = []
        for _ in range(count):
            element, offset = _decode_from(data, offset)
            elements.append(element)
        return (tuple(elements) if tag == _TUPLE else elements), offset
    if tag == _FLOAT:
        if offset + 8 > len(data):
            raise SnapshotError("truncated payload (float)")
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if tag == _OBJECT_ARRAY:
        shape, count, offset = _read_shape(data, offset)
        if count > len(data) - offset:  # every element takes a byte at least
            raise SnapshotError("truncated payload (object ndarray)")
        array = np.empty(count, dtype=object)
        for index in range(count):
            element, offset = _decode_from(data, offset)
            array[index] = element
        return _shaped(array, shape), offset
    raise SnapshotError(f"unknown value tag {tag:#x}")


def encode_value(value: Any) -> bytes:
    """Deterministic byte encoding of one plain-data value."""
    out = bytearray()
    encode_into(out, value)
    return bytes(out)


_KEY_ENCODINGS = {name: encode_value(name) for name in _FIELD_NAMES}


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


# -- the comparison --------------------------------------------------------


class _Pair(tuple):
    """A tuple subclass: encoded through ``isinstance``, like a namedtuple."""


class _Label(str):
    """A str subclass (``np.str_`` is another)."""


def _object_array(elements: list, shape: tuple) -> np.ndarray:
    array = np.empty(len(elements), dtype=object)
    array[:] = elements
    return array.reshape(shape)


def _wide_dict(raw: bytes) -> dict:
    """Over 127 distinct int keys of both signs, one per byte of ``raw``."""
    return {index - 64 + 1000 * byte: None for index, byte in enumerate(raw)}


def _int64_arrays():
    """int64 arrays whose values need 1, 2, 4 or all 8 bytes, in one or
    two dimensions, empty ones included."""
    return st.sampled_from([7, 15, 31, 63]).flatmap(
        lambda bits: arrays(
            np.int64,
            array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
            elements=st.integers(-(2**bits), 2**bits - 1),
        )
    )


def _object_arrays():
    return st.sampled_from([(0,), (3,), (2, 2), (1, 3), (0, 2)]).flatmap(
        lambda shape: st.lists(
            st.integers(-(2**70), 2**70),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        ).map(lambda elements: _object_array(elements, shape))
    )


_TEXT = st.one_of(st.text(max_size=12), st.text(min_size=100, max_size=200))
_BINARY = st.one_of(st.binary(max_size=12), st.binary(min_size=120, max_size=200))
_MIXED_KEYS = st.one_of(
    st.sampled_from(_FIELD_NAMES),
    st.text(max_size=8),
    st.integers(),
    st.binary(max_size=4),
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(),
    st.floats(),
    _TEXT,
    _BINARY,
    _BINARY.map(bytearray),
    _int64_arrays(),
    _object_arrays(),
    # Values of the types the encoder reaches through ``isinstance``.
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.text(max_size=12).map(np.str_),
    st.text(max_size=12).map(_Label),
    # Over 127 elements, so the count takes a two-byte varint.
    st.binary(min_size=128, max_size=140).map(list),
)
VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_Pair),
        st.dictionaries(st.sampled_from(_FIELD_NAMES), children, max_size=8),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(_MIXED_KEYS, children, max_size=6),
        st.binary(min_size=128, max_size=140).map(_wide_dict),
    ),
    max_leaves=24,
)


def same(a: Any, b: Any) -> bool:
    """Equal values of identical types, arrays and floats compared exactly
    (dtype, shape and bits: ``nan`` equals itself, ``-0.0`` not ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and same(a.ravel().tolist(), b.ravel().tolist())
        )
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    return a == b


def outcome(decode, payload: bytes) -> tuple:
    try:
        return ("value", decode(payload))
    except Exception as exc:  # the outcome under test, whatever it is
        return ("error", type(exc), str(exc))


def assert_same_outcome(payload: bytes) -> None:
    got, want = outcome(codec.decode_value, payload), outcome(decode_value, payload)
    if want[0] == "error":
        assert want[1] is SnapshotError
        assert got == want
    else:
        assert got[0] == "value" and same(got[1], want[1])


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_same_bytes_and_same_values(value):
    wire = codec.encode_value(value)
    assert wire == encode_value(value)
    # ``encode_into`` appends: a buffer already holding a frame header.
    out = bytearray(b"RSV1")
    codec.encode_into(out, value)
    assert out == b"RSV1" + wire
    assert same(codec.decode_value(wire), decode_value(wire))


@settings(max_examples=200, deadline=None)
@given(VALUES, st.data())
def test_mutated_payloads_meet_the_same_outcome(value, data):
    payload = encode_value(value)
    cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
    at = data.draw(st.integers(0, len(payload) - 1), label="at")
    flipped = bytearray(payload)
    flipped[at] ^= data.draw(st.integers(1, 255), label="flip")
    tail = data.draw(st.binary(min_size=1, max_size=8), label="tail")
    for mutated in (payload[:cut], bytes(flipped), payload + tail):
        assert_same_outcome(mutated)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"i",
        b"i\x00",
        b"i\x01\x81",
        b"s",
        b"s\x85",
        b"s\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",
        b"d\x01",
        b"d\x01s\x02op",
        b"l\x02N",
        b"t\x81\x01N",
        b"b\x05abc",
        b"f\x00\x00",
        b"n",
        b"n\x03\x01\x01\x00",
        b"O\x01\x02i",
        b"\xff",
        b"NN",
    ],
)
def test_malformed_payloads_meet_the_same_error(payload):
    assert_same_outcome(payload)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        np.zeros(2, dtype=np.float32),
        [1, ("x", frozenset())],
        {"op": "feed", "items": np.zeros(1, dtype=np.uint8)},
        {"op": object(), "id": 1},
        {frozenset(): 1, "op": "x"},
        np.bool_(True),
        {"b": 1, 2: [None, 1.5, object()]},
    ],
    ids=[
        "set",
        "float32",
        "nested-frozenset",
        "field-dict-array",
        "field-dict-value",
        "key",
        "numpy-bool",
        "mixed-dict-value",
    ],
)
def test_unencodable_values_raise_the_same_error(value):
    outs = []
    for encode in (codec.encode_into, encode_into):
        out = bytearray()
        with pytest.raises(SnapshotError) as raised:
            encode(out, value)
        outs.append((bytes(out), str(raised.value)))
    # Including what was written before the failing value.
    assert outs[0] == outs[1]
