"""Wire-format snapshot round trips: the serialized merge contract.

For every mergeable sketch family, ``restore(snapshot(s))`` must
reproduce the state bit for bit (white-box fields, randomness transcript,
``space_bits``, query, stream position) -- across dtype boundaries (SIS
int64 dense vs object-dtype exact, CountMin int64 vs promoted object
tables) -- and ``merge_snapshot`` fan-in must equal in-process ``merge``.
Malformed bytes must fail loudly: fingerprint mismatches (wrong seed,
wrong parameters, wrong class), truncation, and corruption each raise
typed errors before any state moves.  Int64 arrays travel at their
narrowest width and come back as owned int64 arrays, and snapshots and
checkpoints the version 1 codec wrote still restore to the same state.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_shard_equivalence import SKETCHES

from repro.core.engine import StreamEngine
from repro.core.stream import Update
from repro.distinct.exact_l0 import ExactL0
from repro.distinct.kmv import KMVEstimator
from repro.distinct.sis_l0 import SisL0Estimator
from repro.distributed.checkpoint import resume_from
from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    construction_fingerprint,
    decode_value,
    encode_value,
)
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
from repro.moments.frequency import ExactFpMoment

#: name -> (factory, universe, insertions_only); mirrors the sharded
#: equivalence table so the snapshot tests cover the same seven families
#: (plus both SIS storage modes).
FAMILIES = {
    "count-min": (
        lambda: CountMinSketch(500, width=32, depth=4, seed=9),
        500,
        False,
    ),
    "count-sketch": (
        lambda: CountSketch(400, width=16, depth=5, seed=11),
        400,
        False,
    ),
    "ams": (lambda: AMSSketch(128, rows=8, seed=13), 128, False),
    "exact-fp": (lambda: ExactFpMoment(300, p=2), 300, False),
    "exact-l0": (lambda: ExactL0(300), 300, False),
    "kmv": (lambda: KMVEstimator(5000, k=32, seed=29), 5000, True),
    "sis-l0-int64": (
        lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37),
        512,
        False,
    ),
    "sis-l0-exact": (
        lambda: SisL0Estimator(512, eps=0.5, c=0.25, seed=37, force_exact=True),
        512,
        False,
    ),
}


def turnstile_updates(universe, length, seed, insertions_only=False):
    rng = random.Random(seed)
    updates = []
    for _ in range(length):
        delta = rng.randint(1, 9)
        if not insertions_only and rng.random() < 0.4:
            delta = -delta
        updates.append(Update(rng.randrange(universe), delta))
    return updates


def assert_state_identical(expected, actual):
    expected_view = expected.state_view()
    actual_view = actual.state_view()
    assert dict(expected_view.fields) == dict(actual_view.fields)
    assert expected_view.randomness == actual_view.randomness
    assert expected.updates_processed == actual.updates_processed
    assert expected.space_bits() == actual.space_bits()
    assert expected.query() == actual.query()


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**200,
            -(2**200),
            3.25,
            "snapshot",
            b"\x00\xff",
            (1, (2, "x"), None),
            [1, -2, [3.5]],
            {"a": 1, 7: (True, b"q"), "nested": {"k": [1, 2]}},
        ],
    )
    def test_scalar_and_container_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_int64_ndarray_round_trip_preserves_shape_and_dtype(self):
        array = np.arange(24, dtype=np.int64).reshape(4, 6) - 7
        out = decode_value(encode_value(array))
        assert out.dtype == np.int64
        assert out.shape == (4, 6)
        assert np.array_equal(out, array)

    def test_object_ndarray_round_trip_keeps_exact_ints(self):
        array = np.array([[2**100, -5], [0, 2**64]], dtype=object)
        out = decode_value(encode_value(array))
        assert out.dtype == object
        assert out.shape == (2, 2)
        assert out.tolist() == array.tolist()

    def test_dict_key_types_survive(self):
        value = {1: "int-key", "1": "str-key"}
        assert decode_value(encode_value(value)) == value

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SnapshotError):
            decode_value(encode_value(42) + b"\x00")

    def test_truncated_value_rejected(self):
        data = encode_value([1, 2, 3, "abcdef"])
        with pytest.raises(SnapshotError):
            decode_value(data[:-3])

    def test_unsupported_type_rejected(self):
        with pytest.raises(SnapshotError):
            encode_value({1, 2, 3})

    def test_float32_array_rejected(self):
        with pytest.raises(SnapshotError):
            encode_value(np.zeros(3, dtype=np.float32))

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "memoryview"])
    def test_decoded_arrays_own_their_memory(self, kind):
        value = {
            "items": np.arange(1_000, dtype=np.int64) * 3 - 7,
            "grid": np.arange(12, dtype=np.int64).reshape(3, 4),
            "blob": b"\x01\x02",
        }
        raw = encode_value(value)
        # One leading byte leaves every int64 field at an odd address.
        buffer = bytearray(b"\x00" + raw)
        data = {
            "bytes": raw,
            "bytearray": bytearray(raw),
            "memoryview": memoryview(buffer)[1:],
        }[kind]
        out = decode_value(data)
        for name in ("items", "grid"):
            array = out[name]
            assert array.dtype == np.int64
            assert array.flags.owndata and array.flags.writeable
            assert array.flags.aligned and array.flags.c_contiguous
            assert np.array_equal(array, value[name])
        assert type(out["blob"]) is bytes
        if kind != "bytes":
            data[:] = bytes(len(data))  # scribble over the input
        assert np.array_equal(out["items"], value["items"])
        assert np.array_equal(out["grid"], value["grid"])
        assert out["blob"] == b"\x01\x02"

    @pytest.mark.parametrize(
        "data",
        [
            b"s\x02\xff\xfe",  # a str that is not UTF-8
            b"d\x01l\x00N",  # an unhashable (list) dict key
            b"O\x01\x80\x80\x80\x80\x10",  # 2**32 object elements, no bytes
            b"l\x01" * 100_000 + b"N",  # nested past the recursion limit
            b"n\x03\x01\x02" + bytes(6),  # a narrow array of width 3
            b"n\x08\x01\x01" + bytes(8),  # width 8 is tag ``a``, not ``n``
            b"n",  # no width byte
            b"n\x02\x01\x04" + bytes(7),  # 4 elements of 2 bytes in 7 bytes
            b"n\x01\x01\xff\xff\xff\xff\x0f",  # 2**32 - 1 elements, no bytes
            b"a\x02\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02",
            b"O\x02\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02",
            b"n\x01\x41" + b"\x01" * 65 + b"\x00",  # more dimensions than numpy has
        ],
        ids=[
            "utf8",
            "unhashable-key",
            "object-count",
            "nesting",
            "bad-width",
            "width-8",
            "no-width",
            "truncated-narrow",
            "narrow-count",
            "int64-shape",
            "object-shape",
            "ndim",
        ],
    )
    def test_malformed_values_raise_snapshot_error(self, data):
        with pytest.raises(SnapshotError):
            decode_value(data)


#: Each width's signed range edges, the values a narrowing rule can get
#: wrong by one.
WIDTH_EDGES = [
    value
    for bits in (7, 15, 31)
    for value in (-(2**bits) - 1, -(2**bits), 2**bits - 1, 2**bits)
] + [-(2**63), 2**63 - 1, -1, 0, 1]


def width_written(encoded: bytes) -> int:
    """The element width of an encoded int64 array (tag ``n`` or ``a``)."""
    return encoded[1] if encoded[:1] == b"n" else 8


def narrowest_width(array: np.ndarray) -> int:
    if array.size:
        low, high = int(array.min()), int(array.max())
        for width in (1, 2, 4):
            if -(2 ** (8 * width - 1)) <= low and high < 2 ** (8 * width - 1):
                return width
    return 8


class TestNarrowArrays:
    @settings(max_examples=300, deadline=None)
    @given(
        array=hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
            elements=st.one_of(
                st.sampled_from(WIDTH_EDGES),
                st.integers(-(2**63), 2**63 - 1),
                st.integers(-300, 300),
            ),
        ),
        transpose=st.booleans(),
    )
    def test_narrowest_width_round_trip(self, array, transpose):
        if transpose:
            array = array.T  # not C-contiguous when 2-D or more
        encoded = encode_value(array)
        out = decode_value(encoded)
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
        assert out.shape == array.shape and np.array_equal(out, array)
        assert out.flags.owndata and out.flags.aligned and out.flags.writeable
        assert width_written(encoded) == narrowest_width(array)
        assert encode_value(out) == encoded


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_restore_is_bit_exact(self, name):
        make, universe, insertions_only = FAMILIES[name]
        source = make()
        for update in turnstile_updates(universe, 1500, 17, insertions_only):
            source.feed(update)
        target = make().restore(source.snapshot())
        assert_state_identical(source, target)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_merge_snapshot_equals_in_process_merge(self, name):
        make, universe, insertions_only = FAMILIES[name]
        updates = turnstile_updates(universe, 1200, 23, insertions_only)
        thirds = [updates[0:400], updates[400:800], updates[800:1200]]
        replicas = []
        for part in thirds:
            replica = make()
            for update in part:
                replica.feed(update)
            replicas.append(replica)
        single = make()
        for update in updates:
            single.feed(update)
        merged = make()
        merged.restore(replicas[0].snapshot())
        for replica in replicas[1:]:
            merged.merge_snapshot(replica.snapshot())
        assert_state_identical(single, merged)

    def test_empty_sketch_round_trips(self):
        make, _, _ = FAMILIES["count-min"]
        source = make()
        target = make().restore(source.snapshot())
        assert_state_identical(source, target)

    def test_snapshot_is_deterministic(self):
        make, universe, _ = FAMILIES["sis-l0-int64"]
        updates = turnstile_updates(universe, 500, 31)
        first, second = make(), make()
        for update in updates:
            first.feed(update)
            second.feed(update)
        assert first.snapshot() == second.snapshot()

    def test_equal_states_from_different_histories_give_equal_bytes(self):
        """Canonical dict ordering: insertion order must not leak into the
        bytes -- replicas reaching the same counts via different update
        orders snapshot identically (byte-level dedup/digest comparisons
        rely on it)."""
        a = ExactL0(300)
        b = ExactL0(300)
        for update in [Update(1, 2), Update(2, 3), Update(5, 1)]:
            a.feed(update)
        # Same final counts, different insertion/eviction history.
        for update in [
            Update(5, 1),
            Update(2, 3),
            Update(1, 7),
            Update(1, -7),
            Update(1, 2),
        ]:
            b.feed(update)
        b.updates_processed = a.updates_processed  # align the position field
        assert a.counts == b.counts
        assert a.snapshot() == b.snapshot()
        assert encode_value({"x": 1, "y": 2}) == encode_value({"y": 2, "x": 1})

    def test_restore_replaces_previous_state(self):
        make, universe, _ = FAMILIES["exact-l0"]
        source = make()
        for update in turnstile_updates(universe, 300, 5):
            source.feed(update)
        target = make()
        for update in turnstile_updates(universe, 300, 6):
            target.feed(update)
        target.restore(source.snapshot())
        assert_state_identical(source, target)


class TestDtypeBoundaries:
    def test_count_min_promoted_object_table_round_trips(self):
        """A table past the int64 safe mass restores as exact object cells."""
        big = 2**62 - 1
        source = CountMinSketch(100, width=8, depth=2, seed=1)
        source.feed_batch([5, 5], [big, big])
        assert source.table.dtype == object
        target = CountMinSketch(100, width=8, depth=2, seed=1)
        target.restore(source.snapshot())
        assert target.table.dtype == object
        assert target.estimate(5) == 2 * big
        assert_state_identical(source, target)

    def test_sis_int64_and_exact_modes_disagree_on_fingerprint(self):
        """The storage mode is part of the construction fingerprint: an
        int64-dense snapshot cannot restore into an exact-dict replica."""
        dense = SisL0Estimator(512, eps=0.5, c=0.25, seed=37)
        exact = SisL0Estimator(512, eps=0.5, c=0.25, seed=37, force_exact=True)
        with pytest.raises(FingerprintMismatch):
            exact.restore(dense.snapshot())

    def test_sis_modes_have_identical_observable_state_after_restore(self):
        updates = turnstile_updates(512, 800, 41)
        dense_src = SisL0Estimator(512, eps=0.5, c=0.25, seed=37)
        exact_src = SisL0Estimator(512, eps=0.5, c=0.25, seed=37, force_exact=True)
        for update in updates:
            dense_src.feed(update)
            exact_src.feed(update)
        dense_tgt = SisL0Estimator(512, eps=0.5, c=0.25, seed=37)
        dense_tgt.restore(dense_src.snapshot())
        exact_tgt = SisL0Estimator(512, eps=0.5, c=0.25, seed=37, force_exact=True)
        exact_tgt.restore(exact_src.snapshot())
        # The two storage modes expose the same observable fields.
        assert dict(dense_tgt.state_view().fields) == dict(
            exact_tgt.state_view().fields
        )
        assert dense_tgt.query() == exact_tgt.query()


class TestRejection:
    def test_wrong_seed_rejected(self):
        source = CountMinSketch(500, width=32, depth=4, seed=9)
        stranger = CountMinSketch(500, width=32, depth=4, seed=10)
        with pytest.raises(FingerprintMismatch):
            stranger.restore(source.snapshot())
        with pytest.raises(FingerprintMismatch):
            stranger.merge_snapshot(source.snapshot())

    def test_wrong_parameters_rejected(self):
        source = CountMinSketch(500, width=32, depth=4, seed=9)
        narrower = CountMinSketch(500, width=16, depth=4, seed=9)
        with pytest.raises(FingerprintMismatch):
            narrower.restore(source.snapshot())

    def test_wrong_class_rejected(self):
        source = CountMinSketch(500, width=32, depth=4, seed=9)
        other = CountSketch(500, width=32, depth=4, seed=9)
        with pytest.raises(FingerprintMismatch):
            other.restore(source.snapshot())

    def test_sis_construction_parameters_pin_the_fingerprint(self):
        """The SIS instance (q, dimensions) is part of the wire identity --
        hardness assumptions survive transport."""
        a = SisL0Estimator(512, eps=0.5, c=0.25, seed=37)
        b = SisL0Estimator(512, eps=1.0 / 3.0, c=0.25, seed=37)
        assert construction_fingerprint(a) != construction_fingerprint(b)
        with pytest.raises(FingerprintMismatch):
            b.restore(a.snapshot())

    def test_truncated_snapshot_rejected(self):
        source = CountMinSketch(500, width=32, depth=4, seed=9)
        data = source.snapshot()
        for cut in (0, 3, 10, len(data) // 2, len(data) - 1):
            with pytest.raises(SnapshotError):
                CountMinSketch(500, width=32, depth=4, seed=9).restore(data[:cut])

    def test_corrupted_payload_rejected(self):
        source = CountMinSketch(500, width=32, depth=4, seed=9)
        source.feed(Update(3, 7))
        data = bytearray(source.snapshot())
        data[-1] ^= 0xFF
        with pytest.raises(SnapshotError):
            CountMinSketch(500, width=32, depth=4, seed=9).restore(bytes(data))

    def test_not_a_snapshot_rejected(self):
        with pytest.raises(SnapshotError):
            CountMinSketch(100, width=8, depth=2, seed=1).restore(b"hello world")

    def test_failed_restore_leaves_target_untouched(self):
        target = CountMinSketch(500, width=32, depth=4, seed=9)
        target.feed(Update(1, 5))
        before = dict(target.state_view().fields)
        source = CountMinSketch(500, width=32, depth=4, seed=10)
        with pytest.raises(FingerprintMismatch):
            target.restore(source.snapshot())
        assert dict(target.state_view().fields) == before


# -- bytes the version 1 codec wrote -------------------------------------------

#: Snapshots of every ``SKETCHES`` family and one checkpoint, written by
#: the version 1 codec (every int64 array at 8 bytes a cell) from
#: :func:`fixture_stream` through ``StreamEngine(chunk_size=128)``; the
#: checkpoint holds count-min after the first 256 updates.
V1_FIXTURES = Path(__file__).parent / "fixtures" / "codec_v1"

#: Each family's construction fingerprint under the version 1 codec.
#: Merge keys hold ints and tuples, never arrays, so the narrow array
#: encoding must not move them.
V1_FINGERPRINTS = {
    "ams": "5757551357bf38a274baa679d9472cd4dcaac067b51d38a6a5dee527b73ce45b",
    "count-min": "fe31f555f98cf8b3fee7127047750489f89677011fe8ddf50fdc0e5e2189448f",
    "count-sketch": "a329a6b53f868ef277fca2d91558827ac1e98ea9bd3eb52fcfb673b00bd33800",
    "exact-fp": "05f5d99c2cf7548331e2b3f3cb7525d48970a5e048900542737af26c0f961fbe",
    "exact-l0": "581ab3df7e217091acc2322b6e1381cb2d352a206aabf203b126a9302c3005fa",
    "kmv": "f1883005c57ad7a7d7f6c76adf94c1d5c1f40a3ee460038401dcdf60de269302",
    "sis-l0": "95250236eadee7710f8a16f2ecb5e20fe3045b458d2e4cdd1a0e03acce958cea",
    "sis-l0-exact": "5e050e0b6005333bf9098602441651d635f921967cae3580b77119185753bdd8",
}


def fixture_stream(universe, insertions_only, length=600):
    """A fixed closed-form stream (no generator whose output could drift)."""
    index = np.arange(length, dtype=np.int64)
    items = (index * 7919 + 13) % universe
    magnitude = index % 7 + 1
    deltas = magnitude if insertions_only else np.where(index % 3, magnitude, -magnitude)
    return items, deltas


def fed(name, stop=None):
    make, config = SKETCHES[name]
    items, deltas = fixture_stream(config["universe"], config["insertions_only"])
    sketch = make()
    StreamEngine(chunk_size=128).drive_arrays([sketch], items[:stop], deltas[:stop])
    return sketch


class TestVersion1Bytes:
    @pytest.mark.parametrize("name", sorted(SKETCHES))
    def test_construction_fingerprint_unchanged(self, name):
        make, _ = SKETCHES[name]
        assert construction_fingerprint(make()).hex() == V1_FINGERPRINTS[name]

    @pytest.mark.parametrize("name", sorted(SKETCHES))
    def test_v1_snapshot_restores_and_re_encodes_as_v2(self, name):
        make, _ = SKETCHES[name]
        v1 = (V1_FIXTURES / f"{name}.snapshot").read_bytes()
        v2 = fed(name).snapshot()
        assert (v1[4], v2[4]) == (1, 2)  # the envelope version byte
        from_v1 = make().restore(v1)
        assert_state_identical(make().restore(v2), from_v1)
        assert from_v1.snapshot() == v2

    @pytest.mark.parametrize("version", [0, 3, 255])
    def test_other_envelope_versions_rejected(self, version):
        data = bytearray(fed("count-min").snapshot())
        data[4] = version
        with pytest.raises(SnapshotError, match="version"):
            SKETCHES["count-min"][0]().restore(bytes(data))

    def test_v1_checkpoint_resumes_byte_identical(self):
        make, config = SKETCHES["count-min"]
        items, deltas = fixture_stream(config["universe"], config["insertions_only"])
        resumed = make()
        position = resume_from(V1_FIXTURES / "count-min.ckpt", resumed)
        assert position == 256
        StreamEngine(chunk_size=128).drive_arrays(
            [resumed], items[position:], deltas[position:]
        )
        assert resumed.snapshot() == fed("count-min").snapshot()
