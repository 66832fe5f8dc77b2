"""Bit-equivalence of the fused scatter kernels vs their references.

The fused layer (:mod:`repro.core.kernels`) replaces the per-row
``np.add.at`` loops of CountMin / CountSketch / SIS dense mode, the
engine-side batch aggregation, and the partitioner's stable argsort.
Every replacement must be *bit-identical* to the reference formulation
on every admissible input and must *refuse* (falling back to the
reference path) everything else.  These tests pin that contract on both
tiers -- the compiled native kernels when the host can build them, and
the pure-numpy fallbacks via the ``REPRO_NATIVE_KERNELS=0`` kill switch
-- across positive/negative deltas, int64 overflow edges (the
object-promotion boundary), object-dtype fallbacks, empty and singleton
batches, duplicate keys, and all-one-shard skew; plus the pipelined
double-buffered process scatter against the serial backend.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.stream import (
    INT64_SAFE_MASS,
    Update,
    aggregate_batch,
    linear_hash_rows,
    updates_from_arrays,
)
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISParams
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.parallel.partition import UniversePartitioner

REPO_ROOT = Path(__file__).resolve().parent.parent


def _reference_count_min(sketch: CountMinSketch, items, deltas):
    """The pre-kernel formulation: per-row hash + np.add.at."""
    table = np.zeros_like(sketch.table)
    for row, (a, b) in enumerate(sketch.row_params):
        cells = linear_hash_rows(items, a, b, sketch.prime, sketch.width)
        np.add.at(table[row], cells, deltas)
    return table


def _reference_count_sketch(sketch: CountSketch, items, deltas):
    table = np.zeros_like(sketch.table)
    for row in range(sketch.depth):
        a, b = sketch.bucket_params[row]
        buckets = linear_hash_rows(items, a, b, sketch.prime, sketch.width)
        signs = np.array(
            [sketch._sign(row, int(x)) for x in items], dtype=np.int64
        )
        np.add.at(table[row], buckets, signs * deltas)
    return table


class TestCountMinFused:
    @pytest.mark.parametrize("width,depth", [(64, 4), (37, 3), (1, 2)])
    @pytest.mark.parametrize("delta_kind", ["units", "mixed", "negative"])
    def test_matches_add_at_reference(self, width, depth, delta_kind):
        rng = np.random.default_rng(width * depth)
        n = 5_000
        items = rng.integers(0, 50_000, n, dtype=np.int64)
        if delta_kind == "units":
            deltas = np.ones(n, dtype=np.int64)
        elif delta_kind == "mixed":
            deltas = rng.integers(-9, 10, n, dtype=np.int64)
        else:
            deltas = -rng.integers(1, 5, n, dtype=np.int64)
        sketch = CountMinSketch(50_000, width=width, depth=depth, seed=7)
        sketch.process_batch(items, deltas)
        assert np.array_equal(
            sketch.table, _reference_count_min(sketch, items, deltas)
        )

    def test_empty_and_singleton_batches(self):
        sketch = CountMinSketch(1000, width=16, depth=3, seed=1)
        sketch.process_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert not sketch.table.any()
        sketch.process_batch(
            np.array([123], dtype=np.int64), np.array([-4], dtype=np.int64)
        )
        loop = CountMinSketch(1000, width=16, depth=3, seed=1)
        loop.process(Update(123, -4))
        assert np.array_equal(sketch.table, loop.table)

    def test_int64_overflow_edge_promotes_and_stays_exact(self):
        """A batch whose mass crosses INT64_SAFE_MASS runs on the exact
        object path and matches the per-update loop."""
        sketch = CountMinSketch(100, width=8, depth=2, seed=3)
        big = INT64_SAFE_MASS // 2 + 1
        items = np.array([5, 5, 17], dtype=np.int64)
        deltas = np.array([big, big, -3], dtype=np.int64)
        sketch.process_batch(items, deltas)
        assert sketch.table.dtype == object
        loop = CountMinSketch(100, width=8, depth=2, seed=3)
        for update in updates_from_arrays(items, deltas):
            loop.process(update)
        assert np.array_equal(
            np.asarray(sketch.table, dtype=object),
            np.asarray(loop.table, dtype=object),
        )
        assert sketch.total == loop.total

    def test_object_table_keeps_add_at_fallback(self):
        """Once promoted, later batches stay exact (no int64 kernel)."""
        sketch = CountMinSketch(100, width=8, depth=2, seed=3)
        sketch._note_mass(INT64_SAFE_MASS)  # force promotion
        assert sketch.table.dtype == object
        items = np.array([1, 2, 1], dtype=np.int64)
        deltas = np.array([4, -5, 6], dtype=np.int64)
        sketch.process_batch(items, deltas)
        loop = CountMinSketch(100, width=8, depth=2, seed=3)
        loop._note_mass(INT64_SAFE_MASS)
        for update in updates_from_arrays(items, deltas):
            loop.process(update)
        assert np.array_equal(
            np.asarray(sketch.table, dtype=object),
            np.asarray(loop.table, dtype=object),
        )


class TestCountSketchFused:
    @pytest.mark.parametrize("width", [64, 37])
    @pytest.mark.parametrize("delta_kind", ["units", "mixed"])
    def test_matches_add_at_reference(self, width, delta_kind):
        rng = np.random.default_rng(width)
        n = 4_000
        items = rng.integers(0, 30_000, n, dtype=np.int64)
        deltas = (
            np.ones(n, dtype=np.int64)
            if delta_kind == "units"
            else rng.integers(-7, 8, n, dtype=np.int64)
        )
        sketch = CountSketch(30_000, width=width, depth=5, seed=11)
        sketch.process_batch(items, deltas)
        assert np.array_equal(
            sketch.table, _reference_count_sketch(sketch, items, deltas)
        )

    def test_batch_equals_loop_across_promotion_edge(self):
        sketch = CountSketch(64, width=4, depth=3, seed=2)
        big = INT64_SAFE_MASS
        items = np.array([3, 9, 3], dtype=np.int64)
        deltas = np.array([big, -1, 2], dtype=np.int64)
        sketch.process_batch(items, deltas)
        assert sketch.table.dtype == object
        loop = CountSketch(64, width=4, depth=3, seed=2)
        for update in updates_from_arrays(items, deltas):
            loop.process(update)
        assert np.array_equal(
            np.asarray(sketch.table, dtype=object),
            np.asarray(loop.table, dtype=object),
        )

    def test_empty_and_singleton(self):
        sketch = CountSketch(500, width=8, depth=2, seed=4)
        sketch.process_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert not sketch.table.any()
        sketch.process_batch(
            np.array([7], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        loop = CountSketch(500, width=8, depth=2, seed=4)
        loop.process(Update(7, 1))
        assert np.array_equal(sketch.table, loop.table)


#: The largest prime the native hash gate admits (``NATIVE_HASH_BOUND - 5``).
EDGE_PRIME = next_prime(kernels.NATIVE_HASH_BOUND - 6)


class TestHashEdge:
    """The all-double row hash at the edge of ``NATIVE_HASH_BOUND``.

    Items ``0`` and ``p - 1`` with coefficients near ``p`` push
    ``a*x + b`` toward ``2**52``; the kernels must still match the int64
    ``linear_hash_rows`` + ``np.add.at`` reference, for power-of-two and
    odd widths alike.
    """

    @staticmethod
    def _stream(seed):
        rng = np.random.default_rng(seed)
        items = np.concatenate(
            [
                [0, EDGE_PRIME - 1, 1, EDGE_PRIME - 2, 0, EDGE_PRIME - 1],
                rng.integers(0, EDGE_PRIME, 3_001),
            ]
        ).astype(np.int64)
        deltas = rng.integers(-6, 7, items.size, dtype=np.int64)
        return items, deltas

    @pytest.mark.parametrize("width", [1024, 999])
    def test_sketches_match_reference(self, width):
        items, deltas = self._stream(width)
        cm = CountMinSketch(EDGE_PRIME - 1, width=width, depth=4, seed=5)
        cs = CountSketch(EDGE_PRIME - 1, width=width, depth=3, seed=5)
        assert cm.prime == cs.prime == EDGE_PRIME
        assert next_prime(EDGE_PRIME + 1) >= kernels.NATIVE_HASH_BOUND
        cm.process_batch(items, deltas)
        cs.process_batch(items, deltas)
        assert np.array_equal(cm.table, _reference_count_min(cm, items, deltas))
        assert np.array_equal(cs.table, _reference_count_sketch(cs, items, deltas))
        estimates = cm.estimate_batch(items)
        rows = [
            cm.table[r, linear_hash_rows(items, a, b, cm.prime, cm.width)]
            for r, (a, b) in enumerate(cm.row_params)
        ]
        assert np.array_equal(estimates, np.min(rows, axis=0))

    @pytest.mark.parametrize("width", [1 << 16, 65_521, 49])
    def test_extreme_coefficients(self, width):
        """``a = b = p - 1`` on item ``p - 1`` is the largest intermediate;
        the row ``x -> x - 1`` sends items ``k*width + 1`` to exact
        multiples of the width, where a quotient one short is wrong."""
        items, deltas = self._stream(7)
        items[-8:] = width * np.arange(1, 9) + 1
        stats = kernels.batch_stats(items, deltas)
        p = EDGE_PRIME
        a = np.array([p - 1, p - 2, 1, 12_345_679], dtype=np.int64)
        b = np.array([p - 1, 0, p - 1, 31_337], dtype=np.int64)
        sign_a, sign_b = a[::-1].copy(), b[::-1].copy()
        reference = np.zeros((a.size, width), dtype=np.int64)
        signed_reference = np.zeros_like(reference)
        for row in range(a.size):
            cells = linear_hash_rows(items, int(a[row]), int(b[row]), p, width)
            signs = 1 - 2 * (((sign_a[row] * items + sign_b[row]) % p) % 2)
            np.add.at(reference[row], cells, deltas)
            np.add.at(signed_reference[row], cells, signs * deltas)
        table = np.zeros_like(reference)
        signed = np.zeros_like(reference)
        applied = kernels.count_min_scatter(table, stats, a, b, p)
        assert applied == kernels.native_kernels_available()
        assert applied == kernels.count_sketch_scatter(
            signed, stats, a, b, sign_a, sign_b, p
        )
        if applied:
            assert np.array_equal(table, reference)
            assert np.array_equal(signed, signed_reference)
            estimates = kernels.count_min_estimate(table, items, a, b, p)
            rows = [
                table[r, linear_hash_rows(items, int(a[r]), int(b[r]), p, width)]
                for r in range(a.size)
            ]
            assert np.array_equal(estimates, np.min(rows, axis=0))

    def test_batch_stats_match_numpy(self):
        items, deltas = self._stream(3)
        stats = kernels.batch_stats(items, deltas)
        assert (stats.items_min, stats.items_max) == (0, EDGE_PRIME - 1)
        assert stats.deltas_min == int(deltas.min())
        assert stats.deltas_max == int(deltas.max())
        assert stats.deltas_sum == int(deltas.sum())
        assert stats.items is items and stats.deltas is deltas


class TestSisDenseFused:
    def _params(self):
        return SISParams(rows=6, cols=50, modulus=next_prime(1 << 18), beta=1e9)

    def test_fused_matches_exact_and_loop(self):
        rng = np.random.default_rng(5)
        n = 3_000
        items = rng.integers(0, 10_000, n, dtype=np.int64)
        deltas = rng.integers(-20, 21, n, dtype=np.int64)
        fused = SisL0Estimator(10_000, params=self._params(), seed=6)
        assert fused.int64_fast_path
        fused.process_batch(items, deltas)
        exact = SisL0Estimator(
            10_000, params=self._params(), seed=6, force_exact=True
        )
        exact.process_batch(items, deltas)
        loop = SisL0Estimator(10_000, params=self._params(), seed=6)
        for update in updates_from_arrays(items, deltas):
            loop.process(update)
        assert fused.sketches == exact.sketches == loop.sketches
        assert fused.query() == exact.query()

    def test_registers_always_reduced(self):
        """The fused kernel's step-wise mod leaves registers in [0, q)."""
        fused = SisL0Estimator(10_000, params=self._params(), seed=6)
        rng = np.random.default_rng(8)
        items = rng.integers(0, 10_000, 2_000, dtype=np.int64)
        deltas = rng.integers(-(1 << 17), 1 << 17, 2_000, dtype=np.int64)
        fused.process_batch(items, deltas)
        assert int(fused._dense.min()) >= 0
        assert int(fused._dense.max()) < self._params().modulus

    @pytest.mark.parametrize(
        "bad_items, message",
        [
            ([5, 10_000, 7], r"item 10000 outside universe \[0, 10000\)"),
            ([5, -1, 7], "item must be non-negative"),
        ],
    )
    def test_out_of_range_item_refused_unchanged(self, bad_items, message):
        """A bad item anywhere in the batch writes nothing, on both tiers."""
        sketch = SisL0Estimator(10_000, params=self._params(), seed=6)
        rng = np.random.default_rng(9)
        sketch.process_batch(
            rng.integers(0, 10_000, 500, dtype=np.int64),
            rng.integers(-3, 4, 500, dtype=np.int64),
        )
        before = sketch._dense.copy()
        bad = np.array(bad_items, dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            sketch.process_batch(bad, np.ones(bad.size, dtype=np.int64))
        assert np.array_equal(sketch._dense, before)
        assert not kernels.sis_update(
            sketch._dense, bad, np.ones(bad.size, dtype=np.int64),
            sketch._cols64, sketch.params.modulus, sketch.chunk_width,
            sketch.universe_size,
        )
        assert np.array_equal(sketch._dense, before)

    def test_negative_and_huge_deltas_reduce_like_python_mod(self):
        big = 1 << 52
        deltas = np.array(
            [-1, -8, big, -big, big + 12_345, -(1 << 62), (1 << 63) - 1,
             -(1 << 63), 3 * self._params().modulus, 0],
            dtype=np.int64,
        )
        items = np.arange(deltas.size, dtype=np.int64) * 997
        fused = SisL0Estimator(10_000, params=self._params(), seed=6)
        fused.process_batch(items, deltas)
        loop = SisL0Estimator(10_000, params=self._params(), seed=6)
        for update in updates_from_arrays(items, deltas):
            loop.process(update)
        exact = SisL0Estimator(
            10_000, params=self._params(), seed=6, force_exact=True
        )
        exact.process_batch(items, deltas)
        assert fused.sketches == loop.sketches == exact.sketches


class TestScatterAdd:
    def test_constant_weights_fused_bincount(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 100, 5_000)
        for constant in (1, -3, 0, 7):
            out = np.zeros(100, dtype=np.int64)
            kernels.scatter_add(out, indices, constant)
            reference = np.zeros(100, dtype=np.int64)
            np.add.at(
                reference, indices, np.full(indices.size, constant, np.int64)
            )
            assert np.array_equal(out, reference)

    def test_array_weights_and_object_outputs(self):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 64, 2_000)
        weights = rng.integers(-50, 50, 2_000, dtype=np.int64)
        out = np.zeros(64, dtype=np.int64)
        kernels.scatter_add(out, indices, weights)
        reference = np.zeros(64, dtype=np.int64)
        np.add.at(reference, indices, weights)
        assert np.array_equal(out, reference)
        exact = np.zeros(8, dtype=object)
        kernels.scatter_add(
            exact,
            np.array([1, 1, 5]),
            np.array([INT64_SAFE_MASS, INT64_SAFE_MASS, -1], dtype=object),
        )
        assert exact[1] == 2 * INT64_SAFE_MASS and exact[5] == -1

    def test_aggregate_batch_unit_and_mixed(self):
        rng = np.random.default_rng(2)
        items = rng.integers(0, 500, 3_000, dtype=np.int64)
        ones = np.ones(3_000, dtype=np.int64)
        unique, totals = aggregate_batch(items, ones, 500)
        counts = np.bincount(items, minlength=500)
        assert totals == counts[np.array(unique)].tolist()
        mixed = rng.integers(-4, 5, 3_000, dtype=np.int64)
        unique2, totals2 = aggregate_batch(items, mixed, 500)
        dense = np.zeros(500, dtype=np.int64)
        np.add.at(dense, items, mixed)
        assert totals2 == dense[np.array(unique2)].tolist()


class TestCountingSortPartitioner:
    @staticmethod
    def _argsort_reference(partitioner, items, deltas):
        """The pre-kernel split: stable argsort + searchsorted bounds."""
        ids = partitioner.assign_array(items)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        sorted_items = items[order]
        sorted_deltas = deltas[order]
        bounds = np.searchsorted(
            sorted_ids,
            np.arange(partitioner.num_shards + 1, dtype=np.uint64),
        )
        parts = []
        for shard in range(partitioner.num_shards):
            low, high = int(bounds[shard]), int(bounds[shard + 1])
            parts.append(
                (sorted_items[low:high], sorted_deltas[low:high])
                if high > low
                else None
            )
        return parts

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 8, 16, 17, 64, 300])
    def test_views_identical_to_argsort_split(self, num_shards):
        rng = np.random.default_rng(num_shards)
        items = rng.integers(0, 1 << 40, 20_000, dtype=np.int64)
        deltas = rng.integers(-5, 6, 20_000, dtype=np.int64)
        partitioner = UniversePartitioner(num_shards, seed=num_shards)
        got = partitioner.split(items, deltas)
        want = self._argsort_reference(partitioner, items, deltas)
        assert len(got) == num_shards
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert np.array_equal(g[0], w[0])
                assert np.array_equal(g[1], w[1])

    def test_duplicate_keys_preserve_stream_order(self):
        partitioner = UniversePartitioner(4, seed=1)
        items = np.array([9, 9, 9, 42, 9, 42, 9], dtype=np.int64)
        deltas = np.arange(1, 8, dtype=np.int64)  # distinguishes positions
        parts = partitioner.split(items, deltas)
        for part in parts:
            if part is None:
                continue
            for value in (9, 42):
                mask = part[0] == value
                # Stream order within a shard: deltas strictly increasing.
                assert np.all(np.diff(part[1][mask]) > 0) or mask.sum() <= 1

    @pytest.mark.parametrize("num_shards", [2, 8])
    def test_all_one_shard_skew(self, num_shards):
        partitioner = UniversePartitioner(num_shards, seed=0)
        items = np.full(5_001, 777, dtype=np.int64)
        deltas = np.arange(5_001, dtype=np.int64)
        parts = partitioner.split(items, deltas)
        populated = [p for p in parts if p is not None]
        assert len(populated) == 1
        assert np.array_equal(populated[0][0], items)
        assert np.array_equal(populated[0][1], deltas)

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_empty_and_singleton(self, num_shards):
        partitioner = UniversePartitioner(num_shards, seed=2)
        parts = partitioner.split(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert parts == [None] * num_shards
        parts = partitioner.split(
            np.array([5], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert sum(p is not None for p in parts) == 1
        rng = np.random.default_rng(num_shards)
        for size in (3, 7, 1_001):
            items = rng.integers(0, 1 << 40, size, dtype=np.int64)
            deltas = np.arange(size, dtype=np.int64)
            got = partitioner.split(items, deltas)
            want = self._argsort_reference(partitioner, items, deltas)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if g is not None:
                    assert np.array_equal(g[0], w[0])
                    assert np.array_equal(g[1], w[1])


def _unaligned(array):
    """A C-contiguous but unaligned int64 view holding ``array``'s values."""
    buffer = np.zeros(array.nbytes + 8, dtype=np.uint8)
    view = np.frombuffer(buffer, dtype=np.int64, count=array.size, offset=3)
    view[:] = array
    assert view.flags.c_contiguous and not view.flags.aligned
    assert np.ascontiguousarray(view, dtype=np.int64) is view
    return view


class TestUnalignedOperands:
    """Unaligned int64 views never reach C: the numpy tier answers."""

    @pytest.fixture
    def dispatches(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            kernels, "record_dispatch", lambda kernel, tier: seen.append((kernel, tier))
        )
        return seen

    def _stream(self, universe):
        rng = np.random.default_rng(31)
        items = rng.integers(0, universe, 5_000, dtype=np.int64)
        deltas = rng.integers(-4, 9, 5_000, dtype=np.int64)
        return items, deltas

    @pytest.mark.parametrize(
        "factory, kernel",
        [
            (lambda: CountMinSketch(9_999, 64, 4, seed=3), "count_min_scatter"),
            (lambda: CountSketch(9_999, 64, 4, seed=3), "count_sketch_scatter"),
        ],
    )
    def test_scatter_matches_aligned_copies(self, factory, kernel, dispatches):
        items, deltas = self._stream(9_999)
        aligned, unaligned = factory(), factory()
        aligned.process_batch(items.copy(), deltas.copy())
        unaligned.process_batch(_unaligned(items), _unaligned(deltas))
        assert np.array_equal(aligned.table, unaligned.table)
        assert dispatches[-1][0] == kernel and dispatches[-1][1] != "native"

    def test_count_min_estimate_matches_aligned_copy(self, dispatches):
        items, deltas = self._stream(9_999)
        sketch = CountMinSketch(9_999, 64, 4, seed=3)
        sketch.process_batch(items, deltas)
        probe = np.arange(0, 9_999, 7, dtype=np.int64)
        want = sketch.estimate_batch(probe.copy())
        got = sketch.estimate_batch(_unaligned(probe))
        assert np.array_equal(want, got)
        assert dispatches[-1] == ("count_min_estimate", "numpy")

    def test_sis_l0_matches_aligned_copies(self):
        params = SISParams(rows=6, cols=50, modulus=next_prime(1 << 18), beta=1e9)
        items, deltas = self._stream(10_000)
        aligned = SisL0Estimator(10_000, params=params, seed=6)
        unaligned = SisL0Estimator(10_000, params=params, seed=6)
        aligned.process_batch(items.copy(), deltas.copy())
        unaligned.process_batch(_unaligned(items), _unaligned(deltas))
        assert aligned.sketches == unaligned.sketches
        assert aligned.query() == unaligned.query()
        # The entry point itself refuses an unaligned operand.
        before = unaligned._dense.copy()
        assert not kernels.sis_update(
            unaligned._dense,
            _unaligned(items),
            deltas,
            unaligned._cols64,
            params.modulus,
            unaligned.chunk_width,
            unaligned.universe_size,
        )
        assert np.array_equal(unaligned._dense, before)

    def test_partitioner_matches_aligned_copies(self, dispatches):
        items, deltas = self._stream(1 << 30)
        partitioner = UniversePartitioner(4, seed=9)
        want = partitioner.split(items.copy(), deltas.copy())
        got = partitioner.split(_unaligned(items), _unaligned(deltas))
        for w, g in zip(want, got):
            assert (w is None) == (g is None)
            if w is not None:
                assert np.array_equal(w[0], g[0]) and np.array_equal(w[1], g[1])
        assert dispatches[-1][0] == "partition_scatter"
        assert dispatches[-1][1] != "native"


class TestNumpyTierFallback:
    """The kill switch runs everything on the numpy tier, bit-identically."""

    def test_fallback_matches_per_update_loop(self):
        script = r"""
import numpy as np
from repro.core import kernels
assert not kernels.native_kernels_available()
from repro.core.stream import updates_from_arrays
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.parallel.partition import UniversePartitioner
rng = np.random.default_rng(0)
items = rng.integers(0, 9999, 4000, dtype=np.int64)
deltas = rng.integers(-3, 4, 4000, dtype=np.int64)
for factory in (lambda: CountMinSketch(9999, 32, 3, seed=1),
                lambda: CountSketch(9999, 32, 3, seed=1)):
    batched, loop = factory(), factory()
    batched.process_batch(items, deltas)
    for update in updates_from_arrays(items, deltas):
        loop.process(update)
    assert np.array_equal(batched.table, loop.table)
part = UniversePartitioner(5, seed=3)
ids = part.assign_array(items)
for shard, piece in enumerate(part.split(items, deltas)):
    positions = np.flatnonzero(ids == shard)
    if piece is None:
        assert positions.size == 0
    else:
        assert np.array_equal(piece[0], items[positions])
        assert np.array_equal(piece[1], deltas[positions])
print("fallback-ok")
"""
        env = dict(os.environ)
        env["REPRO_NATIVE_KERNELS"] = "0"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "fallback-ok" in result.stdout


class TestDoubleBufferedProcessScatter:
    """Pipelined process scatter stays bit-identical to the serial backend."""

    def test_merged_state_matches_serial_backend(self):
        from repro.core.engine import StreamEngine
        from repro.parallel import ShardedStreamEngine

        rng = np.random.default_rng(12)
        items = rng.integers(0, 50_000, 120_000, dtype=np.int64)
        deltas = rng.integers(-2, 3, 120_000, dtype=np.int64)

        def factory():
            return CountMinSketch(50_000, width=32, depth=4, seed=21)

        reference = factory()
        StreamEngine().drive_arrays(reference, items, deltas)
        with ShardedStreamEngine(
            factory, num_shards=2, backend="process"
        ) as engine:
            half = len(items) // 2
            engine.drive_arrays(items[:half], deltas[:half])
            engine.merged()  # mid-stream flush must not disturb the pipeline
            engine.drive_arrays(items[half:], deltas[half:])
            merged = engine.merged()
            assert dict(merged.state_view().fields) == dict(
                reference.state_view().fields
            )

    def test_pipeline_with_tiny_buffers_and_growth(self):
        """Remaps mid-pipeline (both blocks replaced) stay exact."""
        from repro.distributed.workers import ProcessShardPool

        rng = np.random.default_rng(13)

        def factory():
            return CountMinSketch(10_000, width=16, depth=3, seed=5)

        shards = [factory() for _ in range(2)]
        partitioner = UniversePartitioner(2)
        reference = factory()
        with ProcessShardPool(shards, buffer_capacity=32) as pool:
            for size in (8, 200, 31, 1_000, 1, 64):
                items = rng.integers(0, 10_000, size, dtype=np.int64)
                deltas = np.ones(size, dtype=np.int64)
                reference.process_batch(items, deltas)
                pool.scatter(partitioner.split(items, deltas))
            snapshots = pool.snapshots()
        merged = factory()
        merged.restore(snapshots[0])
        twin = factory()
        twin.restore(snapshots[1])
        merged.merge(twin)
        assert np.array_equal(merged.table, reference.table)
        assert merged.total == reference.total
