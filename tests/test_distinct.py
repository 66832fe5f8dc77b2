"""Tests for L0 estimation: SIS sketch (Theorem 1.5), exact, KMV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream import Update
from repro.crypto.sis import SISParams
from repro.distinct.exact_l0 import ExactL0
from repro.distinct.kmv import KMVEstimator
from repro.distinct.sis_l0 import SisL0Estimator
from repro.workloads.turnstile import insert_delete_stream, sparse_survivors_stream


class TestExactL0:
    def test_counts_distinct(self):
        algorithm = ExactL0(100)
        for item in (1, 1, 2, 3):
            algorithm.feed(Update(item))
        assert algorithm.query() == 3

    def test_deletions_cancel(self):
        algorithm = ExactL0(100)
        algorithm.feed(Update(5, 2))
        algorithm.feed(Update(5, -2))
        assert algorithm.query() == 0

    def test_universe_bound(self):
        with pytest.raises(ValueError):
            ExactL0(10).feed(Update(10))


class TestSisL0:
    def test_validation(self):
        with pytest.raises(ValueError):
            SisL0Estimator(universe_size=1)

    def test_universe_bound(self):
        estimator = SisL0Estimator(universe_size=64, eps=0.5, c=0.25)
        with pytest.raises(ValueError):
            estimator.feed(Update(64))

    def test_zero_delta_is_noop(self):
        estimator = SisL0Estimator(universe_size=64, eps=0.5, c=0.25)
        estimator.feed(Update(3, 0))
        assert estimator.query() == 0

    def test_bound_on_planted_survivors(self):
        estimator = SisL0Estimator(universe_size=256, eps=0.5, c=0.25, seed=1)
        updates, true_l0 = sparse_survivors_stream(256, 30, seed=1)
        for update in updates:
            estimator.feed(update)
        z = estimator.query()
        assert z <= true_l0 <= z * estimator.approximation_factor()

    def test_full_cancellation_returns_zero(self):
        estimator = SisL0Estimator(universe_size=64, eps=0.5, c=0.25, seed=2)
        for item in range(20):
            estimator.feed(Update(item, 3))
        for item in range(20):
            estimator.feed(Update(item, -3))
        assert estimator.query() == 0
        assert estimator.sketches == {}  # sparse bookkeeping reclaimed

    def test_churn_stream_sees_through_noise(self):
        estimator = SisL0Estimator(universe_size=512, eps=0.5, c=0.25, seed=3)
        updates = insert_delete_stream(
            512, survivors=[1, 200, 400], churn_items=100, churn_rounds=2, seed=3
        )
        for update in updates:
            estimator.feed(update)
        z = estimator.query()
        assert z <= 3 <= z * estimator.approximation_factor()

    @given(st.lists(st.integers(0, 63), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_upper_bound_never_violated_on_insertions(self, items):
        """z <= L0 always (a nonzero sketch implies a nonzero chunk)."""
        estimator = SisL0Estimator(universe_size=64, eps=0.5, c=0.25, seed=4)
        distinct = set()
        for item in items:
            estimator.feed(Update(item))
            distinct.add(item)
        assert estimator.query() <= len(distinct)
        assert len(distinct) <= estimator.query() * estimator.approximation_factor()

    def test_oracle_mode_space_is_smaller(self):
        explicit = SisL0Estimator(universe_size=1024, eps=0.5, c=0.25, mode="explicit")
        oracle = SisL0Estimator(universe_size=1024, eps=0.5, c=0.25, mode="oracle")
        assert oracle.space_bits() < explicit.space_bits()

    def test_oracle_mode_is_correct(self):
        estimator = SisL0Estimator(universe_size=256, eps=0.5, c=0.25, mode="oracle", seed=5)
        updates, true_l0 = sparse_survivors_stream(256, 20, seed=5)
        for update in updates:
            estimator.feed(update)
        z = estimator.query()
        assert z <= true_l0 <= z * estimator.approximation_factor()

    def test_geometric_estimate_centers_the_error(self):
        estimator = SisL0Estimator(universe_size=256, eps=0.5, c=0.25, seed=6)
        estimator.feed(Update(0, 1))
        assert estimator.estimate_geometric() == pytest.approx(
            estimator.approximation_factor() ** 0.5
        )

    def test_custom_params_accepted(self):
        params = SISParams(rows=2, cols=8, modulus=97, beta=50.0)
        estimator = SisL0Estimator(universe_size=64, params=params)
        assert estimator.chunk_width == 8
        assert estimator.num_chunks == 8

    def test_dense_merge_matches_the_modulo_sum(self):
        """The dense merge subtracts q where a register sum reaches it:
        the registers ``(a + b) % q`` gives, for every pair drawn from 0,
        1, q // 2, q - 2 and q - 1, in a new table (a fork's stays its
        own) and with the other side's untouched."""
        params = SISParams(rows=4, cols=8, modulus=97, beta=50.0)
        left = SisL0Estimator(universe_size=64, params=params, seed=8)
        right = SisL0Estimator(universe_size=64, params=params, seed=8)
        assert left.int64_fast_path and left._dense.shape == (8, 4)
        q = params.modulus
        edges = [0, 1, q // 2, q - 2, q - 1]
        mine, theirs = np.zeros((2, 32), dtype=np.int64)
        mine[:25], theirs[:25] = zip(*[(a, b) for a in edges for b in edges])
        left._dense, right._dense = mine.reshape(8, 4), theirs.reshape(8, 4).copy()
        expected = (left._dense + right._dense) % q
        before = left._dense
        left.merge(right)
        assert np.array_equal(left._dense, expected)
        assert left._dense is not before
        assert np.array_equal(before, mine.reshape(8, 4))
        assert np.array_equal(right._dense, theirs.reshape(8, 4))

    def test_state_view(self):
        estimator = SisL0Estimator(universe_size=64, eps=0.5, c=0.25, seed=7)
        estimator.feed(Update(9, 2))
        view = estimator.state_view()
        assert view["mode"] == "explicit"
        assert len(view["nonzero_sketches"]) == 1


class TestKMV:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMVEstimator(100, k=1)

    def test_exact_below_k(self):
        estimator = KMVEstimator(1000, k=32, seed=1)
        for item in range(10):
            estimator.feed(Update(item))
        assert estimator.query() == 10.0

    def test_rejects_deletions(self):
        with pytest.raises(ValueError):
            KMVEstimator(100, k=4).feed(Update(1, -1))

    def test_oblivious_accuracy(self):
        errors = []
        for seed in range(10):
            estimator = KMVEstimator(100_000, k=64, seed=seed)
            for item in range(0, 5000):
                estimator.feed(Update(item))
            errors.append(abs(estimator.query() - 5000) / 5000)
        errors.sort()
        assert errors[len(errors) // 2] < 0.3  # median within 30%

    def test_duplicates_ignored(self):
        estimator = KMVEstimator(1000, k=8, seed=2)
        for _ in range(100):
            estimator.feed(Update(7))
        assert estimator.query() == 1.0

    def test_state_exposes_hash(self):
        estimator = KMVEstimator(100, k=4, seed=3)
        view = estimator.state_view()
        assert "hash_a" in view and "hash_b" in view and "prime" in view
