"""Tests for witnessed randomness: visibility, determinism, batched draws."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import DeterministicAlgorithm
from repro.core.randomness import RandomDraw, WitnessedRandom
from repro.core.stream import Update


class TestWitnessing:
    def test_seed_is_first_transcript_entry(self):
        source = WitnessedRandom(seed=42)
        assert source.transcript[0] == RandomDraw("seed", 42)

    def test_every_draw_is_recorded(self):
        source = WitnessedRandom(seed=1)
        source.bit()
        source.randint(0, 9)
        source.bernoulli(0.5)
        source.sign()
        labels = [draw.label for draw in source.transcript]
        assert labels == ["seed", "bit", "randint(0,9)", "bernoulli", "sign"]
        assert source.draws == 4

    def test_same_seed_same_draws(self):
        a = WitnessedRandom(seed=7)
        b = WitnessedRandom(seed=7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_retention_bounds_memory_not_count(self):
        source = WitnessedRandom(seed=0, retain=8)
        for _ in range(100):
            source.bit()
        assert source.draws == 100
        assert len(source.transcript) == 8

    def test_draws_since_marker(self):
        source = WitnessedRandom(seed=0, retain=None)
        source.bit()
        marker = source.mark()
        source.bit()
        source.bit()
        assert len(source.draws_since(marker)) == 2
        assert source.draws_since(source.mark()) == ()

    def test_spawn_records_child_seed(self):
        parent = WitnessedRandom(seed=3)
        child = parent.spawn("sub")
        spawn_draw = parent.transcript[-1]
        assert spawn_draw.label == "spawn(sub)"
        assert child.seed == spawn_draw.value

    def test_deep_copy_is_an_independent_clone(self):
        source = WitnessedRandom(seed=12, retain=16)
        for _ in range(5):
            source.randint(0, 1 << 30)
        clone = copy.deepcopy(source)
        assert clone.seed == source.seed and clone.draws == source.draws
        assert clone.transcript == source.transcript
        assert clone._transcript.maxlen == 16
        # Same generator state: both draw the same next values ...
        ahead = [source.randint(0, 1 << 30) for _ in range(10)]
        before = clone.transcript
        assert [clone.randint(0, 1 << 30) for _ in range(10)] == ahead
        # ... and drawing from one left the other's transcript alone.
        assert clone.transcript != before
        assert source.transcript == clone.transcript
        source.bits(9)
        assert clone.draws == source.draws - 1
        assert clone.transcript[-1].label == "randint(0,1073741824)"
        # The memo keeps one clone per source inside a copied holder.
        holder = copy.deepcopy({"a": source, "b": source})
        assert holder["a"] is holder["b"] and holder["a"] is not source


class TestDrawDomains:
    def test_bits_range(self):
        source = WitnessedRandom(seed=5)
        for _ in range(50):
            assert 0 <= source.bits(7) < 128

    def test_bits_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WitnessedRandom().bits(0)

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            WitnessedRandom().bernoulli(1.5)

    def test_sign_values(self):
        source = WitnessedRandom(seed=9)
        values = {source.sign() for _ in range(64)}
        assert values == {-1, 1}

    def test_choice_and_shuffle(self):
        source = WitnessedRandom(seed=2)
        items = [1, 2, 3, 4]
        assert source.choice(items) in items
        source.shuffle(items)
        assert sorted(items) == [1, 2, 3, 4]


class TestBatchedDraws:
    def test_binomial_edge_cases(self):
        source = WitnessedRandom(seed=1)
        assert source.binomial(0, 0.5) == 0
        assert source.binomial(10, 0.0) == 0
        assert source.binomial(10, 1.0) == 10

    def test_binomial_rejects_bad_args(self):
        source = WitnessedRandom()
        with pytest.raises(ValueError):
            source.binomial(-1, 0.5)
        with pytest.raises(ValueError):
            source.binomial(3, 1.5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.floats(0.05, 0.95))
    def test_binomial_within_support(self, trials, p):
        source = WitnessedRandom(seed=trials)
        value = source.binomial(trials, p)
        assert 0 <= value <= trials

    def test_binomial_mean_roughly_right(self):
        source = WitnessedRandom(seed=11)
        total = sum(source.binomial(1000, 0.3) for _ in range(200))
        mean = total / 200
        assert 270 <= mean <= 330  # 10 sigma margin, deterministic seed

    def test_geometric_positive(self):
        source = WitnessedRandom(seed=4)
        for _ in range(100):
            assert source.geometric(0.3) >= 1

    def test_geometric_certain_success(self):
        assert WitnessedRandom().geometric(1.0) == 1

    def test_geometric_rejects_zero(self):
        with pytest.raises(ValueError):
            WitnessedRandom().geometric(0.0)

    def test_geometric_mean_roughly_inverse_p(self):
        source = WitnessedRandom(seed=8)
        draws = [source.geometric(0.2) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 4.0 <= mean <= 6.0  # E = 5


class TestDeterminismEnforcement:
    def test_deterministic_algorithm_cannot_draw(self):
        class Probe(DeterministicAlgorithm):
            def process(self, update: Update) -> None:
                self.random.bit()

            def query(self):
                return None

            def space_bits(self):
                return 1

        probe = Probe()
        with pytest.raises(RuntimeError, match="deterministic"):
            probe.process(Update(0, 1))
