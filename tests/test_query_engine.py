"""Batch-vs-scalar estimate equivalence: the query engine's contract.

``estimate_batch`` must return values bit/float-identical to calling the
scalar ``estimate`` once per probe item -- same integers, same float
roundings, same tie resolutions -- on every tier (native kernels, numpy
fallbacks, exact scalar fallbacks) and every view (single engine,
sharded-merged fleet).  These tests pin that per family, plus the
satellite contracts that ride with the query engine: fingerprinted state
views, the ``f2_estimate`` einsum path, and the games' batched per-round
query path.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.adversary import ObliviousAdversary
from repro.core.engine import StreamEngine
from repro.core.game import frequency_truth, run_game
from repro.core.stream import Update, lookup_counters_batch, table_fingerprint
from repro.heavyhitters.bern_mg import BernMG
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.heavyhitters.misra_gries import MisraGries, MisraGriesAlgorithm
from repro.heavyhitters.phi_eps import PhiEpsilonHeavyHitters
from repro.heavyhitters.robust_l1 import RobustL1HeavyHitters
from repro.heavyhitters.space_saving import SpaceSaving
from repro.parallel import ShardedAlgorithm

REPO_ROOT = Path(__file__).resolve().parent.parent


def scalar_reference(sketch, probe):
    """The per-item answers every batched path must reproduce."""
    return [sketch.estimate(int(item)) for item in probe]


def filled_count_min(universe=2000, seed=3):
    sketch = CountMinSketch(universe, width=32, depth=4, seed=seed)
    rng = np.random.default_rng(seed)
    sketch.feed_batch(
        rng.integers(0, universe, 6000, dtype=np.int64),
        rng.integers(-4, 9, 6000, dtype=np.int64),
    )
    return sketch


def filled_count_sketch(depth, universe=2000, seed=5):
    sketch = CountSketch(universe, width=32, depth=depth, seed=seed)
    rng = np.random.default_rng(seed)
    sketch.feed_batch(
        rng.integers(0, universe, 6000, dtype=np.int64),
        rng.integers(-4, 9, 6000, dtype=np.int64),
    )
    return sketch


PROBE_SETS = [
    [],  # empty
    [7],  # singleton
    [3, 3, 3, 1999, 3],  # duplicates
    list(range(0, 2000, 7)),
]


class TestCountMinEquivalence:
    @pytest.mark.parametrize("probe", PROBE_SETS)
    def test_exact_equality(self, probe):
        sketch = filled_count_min()
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_out_of_universe_probes(self):
        """Items beyond the universe answer exactly like the scalar path."""
        sketch = filled_count_min()
        probe = [0, 2000, 5000, sketch.prime - 1]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_beyond_hash_domain_falls_back(self):
        """Probes at/above the prime keep the scalar path's answers."""
        sketch = filled_count_min()
        probe = [1, sketch.prime, sketch.prime + 17]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_promoted_object_table(self):
        """Huge-coefficient (promoted) tables answer exactly."""
        sketch = CountMinSketch(100, width=8, depth=3, seed=1)
        huge = 2**70
        sketch.feed(Update(5, huge))
        sketch.feed(Update(9, -huge))
        assert sketch.table.dtype == object
        probe = [5, 9, 11, 5]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_beyond_int64_probe_items(self):
        """Probe items that overflow int64 route through the exact loop."""
        sketch = filled_count_min()
        probe = [3, 2**70, 7]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )


class TestCountSketchEquivalence:
    @pytest.mark.parametrize("depth", [1, 3, 4, 5, 6])
    def test_bit_identical_median_all_depths(self, depth):
        """Odd and even depths: the numpy median equals the scalar one."""
        sketch = filled_count_sketch(depth)
        probe = list(range(0, 2000, 3))
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_even_depth_tie_cases(self):
        """Midpoint ties (equal middle values) agree with the scalar sort."""
        sketch = CountSketch(50, width=4, depth=4, seed=2)
        # A tiny sparse load produces many zero cells -> tied medians.
        sketch.feed(Update(3, 5))
        probe = list(range(50))
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    @pytest.mark.parametrize("probe", PROBE_SETS)
    def test_probe_set_shapes(self, probe):
        sketch = filled_count_sketch(depth=4)
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_promoted_object_table(self):
        sketch = CountSketch(100, width=8, depth=3, seed=1)
        huge = 2**70
        sketch.feed(Update(5, huge))
        sketch.feed(Update(9, huge + 3))
        assert sketch.table.dtype == object
        probe = [5, 9, 11]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )

    def test_rounding_past_float53(self):
        """Midpoint sums beyond 2^53 keep the scalar path's rounding."""
        sketch = CountSketch(100, width=8, depth=2, seed=4)
        sketch.feed(Update(5, 2**60 + 1))
        sketch.feed(Update(9, 2**59 + 3))
        probe = [5, 9, 11, 23]
        assert sketch.estimate_batch(probe).tolist() == scalar_reference(
            sketch, probe
        )


class TestCounterSummaryEquivalence:
    def build_summaries(self):
        mg, ss = MisraGries(12), SpaceSaving(12)
        rng = np.random.default_rng(7)
        for item in rng.integers(0, 60, 4000).tolist():
            mg.offer(item)
            ss.offer(item)
        return mg, ss

    @pytest.mark.parametrize(
        "probe", [[], [4], [3, 3, 59, 3], list(range(-5, 80))]
    )
    def test_exact_equality(self, probe):
        mg, ss = self.build_summaries()
        for summary in (mg, ss):
            assert summary.estimate_batch(probe).tolist() == [
                summary.estimate(int(item)) for item in probe
            ]

    def test_space_saving_underfull_default(self):
        ss = SpaceSaving(8)
        ss.offer(3, 5)
        probe = [3, 4, 5]
        assert ss.estimate_batch(probe).tolist() == [5, 0, 0]

    def test_huge_counters_fall_back_exactly(self):
        mg = MisraGries(4)
        mg.offer(2, 2**70)
        probe = [2, 3]
        assert mg.estimate_batch(probe).tolist() == [mg.estimate(2), 0]

    def test_lookup_primitive_matches_dict(self):
        counters = {5: 9, 1: 4, 30: 2}
        probe = [0, 1, 5, 6, 30, 31, -2]
        assert lookup_counters_batch(counters, probe, default=7).tolist() == [
            counters.get(item, 7) for item in probe
        ]

    def test_misra_gries_algorithm_wrapper(self):
        algorithm = MisraGriesAlgorithm(universe_size=100, accuracy=0.2)
        for item in [3, 3, 9, 3, 41, 9]:
            algorithm.feed(Update(item, 1))
        probe = [3, 9, 41, 77]
        assert algorithm.estimate_batch(probe).tolist() == [
            algorithm.estimate(item) for item in probe
        ]


class TestSampledFamilyEquivalence:
    def test_bern_mg_float_identical(self):
        instance = BernMG(
            1000, length_guess=5000, accuracy=0.1,
            failure_probability=0.05, seed=9,
        )
        for item in range(3000):
            instance.process(Update(item % 37, 1))
        probe = list(range(0, 60))
        assert instance.estimate_batch(probe).tolist() == [
            instance.estimate(item) for item in probe
        ]

    def test_robust_l1_float_identical(self):
        algorithm = RobustL1HeavyHitters(
            universe_size=1000, accuracy=0.1, seed=11
        )
        for item in range(2000):
            algorithm.feed(Update(item % 23, 1))
        probe = list(range(0, 40))
        assert algorithm.estimate_batch(probe).tolist() == [
            algorithm.estimate(item) for item in probe
        ]

    def test_phi_eps_batched_query_and_estimates(self):
        algorithm = PhiEpsilonHeavyHitters(
            10_000, phi=0.2, accuracy=0.1, seed=13
        )
        for item in range(4000):
            algorithm.feed(Update(item % 4, 1))
        probe = list(range(0, 30))
        assert algorithm.estimate_batch(probe).tolist() == [
            algorithm.estimate(item) for item in probe
        ]
        # The batched candidate filter reports what the scalar loop did.
        active = algorithm.scheme.active
        bar = (algorithm.phi - algorithm.accuracy / 2.0) * max(
            1.0, algorithm.scheme.length_estimate()
        )
        scalar_report = frozenset(
            item
            for item in algorithm.identities.items()
            if active.estimate(algorithm._hash(item)) >= bar
        )
        assert algorithm.query() == scalar_report
        assert algorithm.query()  # the planted heavies actually report


class TestDefaultLoopProtocol:
    def test_default_loops_scalar_estimate(self):
        algorithm = MisraGriesAlgorithm(universe_size=50, accuracy=0.2)
        for item in [1, 1, 2]:
            algorithm.feed(Update(item, 1))
        from repro.core.algorithm import StreamAlgorithm

        base = StreamAlgorithm.estimate_batch(algorithm, [1, 2, 3])
        assert base.tolist() == [algorithm.estimate(i) for i in [1, 2, 3]]

    def test_algorithms_without_estimate_raise(self):
        from repro.distinct.exact_l0 import ExactL0

        with pytest.raises(TypeError):
            ExactL0(10).estimate_batch([1, 2])


class TestShardedEquivalence:
    def test_sharded_merged_matches_single_engine(self):
        rng = np.random.default_rng(17)
        items = rng.integers(0, 5000, 30_000, dtype=np.int64)
        deltas = rng.integers(-3, 6, 30_000, dtype=np.int64)

        def factory():
            return CountMinSketch(5000, width=64, depth=4, seed=19)

        single = factory()
        StreamEngine().drive_arrays(single, items, deltas)
        probe = rng.integers(0, 5000, 500, dtype=np.int64)
        for shards in (1, 3):
            fleet = ShardedAlgorithm(factory, num_shards=shards)
            StreamEngine().drive_arrays(fleet, items, deltas)
            assert (
                fleet.estimate_batch(probe).tolist()
                == single.estimate_batch(probe).tolist()
                == scalar_reference(single, probe)
            )

    def test_sharded_count_sketch_batches_too(self):
        rng = np.random.default_rng(23)
        items = rng.integers(0, 3000, 20_000, dtype=np.int64)
        deltas = rng.integers(-2, 5, 20_000, dtype=np.int64)

        def factory():
            return CountSketch(3000, width=32, depth=5, seed=29)

        single = factory()
        StreamEngine().drive_arrays(single, items, deltas)
        fleet = ShardedAlgorithm(factory, num_shards=4)
        StreamEngine().drive_arrays(fleet, items, deltas)
        probe = rng.integers(0, 3000, 400, dtype=np.int64)
        assert (
            fleet.estimate_batch(probe).tolist()
            == scalar_reference(single, probe)
        )


class TestNativeTierParity:
    def test_native_kernels_build_here(self):
        """This container carries a compiler; the fused estimate tier must
        be live so the parity subprocess below actually compares tiers."""
        if os.environ.get("REPRO_NATIVE_KERNELS", "").strip() == "0":
            pytest.skip("native tier disabled via REPRO_NATIVE_KERNELS=0")
        assert kernels.native_kernels_available()

    def test_numpy_tier_subprocess_matches(self):
        """REPRO_NATIVE_KERNELS=0 answers must equal the scalar loop too."""
        script = r"""
import numpy as np
from repro.core import kernels
assert not kernels.native_kernels_available()
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
rng = np.random.default_rng(31)
items = rng.integers(0, 4000, 8000, dtype=np.int64)
deltas = rng.integers(-3, 6, 8000, dtype=np.int64)
probe = rng.integers(0, 4000, 1500, dtype=np.int64)
for factory in (lambda: CountMinSketch(4000, 32, 4, seed=1),
                lambda: CountSketch(4000, 32, 5, seed=1)):
    sketch = factory()
    sketch.feed_batch(items, deltas)
    assert sketch.estimate_batch(probe).tolist() == [
        sketch.estimate(int(item)) for item in probe
    ]
ams = AMSSketch(500, rows=3, seed=7)
coords = np.arange(500, dtype=np.int64)
for row in range(3):
    assert ams.sign_row(row, coords).tolist() == [
        ams.sign(row, int(item)) for item in coords
    ]
print("query-fallback-ok")
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
        assert "query-fallback-ok" in result.stdout

    def test_ams_sign_kernel_matches_interpreter(self):
        """The MT19937 decode kernel replays CPython bit-for-bit."""
        from repro.moments.ams import AMSSketch

        sketch = AMSSketch(4000, rows=2, seed=41)
        coords = np.arange(4000, dtype=np.int64)
        for row in range(2):
            assert sketch.sign_row(row, coords).tolist() == [
                sketch.sign(row, int(item)) for item in coords
            ]


class TestStateFingerprints:
    def test_equal_states_fingerprint_equal(self):
        updates = [Update(3, 5), Update(9, -2), Update(3, 1)]
        for factory in (
            lambda: CountMinSketch(100, width=8, depth=3, seed=1),
            lambda: CountSketch(100, width=8, depth=3, seed=1),
        ):
            one, two = factory(), factory()
            for update in updates:
                one.feed(update)
                two.feed(update)
            assert dict(one.state_view().fields) == dict(
                two.state_view().fields
            )

    def test_mutated_states_fingerprint_differently(self):
        for factory in (
            lambda: CountMinSketch(100, width=8, depth=3, seed=1),
            lambda: CountSketch(100, width=8, depth=3, seed=1),
        ):
            one, two = factory(), factory()
            one.feed(Update(3, 5))
            two.feed(Update(3, 5))
            two.feed(Update(4, 1))
            assert (
                one.state_view()["table_digest"]
                != two.state_view()["table_digest"]
            )

    def test_fingerprint_covers_shape_and_values(self):
        flat = np.zeros(6, dtype=np.int64)
        assert table_fingerprint(flat) != table_fingerprint(
            flat.reshape(2, 3)
        )
        grid = np.arange(6, dtype=np.int64).reshape(2, 3)
        assert table_fingerprint(grid) == table_fingerprint(grid.copy())
        mutated = grid.copy()
        mutated[1, 2] += 1
        assert table_fingerprint(grid) != table_fingerprint(mutated)

    def test_fingerprint_equality_is_over_values_across_promotion(self):
        """A preemptively promoted table with int64-fitting cells equals
        its int64 twin -- the value semantics the tuple view had."""
        grid = np.arange(6, dtype=np.int64).reshape(2, 3)
        assert table_fingerprint(grid) == table_fingerprint(
            grid.astype(object)
        )
        huge = grid.astype(object)
        huge[0, 0] = 2**70
        assert table_fingerprint(huge) != table_fingerprint(grid)
        assert table_fingerprint(huge) == table_fingerprint(huge.copy())


class TestF2Einsum:
    def test_matches_exact_python_sum(self):
        sketch = filled_count_sketch(depth=5)
        exact = sorted(
            float(sum(v * v for v in row.tolist())) for row in sketch.table
        )
        assert sketch.f2_estimate() == exact[len(exact) // 2]

    @pytest.mark.parametrize("depth", [2, 4])
    def test_even_depth_midpoint(self, depth):
        sketch = filled_count_sketch(depth=depth)
        exact = sorted(
            float(sum(v * v for v in row.tolist())) for row in sketch.table
        )
        mid = depth // 2
        assert sketch.f2_estimate() == (exact[mid - 1] + exact[mid]) / 2.0

    def test_overflow_edge_uses_exact_path(self):
        """Squares past int64 take the exact path instead of wrapping."""
        sketch = CountSketch(100, width=8, depth=3, seed=4)
        big = 2**33  # big^2 * width would wrap int64
        sketch.feed(Update(5, big))
        sketch.feed(Update(9, big // 3))
        expected = sorted(
            float(sum(v * v for v in row.tolist())) for row in sketch.table
        )[1]
        assert sketch.f2_estimate() == expected
        assert sketch.f2_estimate() > 0


class TestGameProbePath:
    def test_batched_and_per_round_games_record_probe_estimates(self):
        updates = [Update(item % 40, 1) for item in range(800)]
        probe = np.arange(40, dtype=np.int64)

        def build():
            return (
                CountMinSketch(1000, width=32, depth=4, seed=1),
                ObliviousAdversary(list(updates)),
                frequency_truth(1000, lambda vector: vector.l1()),
            )

        algorithm, adversary, truth = build()
        batched = StreamEngine(chunk_size=128).play(
            algorithm, adversary, truth, lambda a, t: True,
            max_rounds=800, query_every=256, probe_items=probe,
        )
        assert batched.checkpoint_estimates
        trace = batched.trace_arrays()["checkpoint_estimates"]
        assert trace.shape[1] == probe.size
        assert batched.checkpoint_estimates[-1].tolist() == scalar_reference(
            algorithm, probe
        )

        algorithm, adversary, truth = build()
        per_round = run_game(
            algorithm, adversary, truth, lambda a, t: True,
            max_rounds=800, query_every=400, probe_items=probe,
        )
        assert per_round.checkpoint_rounds == [400, 800]
        # The paired transcript lists stay in lockstep in per-round mode.
        assert len(per_round.checkpoint_answers) == len(
            per_round.checkpoint_rounds
        )
        assert per_round.checkpoint_estimates[-1].tolist() == (
            scalar_reference(algorithm, probe)
        )
        # Final-state probes agree across the two game loops.
        assert (
            batched.checkpoint_estimates[-1].tolist()
            == per_round.checkpoint_estimates[-1].tolist()
        )
