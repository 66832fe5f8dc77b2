"""E11 -- White-box attacks on oblivious sketches (the Omega(n) bounds' teeth).

Theorems 1.9/1.10 say sublinear constant-factor F_p / rank estimation is
impossible against white-box adversaries.  The constructive face: every
standard sublinear sketch falls to a cheap kernel attack once its
randomness is visible, while the linear-space exact algorithms shrug the
same adversary off.

Rows: attack success rates over seeds for AMS (F2), CountSketch (F2),
KMV (L0, both directions), and the exact-F2 negative control.
"""

from __future__ import annotations

from repro.adversaries.distinct_attack import attack_kmv
from repro.adversaries.sketch_attack import (
    ams_attack_updates,
    count_sketch_kernel_vector,
)
from repro.core.adversary import ObliviousAdversary
from repro.core.engine import StreamEngine
from repro.core.game import frequency_truth
from repro.core.stream import Update
from repro.distinct.kmv import KMVEstimator
from repro.experiments.base import ExperimentResult, register
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
from repro.moments.frequency import ExactFpMoment
from repro.parallel import ShardedAlgorithm

__all__ = ["run"]


@register("e11")
def run(
    quick: bool = True, shards: int = 1, checkpoint: str | None = None
) -> ExperimentResult:
    """Run E11: white-box attacks vs the Omega(n) dichotomy (Thm 1.9).

    With ``shards > 1`` the AMS kernel attack is replayed against a
    *sharded* AMS deployment through the batched white-box game: the
    attacker reads the merged state view (exactly what a single engine
    would expose), streams the kernel, and wins identically -- sharding
    relocates state, it does not hide it.  The row also reports the
    array-native game transcript recorded by the batched loop.

    With ``checkpoint`` set, an AMS deployment is killed mid-stream,
    resumed from the checkpoint file, and certified bit-identical -- and
    because snapshots carry the full mutable state, the kernel attack
    works against a restored sketch exactly as against the original
    (recovery does not re-randomize; the white-box model would not let
    it hide anyway).
    """
    trials = 5 if quick else 25
    universe = 64
    rows = []

    # AMS: stream the kernel, sketch reads 0, truth is ||v||^2 > 0.
    successes = 0
    for seed in range(trials):
        sketch = AMSSketch(universe_size=universe, rows=6, seed=seed)
        updates = ams_attack_updates(sketch)
        truth = sum(u.delta * u.delta for u in updates)
        # Kernel coefficients may exceed int64; the engine detects that and
        # keeps exact per-update arithmetic.
        StreamEngine().drive(sketch, updates)
        if sketch.query() == 0 and truth > 0:
            successes += 1
    rows.append(
        {
            "target": "AMS (rows=6)",
            "attack": "kernel stream",
            "success_rate": successes / trials,
            "space_vs_n": "sublinear",
        }
    )

    # CountSketch F2: same attack through its (depth*width)-row map.
    successes = 0
    for seed in range(trials):
        sketch = CountSketch(universe_size=universe, width=4, depth=3, seed=seed)
        kernel = count_sketch_kernel_vector(sketch)
        truth = sum(v * v for v in kernel)
        for item, value in enumerate(kernel):
            if value:
                sketch.feed(Update(item, value))
        if sketch.query() == 0 and truth > 0:
            successes += 1
    rows.append(
        {
            "target": "CountSketch 3x4",
            "attack": "kernel stream",
            "success_rate": successes / trials,
            "space_vs_n": "sublinear",
        }
    )

    # Sharded AMS: the same kernel attack through the sharded game loop.
    if shards > 1:
        successes = 0
        trace_chunks = 0
        for seed in range(trials):
            fleet = ShardedAlgorithm(
                lambda seed=seed: AMSSketch(universe_size=universe, rows=6, seed=seed),
                num_shards=shards,
            )
            # The white-box adversary reads the merged view -- the same
            # sign seeds a single engine would expose -- and commits to a
            # kernel stream (oblivious replay batches through the game).
            updates = ams_attack_updates(fleet.merged())
            truth = sum(u.delta * u.delta for u in updates)
            result = StreamEngine(chunk_size=4).play(
                fleet,
                ObliviousAdversary(updates),
                frequency_truth(universe, lambda v: v.fp_moment(2)),
                validator=lambda answer, exact: answer == exact,
                max_rounds=len(updates),
                query_every=len(updates),
            )
            trace_chunks = max(trace_chunks, len(result.chunk_rounds))
            if fleet.query() == 0 and truth > 0 and not result.algorithm_won:
                successes += 1
        rows.append(
            {
                "target": f"AMS (rows=6) x{shards} shards",
                "attack": "kernel stream vs merged view",
                "success_rate": successes / trials,
                "space_vs_n": "sublinear",
                "trace_chunks": trace_chunks,
            }
        )

    # KMV: hash-order attacks in both directions.
    for direction in ("inflate", "suppress"):
        successes = 0
        for seed in range(trials):
            kmv = KMVEstimator(universe_size=4096, k=16, seed=seed)
            report = attack_kmv(kmv, direction=direction, factor_goal=4.0)
            if report.succeeded:
                successes += 1
        rows.append(
            {
                "target": "KMV k=16",
                "attack": f"hash-order {direction}",
                "success_rate": successes / trials,
                "space_vs_n": "sublinear",
            }
        )

    # Negative control: exact F2 under the same kernel stream is correct.
    survived = 0
    for seed in range(trials):
        probe = AMSSketch(universe_size=universe, rows=6, seed=seed)
        updates = ams_attack_updates(probe)
        exact = ExactFpMoment(universe_size=universe, p=2)
        StreamEngine().drive(exact, updates)
        truth = sum(u.delta * u.delta for u in updates)
        if exact.query() == truth:
            survived += 1
    rows.append(
        {
            "target": "exact F2",
            "attack": "kernel stream",
            "success_rate": 1.0 - survived / trials,
            "space_vs_n": "linear (Omega(n) per Thm 1.9)",
        }
    )
    if checkpoint is not None:
        from repro.distributed.checkpoint import verify_checkpoint_resume
        from repro.workloads.frequency import uniform_arrays

        items, deltas = uniform_arrays(universe, 20_000, seed=13)
        resumed_ok = verify_checkpoint_resume(
            lambda: AMSSketch(universe_size=universe, rows=6, seed=3),
            items,
            deltas,
            checkpoint,
        )
        if not resumed_ok:
            raise RuntimeError("e11: checkpoint resume diverged from the "
                               "uninterrupted AMS run")
        # The attack-after-recovery demonstration: restore the mid-stream
        # state from the file and stream a kernel vector at it.  The
        # sketch stays *blind* -- its answer does not move while the true
        # F2 jumps by ||v||^2 -- because recovery restores the same public
        # sign seeds the attacker reads from the snapshot.
        from repro.distributed.checkpoint import resume_from

        recovered = AMSSketch(universe_size=universe, rows=6, seed=3)
        resume_from(checkpoint, recovered)
        answer_before = recovered.query()
        attack = ams_attack_updates(recovered)
        truth = sum(u.delta * u.delta for u in attack)
        StreamEngine().drive(recovered, attack)
        blind = recovered.query() == answer_before and truth > 0
        rows.append(
            {
                "target": "AMS (resumed from checkpoint)",
                "attack": "kernel stream post-recovery",
                "success_rate": 1.0 if blind else 0.0,
                "space_vs_n": "sublinear",
                "checkpoint_resume_ok": resumed_ok,
            }
        )
    return ExperimentResult(
        experiment_id="e11",
        title="White-box kernel/hash attacks on oblivious sketches (Thm 1.9)",
        claim="sublinear linear sketches and order-statistic estimators are "
        "breakable at poly(sketch) cost once their randomness is visible",
        rows=rows,
        conclusion=(
            "Every sublinear target falls with success rate 1.0; the exact "
            "(linear-space) algorithm is untouched -- matching the Omega(n) "
            "lower bound's dichotomy."
        ),
    )
