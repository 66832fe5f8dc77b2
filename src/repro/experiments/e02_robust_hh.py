"""E02 -- Robust eps-L1 heavy hitters vs Misra-Gries (Theorem 1.1, Alg 2).

The theorem's shape: Misra-Gries pays ``O((1/eps)(log m + log n))`` bits --
its counters are sized for the stream length -- while Algorithm 2 pays
``O((1/eps)(log n + log 1/eps) + log log m)``: the only ``m``-dependence
left is the Morris clock's ``log log m``.  Sweeping ``m`` with everything
else fixed, MG's space climbs with ``log m`` and the robust algorithm's
stays flat; recall of planted heavy hitters stays perfect for both.
"""

from __future__ import annotations

import random

from repro.core.engine import StreamEngine
from repro.core.stream import Update
from repro.experiments.base import ExperimentResult, register
from repro.heavyhitters.count_min import CountMinSketch
from repro.heavyhitters.misra_gries import MisraGriesAlgorithm
from repro.heavyhitters.robust_l1 import RobustL1HeavyHitters
from repro.parallel import ShardedAlgorithm

__all__ = ["run", "batched_planted_stream"]


def batched_planted_stream(
    universe_size: int,
    length: int,
    heavies: dict[int, float],
    batch: int = 64,
    seed: int = 0,
):
    """Planted-heavy stream emitted as batched updates (exact semantics:
    every algorithm here treats delta=d as d unit coins)."""
    rng = random.Random(seed)
    items: list[int] = []
    weights: list[float] = []
    heavy_total = sum(heavies.values())
    for item, fraction in heavies.items():
        items.append(item)
        weights.append(fraction)
    items.append(-1)  # background marker
    weights.append(1.0 - heavy_total)
    emitted = 0
    while emitted < length:
        size = min(batch, length - emitted)
        pick = rng.choices(items, weights=weights, k=1)[0]
        if pick == -1:
            # Background: spread the batch over random distinct items.
            for _ in range(size):
                item = rng.randrange(universe_size)
                while item in heavies:
                    item = rng.randrange(universe_size)
                yield Update(item, 1)
        else:
            yield Update(pick, size)
        emitted += size


@register("e02")
def run(
    quick: bool = True, shards: int = 1, checkpoint: str | None = None
) -> ExperimentResult:
    """Run E02: Algorithm 2 vs Misra-Gries space (Theorem 1.1).

    With ``shards > 1`` the same planted streams additionally drive a
    CountMin sketch both single-engine and sharded; ``cm_sharded_match``
    certifies the merged shard table is bit-identical and ``cm_recall``
    shows the sharded estimates flag every planted heavy hitter.  (The
    robust Algorithm 2 itself draws per-update randomness, so it is driven
    unsharded -- sharding in this library is for mergeable sketches.)

    With ``checkpoint`` set, a CountMin run over a planted stream is
    killed halfway, checkpointed to that path, resumed in a fresh
    instance, and certified bit-identical to the uninterrupted run
    (``checkpoint_resume_ok`` row).
    """
    universe = 100_000
    lengths = [10**4, 10**5, 10**6] if quick else [10**4, 10**5, 10**6, 10**7]
    engine = StreamEngine()
    rows = []
    for eps in (0.1, 0.05):
        heavies = {7: 2.5 * eps, 42: 1.5 * eps, 99: eps}
        true_heavy = set(heavies)
        for m in lengths:
            mg = MisraGriesAlgorithm(universe_size=universe, accuracy=eps)
            robust = RobustL1HeavyHitters(
                universe_size=universe, accuracy=eps, seed=17
            )
            engine.drive(
                [mg, robust], batched_planted_stream(universe, m, heavies, seed=m)
            )
            mg_found = mg.heavy_hitters()
            robust_found = robust.heavy_hitters()
            row = {
                "eps": eps,
                "m": m,
                "mg_bits": mg.space_bits(),
                "robust_bits": robust.space_bits(),
                "mg_recall": len(true_heavy & mg_found) / len(true_heavy),
                "robust_recall": len(true_heavy & robust_found) / len(true_heavy),
                "robust_candidates": len(robust.query()),
            }
            if shards > 1:
                def make_cm(universe=universe, eps=eps):
                    width = max(16, int(round(4.0 / eps)))
                    return CountMinSketch(universe, width=width, depth=4, seed=23)

                single_cm = make_cm()
                engine.drive(
                    single_cm, batched_planted_stream(universe, m, heavies, seed=m)
                )
                sharded = ShardedAlgorithm(make_cm, num_shards=shards)
                engine.drive(
                    sharded, batched_planted_stream(universe, m, heavies, seed=m)
                )
                merged = sharded.merged()
                # One batched point query over the fleet (one merge fan-in,
                # one vectorized estimate pass) instead of per-item calls.
                candidates = sorted(true_heavy)
                estimates = sharded.estimate_batch(candidates)
                found = {
                    item
                    for item, estimate in zip(candidates, estimates.tolist())
                    if estimate >= eps * m
                }
                row["shards"] = shards
                row["cm_sharded_match"] = (
                    merged.table.tolist() == single_cm.table.tolist()
                    and merged.total == single_cm.total
                )
                if not row["cm_sharded_match"]:
                    # Engineering invariant, not a statistical outcome: a
                    # divergent merge must fail loudly (see e06).
                    raise RuntimeError(
                        f"e02: {shards}-shard merged CountMin diverged at "
                        f"eps={eps}, m={m}"
                    )
                row["cm_recall"] = len(found) / len(true_heavy)
            rows.append(row)
    if checkpoint is not None:
        from repro.core.stream import updates_to_arrays
        from repro.distributed.checkpoint import verify_checkpoint_resume

        items, deltas = updates_to_arrays(
            list(
                batched_planted_stream(
                    universe, 50_000, {7: 0.25, 42: 0.15, 99: 0.1}, seed=7
                )
            )
        )
        resumed_ok = verify_checkpoint_resume(
            lambda: CountMinSketch(universe, width=64, depth=4, seed=23),
            items,
            deltas,
            checkpoint,
        )
        if not resumed_ok:
            # Engineering invariant, like the sharded-match columns: a
            # resumed run that diverges is a bug and must fail loudly.
            raise RuntimeError("e02: checkpoint resume diverged from the "
                               "uninterrupted CountMin run")
        rows.append(
            {
                "eps": "ckpt",
                "m": len(items),
                "checkpoint_resume_ok": resumed_ok,
            }
        )
    # Crossover commentary: robust bits flat vs MG growing.
    return ExperimentResult(
        experiment_id="e02",
        title="Robust eps-L1 heavy hitters vs Misra-Gries (Theorem 1.1)",
        claim="Algorithm 2 removes MG's log m factor: "
        "O((1/eps)(log n + log 1/eps) + log log m) bits",
        rows=rows,
        conclusion=(
            "MG space grows with log m (counter registers track the stream "
            "length) while the robust algorithm's space is m-independent up "
            "to the log log m Morris clock; both keep perfect recall of the "
            "planted heavy hitters."
        ),
        notes=[
            "Constant factors favor MG at short streams (the robust "
            "algorithm runs 2 sampled-MG instances of capacity 4/eps); the "
            "paper's claim is asymptotic in m, visible as the flat robust "
            "column against the climbing MG column."
        ],
    )
