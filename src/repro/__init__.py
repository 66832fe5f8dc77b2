"""repro -- reproduction of "The White-Box Adversarial Data Stream Model".

Paper: Ajtai, Braverman, Jayram, Silwal, Sun, Woodruff, Zhou (PODS 2022,
arXiv:2204.09136).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the theorem-by-theorem reproduction record.

Subpackages
-----------
core
    Streams, the white-box game, witnessed randomness, space accounting.
crypto
    CRHFs (discrete log), random oracle, SIS instances, lattice attacks.
counters
    Morris counters, deterministic counters, OBDD/interval machinery.
sampling
    Bernoulli and reservoir sampling.
heavyhitters
    Misra-Gries, SpaceSaving, CountMin/CountSketch, Algorithms 1-2,
    the (phi, eps) CRHF variant.
hhh
    Hierarchical heavy hitters (domain, [TMS12] baseline, Algorithms 3-4).
distinct
    L0 estimation: SIS sketches (Algorithm 5), exact and KMV baselines.
moments
    Exact F_p, AMS, robust inner products (Corollary 2.8).
linalg
    Modular/exact algebra, rank decision (Theorem 1.6), row basis.
strings
    Periods, Karp-Rabin (+Fermat attack), robust matching (Algorithm 6).
graphs
    Vertex-arrival neighborhood identification (Theorems 1.3/1.4).
comm
    Communication problems, protocols, the Theorem 1.8 reduction.
lowerbounds
    Executable Theorems 1.4, 1.9, 1.10, 1.11.
adversaries
    White-box attacks and adaptive stress adversaries.
workloads
    Stream generators for experiments and examples.
experiments
    The theorem-by-theorem experiment harness (``python -m
    repro.experiments``).
parallel
    The scaling layer: mergeable-sketch sharding (``ShardedAlgorithm``,
    driven by ``StreamEngine`` like any algorithm), universe
    partitioning, asyncio ingestion.
distributed
    The deployment layer: wire-format sketch snapshots, process-parallel
    shard workers (``backend="process"``), checkpoint/recovery.
service
    The network layer: the ``SketchServer`` asyncio TCP collector,
    sync/async clients, and the multi-server ``SketchCoordinator``.
obs
    The telemetry layer: mergeable metrics registry, chunk-level
    tracing, drift/budget monitors, Prometheus exposition.
api
    The versioned stable import surface (``from repro.api import ...``).
"""

__version__ = "1.5.0"

from repro.core import (
    FrequencyVector,
    GameResult,
    MergeableSketch,
    StateView,
    StreamAlgorithm,
    StreamEngine,
    Update,
    WhiteBoxAdversary,
    WitnessedRandom,
    run_game,
)

__all__ = [
    "FrequencyVector",
    "GameResult",
    "MergeableSketch",
    "StateView",
    "StreamAlgorithm",
    "StreamEngine",
    "Update",
    "WhiteBoxAdversary",
    "WitnessedRandom",
    "__version__",
    "run_game",
]
