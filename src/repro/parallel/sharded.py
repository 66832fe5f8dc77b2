"""The universe-partitioned sharded engine: N sketch replicas, one state.

Design
------
:class:`ShardedAlgorithm` wraps ``N`` replicas of one
:class:`~repro.core.algorithm.MergeableSketch` -- all built by a caller
factory from the *same* construction seed, so their hash functions / sign
vectors / SIS matrices coincide -- and routes every update to the shard
owning its item (:class:`~repro.parallel.partition.UniversePartitioner`).
Batches are partitioned with one vectorized hash and scattered with
order-preserving masks, so each shard consumes exactly the sub-stream of
its items, in stream order, through the same ``process_batch`` fast paths
a single engine would use.

Because the sketches are mergeable, the sum of the shard states *is* the
single-engine state: :meth:`ShardedAlgorithm.merged` forks shard 0 and
absorbs the rest, producing an instance whose tables, estimates,
``space_bits()`` and randomness transcript are bit-identical to one
replica fed the whole stream.  ``query``/``state_view``/``space_bits`` on
the wrapper answer from that merged view, which makes the wrapper a
drop-in :class:`~repro.core.algorithm.StreamAlgorithm`: the white-box game
(``StreamEngine.play``), adaptive adversaries reading per-round state
views, and every experiment driver see exactly the state they would
against a single engine.  Sharding changes *where* the work happens, never
what the adversary observes -- which is the point: the white-box model's
attacks work against sharded deployments too (experiment E11's
``--shards`` path demonstrates it).

:class:`ShardedStreamEngine` packages the wrapper with a
:class:`~repro.core.engine.StreamEngine` whose default chunk grows with the
shard count (each shard then scatters near-default-sized sub-chunks).
Three scatter backends share the routing/merge machinery:

* ``backend="serial"`` -- one process, one thread (the default);
* ``backend="thread"`` -- per-shard scatters on a thread pool; the numpy
  kernels release the GIL, so multi-core hosts overlap the array-bound
  work;
* ``backend="process"`` -- per-shard worker *processes*
  (:class:`repro.distributed.workers.ProcessShardPool`): chunk data
  travels through shared memory, fan-in travels as wire-format snapshots
  (:mod:`repro.distributed.codec`), and the Python-bound sketches (AMS
  sign evaluation, exact dicts, KMV heaps) parallelize past the GIL.
  The merged state stays bit-identical to the single-engine state -- the
  fan-in path *is* the multi-host merge protocol, run over localhost.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from repro.core.algorithm import MergeableSketch, StateView, StreamAlgorithm
from repro.core.engine import DEFAULT_CHUNK_SIZE, StreamEngine
from repro.core.game import GameResult, GroundTruth, Validator
from repro.core.adversary import WhiteBoxAdversary
from repro.core.stream import Update
from repro.distributed.replay import merge_states
from repro.obs import get_registry as _get_obs_registry
from repro.obs.monitors import SHARD_UPDATES_METRIC
from repro.parallel.partition import UniversePartitioner

__all__ = ["ShardedAlgorithm", "ShardedStreamEngine"]

_BACKENDS = ("serial", "thread", "process")

_obs_registry = _get_obs_registry()
# Routed-update counts per shard, counted parent-side *after* the
# partition split -- process-backend workers therefore never touch this
# series and the fleet merge cannot double-count.  The skew monitor
# (repro.obs.monitors.ShardSkewMonitor) diffs these series to detect an
# adversary aiming its stream at one shard.
_obs_shard_updates = _obs_registry.counter(
    SHARD_UPDATES_METRIC,
    "Updates routed to each shard by the universe partitioner",
)


class ShardedAlgorithm(StreamAlgorithm):
    """N mergeable replicas behind the single-algorithm interface.

    Parameters
    ----------
    factory:
        Zero-argument callable returning one replica.  It must return
        identically-constructed instances (same parameters, same seed) on
        every call; this is verified via the sketches' merge keys.
    num_shards:
        Number of replicas / universe parts.
    partitioner:
        Item -> shard map; defaults to a seed-0
        :class:`UniversePartitioner`.
    backend:
        ``"serial"`` (default), ``"thread"``, or ``"process"`` (see the
        module docstring).
    supervise:
        Process backend only: heal dead workers in place (respawn +
        baseline restore + journal replay, bit-exact) instead of failing
        the run.  See :class:`~repro.distributed.workers.ProcessShardPool`.
    snapshot_every:
        Per-shard baseline snapshot cadence (journaled feeds) under
        supervision; ``None`` keeps the pool default.
    """

    def __init__(
        self,
        factory: Callable[[], StreamAlgorithm],
        num_shards: int,
        partitioner: Optional[UniversePartitioner] = None,
        backend: str = "serial",
        supervise: bool = False,
        snapshot_every: Optional[int] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        super().__init__(seed=0)
        self.shards: list[StreamAlgorithm] = [factory() for _ in range(num_shards)]
        first = self.shards[0]
        if not isinstance(first, MergeableSketch):
            raise TypeError(
                f"{type(first).__name__} is not a MergeableSketch; only "
                "mergeable sketches can be sharded"
            )
        for shard in self.shards[1:]:
            # Raises early (TypeError/ValueError) if the factory is not
            # deterministic -- e.g. it forgot to pin the seed.
            first._check_mergeable(shard)
        self.num_shards = num_shards
        self.backend = backend
        self.partitioner = partitioner or UniversePartitioner(num_shards)
        self.name = f"sharded-{first.name}-x{num_shards}"
        self._executor = (
            ThreadPoolExecutor(
                max_workers=num_shards, thread_name_prefix="shard"
            )
            if backend == "thread" and num_shards > 1
            else None
        )
        if backend == "process":
            from repro.distributed.workers import (
                DEFAULT_SNAPSHOT_EVERY,
                ProcessShardPool,
            )

            # Workers inherit the replicas at fork; the parent's copies
            # stay empty and serve as fan-in templates for merged().
            self._pool = ProcessShardPool(
                self.shards,
                supervise=supervise,
                snapshot_every=(
                    DEFAULT_SNAPSHOT_EVERY
                    if snapshot_every is None
                    else snapshot_every
                ),
            )
        else:
            self._pool = None
        self._merged_cache: Optional[StreamAlgorithm] = None
        self._shard_counters = [
            _obs_shard_updates.bind(shard=str(index))
            for index in range(num_shards)
        ]

    def _live_pool(self):
        """The worker pool, or ``None`` for in-process backends.

        A closed process-backend wrapper raises instead of silently
        falling through to the parent's never-fed template replicas --
        the worker state is gone, so any further routing or query would
        return wrong answers without an error.
        """
        if self.backend == "process" and self._pool is None:
            raise RuntimeError(
                "process-backend ShardedAlgorithm is closed; its worker "
                "state is gone (resume from a checkpoint on a fresh fleet)"
            )
        return self._pool

    # -- routing -----------------------------------------------------------

    def process(self, update: Update) -> None:
        """Route one update to the shard owning its item."""
        pool = self._live_pool()
        self._merged_cache = None
        shard = self.partitioner.assign(update.item)
        if _obs_registry.enabled:
            with _obs_registry.lock:
                self._shard_counters[shard].add_unlocked(1)
        if pool is not None:
            pool.feed_updates(shard, [(update.item, update.delta)])
        else:
            self.shards[shard].feed(update)

    def process_batch(self, items, deltas) -> None:
        """Partition a chunk with one vectorized hash; scatter per shard.

        ``UniversePartitioner.split`` groups each shard's updates into one
        contiguous slice while preserving stream order -- with
        commutative/mergeable update rules that makes the merged final
        state independent of the interleaving.
        """
        pool = self._live_pool()
        self._merged_cache = None
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if items.size == 0:
            return
        parts = self.partitioner.split(items, deltas)
        if _obs_registry.enabled:
            with _obs_registry.lock:
                for index, part in enumerate(parts):
                    if part is not None:
                        self._shard_counters[index].add_unlocked(
                            len(part[0])
                        )
        if pool is not None:
            pool.scatter(parts)
        elif self._executor is not None:
            futures = [
                self._executor.submit(shard.feed_batch, part[0], part[1])
                for shard, part in zip(self.shards, parts)
                if part is not None
            ]
            for future in futures:
                future.result()
        else:
            for shard, part in zip(self.shards, parts):
                if part is not None:
                    shard.feed_batch(part[0], part[1])

    # -- the merged single-engine view --------------------------------------

    def merged(self) -> StreamAlgorithm:
        """A full sketch equal to one instance fed the whole stream.

        Forks shard 0 (whose construction randomness every replica
        shares) and absorbs the remaining shards through
        :func:`~repro.distributed.replay.merge_states`.  The process
        backend fans worker state in as wire-format snapshots, restored
        into construction twins, which is bit-identical to the
        in-process merge.  The result is cached until the next update;
        game loops that query every round pay one merge per round,
        exactly the coarseness the white-box model demands.
        """
        pool = self._live_pool()
        if self._merged_cache is None:
            states = self.shards if pool is None else pool.snapshots()
            self._merged_cache = merge_states(self.shards[0], states)
        return self._merged_cache

    def load_snapshot(self, data: bytes) -> None:
        """Load a wire-format snapshot into the fleet (checkpoint resume).

        The snapshot -- typically a checkpointed *merged* state -- lands
        in shard 0 whole; because merging is exact, a fleet holding the
        merged state in one shard and nothing in the others continues
        exactly like the uninterrupted deployment.  Intended for freshly
        constructed fleets; shard 0's previous state is replaced.
        """
        pool = self._live_pool()
        self._merged_cache = None
        if pool is not None:
            pool.restore(0, data)
        else:
            self.shards[0].restore(data)
        self.updates_processed = sum(self.shard_loads())

    def merge_snapshot(self, data: bytes) -> None:
        """Merge a wire-format snapshot into the fleet, keeping state.

        The additive sibling of :meth:`load_snapshot`: the snapshot is
        fingerprint-verified and *folded into* shard 0 instead of
        replacing it, so a server can absorb a dead peer's shards while
        its own keep counting (the coordinator's cross-server migration
        path).  Exactness is the merge property itself: fold order
        never changes the final state.
        """
        pool = self._live_pool()
        self._merged_cache = None
        if pool is not None:
            twin = self.shards[0].fork(pool.snapshot(0))
            twin.merge_snapshot(data)
            pool.restore(0, twin.snapshot())
        else:
            self.shards[0].merge_snapshot(data)
        self.updates_processed = sum(self.shard_loads())

    def query(self):
        return self.merged().query()

    def estimate_batch(self, items) -> np.ndarray:
        """Batched point estimates answered by the merged view.

        One fan-in (cached until the next update), then the underlying
        sketch's vectorized ``estimate_batch`` -- so games over fleets
        batch their probes exactly like single-engine games, with
        bit/float-identical answers.
        """
        return self.merged().estimate_batch(items)

    def state_view(self) -> StateView:
        """The merged white-box view: what a single engine would expose.

        The transcript is shard 0's, which equals every other shard's (one
        shared seed, no processing-time draws) and therefore the single
        engine's.
        """
        return self.merged().state_view()

    def space_bits(self) -> int:
        """Space of the merged state -- the single-engine accounting."""
        return self.merged().space_bits()

    def physical_space_bits(self) -> int:
        """What the deployment actually holds: every replica's state."""
        pool = self._live_pool()
        if pool is None:
            return sum(shard.space_bits() for shard in self.shards)
        template = self.shards[0]
        return sum(template.fork(state).space_bits() for state in pool.snapshots())

    def shard_loads(self) -> list[int]:
        """Updates routed to each shard so far (load-balance diagnostics)."""
        pool = self._live_pool()
        if pool is not None:
            return pool.shard_loads()
        return [shard.updates_processed for shard in self.shards]

    def health(self) -> dict:
        """Fleet liveness summary (the gateway's readiness input).

        Pipe-free by design: checks worker *process* liveness without a
        round-trip, so health probes never queue behind a scatter in
        flight.  In-process backends are alive as long as this object
        is; a closed process backend reports unhealthy instead of
        raising (probes must degrade, not error).
        """
        if self.backend == "process" and self._pool is None:
            return {
                "ok": False,
                "backend": self.backend,
                "num_shards": self.num_shards,
                "workers_alive": [False] * self.num_shards,
                "restarts": 0,
                "recovering": False,
                "supervised": False,
                "closed": True,
            }
        pool = self._pool
        alive = (
            pool.workers_alive()
            if pool is not None
            else [True] * self.num_shards
        )
        recovering = pool.recovering() if pool is not None else False
        supervised = bool(pool.supervise) if pool is not None else False
        # A dead worker under supervision is a *recovering* fleet, not a
        # failed one: the next synchronization point respawns it.  Not-ok
        # either way -- readiness flips until the rebuild completes.
        return {
            "ok": all(alive) and not recovering,
            "backend": self.backend,
            "num_shards": self.num_shards,
            "workers_alive": alive,
            "restarts": sum(pool.restarts) if pool is not None else 0,
            "recovering": recovering or (supervised and not all(alive)),
            "supervised": supervised,
            "closed": False,
        }

    def metrics_snapshot(self) -> dict:
        """The fleet's merged obs-registry snapshot.

        In-process backends share the parent's process-wide registry, so
        its snapshot already covers every shard.  The process backend
        merges the parent's snapshot with every worker's
        (:meth:`ProcessShardPool.metric_snapshots`) through the same
        commutative fan-in the sketches use -- counters like
        ``repro_sketch_updates_total`` come out bit-identical to the
        serial backend's.
        """
        from repro.obs import get_registry, merge_snapshots

        parent = get_registry().snapshot()
        pool = self._live_pool()
        if pool is None:
            return parent
        return merge_snapshots([parent, *pool.metric_snapshots()])

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial wrappers)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __getattr__(self, attribute: str):
        """Estimator conveniences (``estimate``, heavy-hitter helpers,
        ``f2_estimate``, ...) resolve against the merged view, so sharded
        wrappers answer the same call surface as the sketch they wrap.
        The returned attribute binds the *current* merged snapshot -- fetch
        it again after further updates rather than holding it."""
        if attribute.startswith("_") or attribute in ("shards", "merged"):
            raise AttributeError(attribute)
        return getattr(self.merged(), attribute)


class ShardedStreamEngine:
    """Drives streams through a :class:`ShardedAlgorithm`.

    The front door of the sharded subsystem: builds the wrapper, sizes the
    chunking so each shard scatters near-default batches, and mirrors the
    :class:`~repro.core.engine.StreamEngine` driving surface (``drive``,
    ``drive_arrays``, ``play``).

    Parameters
    ----------
    factory:
        Zero-argument callable returning one identically-seeded replica.
    num_shards:
        Number of shard workers.
    chunk_size:
        Updates per partition round; defaults to
        ``DEFAULT_CHUNK_SIZE * num_shards`` so per-shard sub-chunks stay
        near the single-engine sweet spot.
    backend:
        ``"serial"`` / ``"thread"`` / ``"process"`` scatter backend (see
        :class:`ShardedAlgorithm`).
    supervise / snapshot_every:
        Process-backend worker supervision knobs (see
        :class:`ShardedAlgorithm`).
    """

    def __init__(
        self,
        factory: Callable[[], StreamAlgorithm],
        num_shards: int,
        chunk_size: Optional[int] = None,
        partitioner: Optional[UniversePartitioner] = None,
        backend: str = "serial",
        supervise: bool = False,
        snapshot_every: Optional[int] = None,
    ) -> None:
        self.algorithm = ShardedAlgorithm(
            factory,
            num_shards,
            partitioner=partitioner,
            backend=backend,
            supervise=supervise,
            snapshot_every=snapshot_every,
        )
        self.engine = StreamEngine(
            chunk_size=chunk_size
            if chunk_size is not None
            else DEFAULT_CHUNK_SIZE * num_shards
        )

    @property
    def num_shards(self) -> int:
        return self.algorithm.num_shards

    @property
    def backend(self) -> str:
        return self.algorithm.backend

    def load_snapshot(self, data: bytes) -> None:
        """Load a wire-format snapshot (see :meth:`ShardedAlgorithm.load_snapshot`)."""
        self.algorithm.load_snapshot(data)

    def merge_snapshot(self, data: bytes) -> None:
        """Fold a wire-format snapshot in (see :meth:`ShardedAlgorithm.merge_snapshot`)."""
        self.algorithm.merge_snapshot(data)

    def drive(self, updates, on_chunk=None, **checkpoint_kwargs) -> ShardedAlgorithm:
        """Feed an update iterable through the partition/scatter pipeline.

        Accepts ``StreamEngine.drive``'s full keyword surface, including
        the ``checkpoint_path`` / ``checkpoint_every`` / ``start_position``
        parameters (sharded engines checkpoint their merged state).
        """
        self.engine.drive(
            self.algorithm, updates, on_chunk=on_chunk, **checkpoint_kwargs
        )
        return self.algorithm

    def drive_arrays(self, items, deltas, on_chunk=None, **checkpoint_kwargs) -> ShardedAlgorithm:
        """Array-native fast path (mirrors ``StreamEngine.drive_arrays``)."""
        self.engine.drive_arrays(
            self.algorithm, items, deltas, on_chunk=on_chunk, **checkpoint_kwargs
        )
        return self.algorithm

    def play(
        self,
        adversary: WhiteBoxAdversary,
        ground_truth: GroundTruth,
        validator: Validator,
        max_rounds: int,
        **kwargs,
    ) -> GameResult:
        """The white-box game against the *merged* state.

        Adaptive adversaries degrade to the per-round loop and observe a
        merged state view after every update -- the same view a single
        engine would hand them.
        """
        return self.engine.play(
            self.algorithm, adversary, ground_truth, validator, max_rounds, **kwargs
        )

    def merged(self) -> StreamAlgorithm:
        """The bit-exact single-engine-equivalent sketch (shard fan-in)."""
        return self.algorithm.merged()

    def query(self):
        """Answer the game's query from the merged state."""
        return self.algorithm.query()

    def estimate_batch(self, items) -> np.ndarray:
        """Batched point estimates from the merged state (one fan-in)."""
        return self.algorithm.estimate_batch(items)

    def state_view(self) -> StateView:
        """The merged white-box state view (see :class:`ShardedAlgorithm`)."""
        return self.algorithm.state_view()

    def metrics_snapshot(self) -> dict:
        """The fleet-merged obs snapshot (see :class:`ShardedAlgorithm`)."""
        return self.algorithm.metrics_snapshot()

    def health(self) -> dict:
        """Fleet liveness summary (see :meth:`ShardedAlgorithm.health`)."""
        return self.algorithm.health()

    def close(self) -> None:
        """Shut down the shard worker pool (no-op for serial engines)."""
        self.algorithm.close()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
