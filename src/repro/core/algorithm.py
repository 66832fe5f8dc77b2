"""Streaming-algorithm base class and white-box state views.

Every algorithm in the library subclasses :class:`StreamAlgorithm` and
implements:

* ``process(update)`` -- consume one stream update;
* ``query()`` -- answer the fixed query ``Q`` of the game (its type depends
  on the problem: a number, a set of heavy hitters, ...);
* ``state_view()`` -- the *complete* internal state the white-box adversary
  observes: every data-structure field plus the randomness transcript;
* ``space_bits()`` -- idealized bit cost of the current state (see
  :mod:`repro.core.space`).

``state_view`` is a real API, not a debugging aid: the attack modules in
:mod:`repro.adversaries` consume it to mount white-box attacks (e.g., reading
the AMS sign matrix out of the view and streaming one of its kernel vectors).

Algorithms that answer *point queries* (``estimate(item)``) additionally
expose :meth:`StreamAlgorithm.estimate_batch` -- the query engine's batching
protocol, mirroring ``process_batch`` on the read side: a scalar-loop
default plus bit/float-identical vectorized overrides in every sketch
family, which is what lets adversarial game loops probe millions of
coordinates per round at numpy (or compiled-kernel) speed.

Mergeable sketches
------------------
The paper's sketches are linear or chunk-decomposable maps of the frequency
vector: CountMin/CountSketch/AMS tables add coordinate-wise, exact
F_p/L0 vectors add, KMV bottom-k sets union, and the SIS-L0 chunk sketches
add mod q.  :class:`MergeableSketch` captures that as a protocol --
``merge(other)`` absorbs a replica built *from the same construction
randomness* so that ``merge`` of shards fed disjoint sub-streams reproduces,
bit for bit, the state of one instance fed the whole stream.  This is what
the sharded engine (:mod:`repro.parallel`) is built on.

Serializable sketches
---------------------
:class:`SerializableSketch` extends the merge contract across process and
machine boundaries: ``snapshot()`` emits a canonical, versioned byte
representation of the sketch's *state* (never its construction randomness
-- that is pinned by the shared seed), headed by a construction
fingerprint derived from ``_merge_key()``.  ``restore(data)`` replays a
snapshot into an identically-constructed instance, and
``merge_snapshot(data)`` fans a remote replica's state in, both verifying
the fingerprint first -- so merging stays exact even when the replica
crossed a wire (:mod:`repro.distributed` builds the codec, the
process-parallel shard workers, and checkpoint/recovery on top of this).
Subclasses implement ``_snapshot_state()`` (plain-data dict of mutable
state) and ``_restore_state(state)`` (the inverse).
"""

from __future__ import annotations

import abc
import bisect
import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from repro.obs.metrics import SIZE_BUCKETS, get_registry as _get_obs_registry

# feed_batch is the one chokepoint every driving path shares -- the
# engine's chunk loop, serial shard scatters, and forked process-backend
# workers all pass through it -- so these per-batch instruments make
# sketch-level throughput backend-invariant: a process fleet's merged
# registry equals a serial run's bit-exactly (tests/test_obs.py pins it).
_obs_registry = _get_obs_registry()
_obs_batches = _obs_registry.counter(
    "repro_sketch_batches_total", "feed_batch calls, by sketch name"
)
_obs_updates = _obs_registry.counter(
    "repro_sketch_updates_total", "Updates absorbed via feed_batch, by sketch name"
)
_obs_batch_sizes = _obs_registry.histogram(
    "repro_sketch_batch_updates",
    "feed_batch sizes, by sketch name",
    buckets=SIZE_BUCKETS,
)
#: Backstop fold depth: pending batch sizes normally fold at snapshot
#: (scrape) time; a recorder that crosses this depth folds inline so the
#: buffer stays bounded even if nothing ever scrapes.
_PENDING_FOLD_AT = 8192


class _SketchSeries:
    """Per-sketch telemetry with lock-free recording, scrape-time folds.

    ``record`` is the chokepoint's hot path, so it takes no lock at all:
    it appends the batch size to a pending :class:`~collections.deque`
    (``append`` is GIL-atomic) and returns.  ``fold`` drains pending
    into the three shared series (batch counter, update counter, size
    histogram) under the registry lock; each popped size folds exactly
    once even with concurrent recorders or folders.  Snapshots fold
    first via the registry collector hook, so totals stay exact at
    every scrape/merge boundary -- the cost moves off the feed path,
    it doesn't vanish.
    """

    __slots__ = (
        "lock", "batch_values", "update_values", "size_values", "key",
        "buckets", "pending",
    )

    def __init__(self, name: str) -> None:
        batches = _obs_batches.bind(sketch=name)
        updates = _obs_updates.bind(sketch=name)
        sizes = _obs_batch_sizes.bind(sketch=name)
        self.lock = _obs_registry.lock
        self.batch_values = batches._values
        self.update_values = updates._values
        self.size_values = sizes._values
        self.key = batches.key
        self.buckets = sizes.instrument.buckets
        self.pending: deque = deque()

    def record(self, count: int) -> None:
        pending = self.pending
        pending.append(count)
        if len(pending) >= _PENDING_FOLD_AT:
            self.fold()

    def fold(self) -> None:
        pending = self.pending
        if not pending:
            return
        key = self.key
        buckets = self.buckets
        with self.lock:
            batches = 0
            total = 0
            series = counts = None
            last_count = None
            slot = 0
            while True:
                try:
                    count = pending.popleft()
                except IndexError:
                    break
                if series is None:
                    series = self.size_values.get(key)
                    if series is None:
                        series = [[0] * (len(buckets) + 1), 0.0, 0]
                        self.size_values[key] = series
                    counts = series[0]
                batches += 1
                total += count
                if count != last_count:
                    last_count = count
                    slot = bisect.bisect_left(buckets, count)
                counts[slot] += 1
            if not batches:
                return
            values = self.batch_values
            values[key] = values.get(key, 0) + batches
            values = self.update_values
            values[key] = values.get(key, 0) + total
            series[1] += total
            series[2] += batches


# Fused series per sketch name, cached at module scope (never on the
# instances: sketches get deep-copied and shipped across process
# boundaries, and registry handles must not ride along).
_obs_by_name: dict[str, _SketchSeries] = {}


def _obs_sketch_series(name: str) -> _SketchSeries:
    series = _obs_by_name.get(name)
    if series is None:
        series = _obs_by_name[name] = _SketchSeries(name)
    return series


def _obs_fold_pending() -> None:
    for series in list(_obs_by_name.values()):
        series.fold()


def _obs_discard_pending() -> None:
    for series in list(_obs_by_name.values()):
        series.pending.clear()


_obs_registry.add_collector(_obs_fold_pending, _obs_discard_pending)

from repro.core.randomness import RandomDraw, WitnessedRandom
from repro.core.stream import Update

__all__ = [
    "StateView",
    "StreamAlgorithm",
    "DeterministicAlgorithm",
    "MergeableSketch",
    "SerializableSketch",
]


@dataclass(frozen=True)
class StateView:
    """A snapshot of everything the white-box adversary can see.

    Attributes
    ----------
    fields:
        All internal data-structure contents, keyed by descriptive names.
        Values should be plain *comparable* data (ints, tuples, dicts,
        digest strings); the adversary may inspect them arbitrarily.
        Large array state (the CountMin/CountSketch tables) rides as a
        ``sha256`` content fingerprint (``table_digest``) rather than a
        per-round tuple materialization -- the adversary loses nothing
        it could not already derive (every cell is reconstructible from
        the stream history plus the hash parameters in the same view,
        and the in-repo attacks read only those parameters), while
        equality comparisons between views stay exact.
    randomness:
        The full transcript of random draws made so far.
    """

    fields: Mapping[str, Any]
    randomness: tuple[RandomDraw, ...] = ()

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def __contains__(self, key: str) -> bool:
        return key in self.fields


class StreamAlgorithm(abc.ABC):
    """Base class for one-pass streaming algorithms in the white-box game.

    Subclasses that use randomness must draw it exclusively through
    ``self.random`` (a :class:`WitnessedRandom`) so the transcript the
    adversary sees is complete.  Deterministic algorithms may ignore it.
    """

    #: human-readable name used in experiment tables
    name: str = "stream-algorithm"

    def __init__(self, seed: int = 0) -> None:
        self.random = WitnessedRandom(seed=seed)
        self.updates_processed = 0

    # -- the streaming interface ----------------------------------------

    @abc.abstractmethod
    def process(self, update: Update) -> None:
        """Consume one stream update."""

    @abc.abstractmethod
    def query(self) -> Any:
        """Answer the game's fixed query on the stream seen so far."""

    @abc.abstractmethod
    def space_bits(self) -> int:
        """Idealized bit cost of the current state."""

    # -- white-box exposure ----------------------------------------------

    def state_view(self) -> StateView:
        """Full white-box snapshot: internal fields + randomness transcript.

        The default implementation exposes ``_state_fields()`` plus the
        transcript; subclasses normally override only ``_state_fields``.
        """
        return StateView(
            fields=self._state_fields(), randomness=self.random.transcript
        )

    def _state_fields(self) -> dict[str, Any]:
        """Internal data-structure contents; override in subclasses."""
        return {"updates_processed": self.updates_processed}

    def process_batch(self, items, deltas) -> None:
        """Consume a batch of updates ``(items[i], deltas[i])`` at once.

        The batching contract (see :mod:`repro.core.engine`): the final
        internal state, every estimate, and the randomness transcript must be
        *identical* to feeding the same updates one at a time through
        :meth:`process`.  The default implementation guarantees this by
        looping; array-backed sketches override it with numpy-vectorized
        scatter updates, which is equivalent because their update rules are
        commutative integer additions that draw no randomness.

        ``items`` and ``deltas`` are equal-length sequences (lists or numpy
        integer arrays).
        """
        for item, delta in zip(items, deltas):
            self.process(Update(int(item), int(delta)))

    def estimate_batch(self, items) -> np.ndarray:
        """Batched point queries: ``array([estimate(i) for i in items])``.

        The read-side twin of :meth:`process_batch`.  The batching
        contract is the same: overrides must return values
        *bit/float-identical* to calling the algorithm's scalar
        ``estimate`` once per probe item -- same integers, same float
        roundings, same tie resolutions -- so a game, experiment, or
        adversary that switches to the batched path observes exactly the
        answers the per-item path would have produced
        (``tests/test_query_engine.py`` pins this per family).

        The default loops the scalar path (converting each probe to a
        Python int so arbitrary-precision arithmetic is preserved);
        array-backed sketches override it with fused hash+gather kernels
        (:mod:`repro.core.kernels`) or vectorized dict-to-array lookups.
        Algorithms without a point ``estimate`` raise :class:`TypeError`.
        """
        estimate = getattr(self, "estimate", None)
        if estimate is None:
            raise TypeError(
                f"{type(self).__name__} has no point estimate to batch"
            )
        values = [estimate(int(item)) for item in items]
        if not values:
            return np.empty(0, dtype=np.int64)
        return np.asarray(values)

    # -- conveniences -------------------------------------------------------

    def feed(self, update: Update) -> None:
        """Process an update and maintain the position counter."""
        self.process(update)
        self.updates_processed += 1

    def feed_batch(self, items, deltas) -> None:
        """Process a batch and maintain the position counter."""
        count = len(items)
        if count != len(deltas):
            raise ValueError(
                f"items/deltas length mismatch: {count} != {len(deltas)}"
            )
        self.process_batch(items, deltas)
        self.updates_processed += count
        if _obs_registry.enabled:
            _obs_sketch_series(self.name).record(count)

    def consume(self, updates) -> "StreamAlgorithm":
        """Feed a whole iterable of updates; returns self for chaining."""
        for update in updates:
            self.feed(update)
        return self


class SerializableSketch(abc.ABC):
    """Protocol for sketches whose state crosses process/machine boundaries.

    The wire contract
    -----------------
    ``snapshot()`` returns a canonical, versioned byte string: a header
    carrying the class name and a digest of the construction fingerprint
    (``_merge_key()`` -- parameters plus construction randomness), followed
    by a deterministic encoding of ``_snapshot_state()``.  ``restore(data)``
    replays such a snapshot into ``self``, *replacing* its mutable state;
    it requires ``self`` to be an identically-constructed instance and
    raises :class:`repro.distributed.codec.FingerprintMismatch` otherwise.
    ``merge_snapshot(data)`` absorbs a remote replica's state without
    disturbing local state -- the serialized form of
    :meth:`MergeableSketch.merge`, and the primitive multi-host fan-in is
    built from.

    Only mutable state is serialized.  Construction randomness (hash
    parameters, sign seeds, SIS matrices) is never on the wire: it is
    reproduced by constructing the twin from the shared seed, and the
    fingerprint check proves both sides agree before any state moves.

    Subclasses implement :meth:`_snapshot_state` (a dict of plain data --
    ints of any size, floats, strings, bytes, tuples, dicts, int64/object
    ndarrays) and :meth:`_restore_state` (its inverse); the codec lives in
    :mod:`repro.distributed.codec`.
    """

    def snapshot(self) -> bytes:
        """Canonical wire-format snapshot of the current state."""
        from repro.distributed.codec import snapshot_sketch

        return snapshot_sketch(self)

    def restore(self, data: bytes) -> "SerializableSketch":
        """Replace this instance's state with a snapshot's (verified).

        Returns ``self`` for chaining.  The randomness transcript is
        untouched: construction draws already happened identically on both
        sides (the fingerprint proves it), and no mergeable sketch draws
        randomness while processing.
        """
        from repro.distributed.codec import restore_sketch

        return restore_sketch(self, data)

    def merge_snapshot(self, data: bytes) -> None:
        """Fan a serialized replica's state into this instance (verified).

        Equivalent to ``self.merge(replica)`` where ``replica`` is the
        instance the snapshot was taken from -- bit for bit, because the
        codec round-trips state exactly and the fingerprint check enforces
        shared construction randomness.
        """
        self.merge(self.fork(data))  # type: ignore[attr-defined]  # MergeableSketch

    @abc.abstractmethod
    def _snapshot_state(self) -> dict:
        """All mutable state as a plain-data dict (codec-encodable)."""

    @abc.abstractmethod
    def _restore_state(self, state: Mapping[str, Any]) -> None:
        """Replace mutable state from a decoded :meth:`_snapshot_state`."""


class MergeableSketch(SerializableSketch):
    """Protocol for sketches whose shard replicas combine exactly.

    The merge contract
    ------------------
    Two instances are *mergeable* when they were constructed with identical
    parameters and identical construction randomness (same seed), so their
    hash functions / sign vectors / SIS matrices coincide.  For such twins,
    ``a.merge(b)`` must leave ``a`` in exactly the state one instance would
    hold after processing ``a``'s updates followed by ``b``'s -- same data
    structures, same estimates, same ``space_bits()``.  Because every
    mergeable sketch in this library draws randomness only at construction,
    the randomness transcripts of the twins are already identical and merging
    leaves them untouched.

    Subclasses implement :meth:`_merge_key` (the construction fingerprint
    compatibility is checked against) and :meth:`_merge_state` (the actual
    state combination); the template methods here add the type/key checks
    and position accounting.

    The fork contract
    -----------------
    :meth:`fork` is the copy the fleet makes for every view, replica and
    restore twin.  Because no mergeable sketch draws randomness after
    construction, a fork shares its source's randomness witness (the
    transcript is the same object, so the adversary's view is the same),
    plus the attributes a family lists in :attr:`_fork_shared`: hash
    parameters fixed at construction and never written afterwards.
    Every other attribute is deep-copied through one memo, so feeding,
    merging into or restoring either side never shows in the other; an
    attribute not declared is never shared.  ``_restore_state`` must
    rebind the attributes it replaces, never write into them: a fork
    restored from a snapshot copies only what the restore left in place.
    """

    #: Construction-time attributes :meth:`fork` shares with the source
    #: (the witness ``random`` is shared for every family).
    _fork_shared: tuple[str, ...] = ()

    def fork(self, snapshot: Optional[bytes] = None) -> "MergeableSketch":
        """An independent copy that shares construction-time state.

        With ``snapshot``, the copy is restored from those bytes
        (fingerprint-verified) before anything is copied, so the tables
        the restore replaces are never copied from the source.
        """
        source = vars(self)
        shared = ("random", *self._fork_shared)
        memo = {id(source[name]): source[name] for name in shared if name in source}
        clone = object.__new__(type(self))
        state = vars(clone)
        state.update(source)
        if snapshot is not None:
            clone.restore(snapshot)
        for name, value in source.items():
            if state[name] is value and name not in shared:
                state[name] = copy.deepcopy(value, memo)
        return clone

    def merge(self, other: "MergeableSketch") -> None:
        """Absorb ``other``'s state into ``self`` (``self`` += ``other``)."""
        self._check_mergeable(other)
        self._merge_state(other)
        self.updates_processed += other.updates_processed

    def merge_batch(self, others: Iterable["MergeableSketch"]) -> None:
        """Absorb a sequence of replicas (shard fan-in)."""
        for other in others:
            self.merge(other)

    def _check_mergeable(self, other: "MergeableSketch") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if self._merge_key() != other._merge_key():
            raise ValueError(
                f"{type(self).__name__} replicas disagree on construction "
                "parameters/randomness; shards must be built from one shared seed"
            )

    @abc.abstractmethod
    def _merge_key(self) -> tuple:
        """Construction fingerprint: parameters + construction randomness."""

    @abc.abstractmethod
    def _merge_state(self, other: "MergeableSketch") -> None:
        """Combine ``other``'s data structures into ``self`` (both verified
        compatible)."""


class DeterministicAlgorithm(StreamAlgorithm):
    """Marker base for deterministic algorithms.

    Deterministic algorithms are trivially robust in the white-box model
    (Section 1.1.1): there is no randomness for the adversary to exploit.
    The class removes access to random draws so determinism is enforced, not
    just asserted.
    """

    def __init__(self) -> None:
        super().__init__(seed=0)
        # Replace the random source with one that refuses to draw.
        self.random = _ForbiddenRandom()


class _ForbiddenRandom(WitnessedRandom):
    """A random source that raises on any draw (determinism enforcement)."""

    def __init__(self) -> None:
        super().__init__(seed=0)

    def _refuse(self, *args, **kwargs):
        raise RuntimeError("deterministic algorithm attempted a random draw")

    bit = bits = randint = randrange = random = _refuse
    bernoulli = binomial = geometric = choice = sign = shuffle = spawn = _refuse
