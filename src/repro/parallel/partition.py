"""Vectorized universe partitioning for the sharded stream engine.

The sharded engine splits the universe ``[n]`` across shards by *item*, not
by stream position: every update to item ``x`` is routed to shard
``h(x) mod N`` for a fixed hash ``h``, so each shard sees a sub-stream that
touches a fixed subset of the universe.  Because the mergeable sketches are
linear (or, like KMV, order-independent set maps), the merged shard states
equal one instance's state on the full stream regardless of how the
universe is cut -- the partition only controls load balance.

The hash is a multiplicative (Fibonacci) hash over 64-bit words: multiply
by an odd constant derived from the seed and keep high bits of the
product.  Power-of-two shard counts read their shard index straight from
the top bits (no modulo on the hot path); other counts reduce a high
window mod ``N``.  The hash is evaluated two ways that agree bit-for-bit:

* :meth:`UniversePartitioner.assign_array` -- numpy uint64 arithmetic
  (wraparound is the intended mod-2^64 semantics) for whole update chunks;
* :meth:`UniversePartitioner.assign` -- exact Python integers, used by the
  per-update game path and for beyond-int64 items, masked to 64 bits so it
  matches the vector path on the shared domain.

:meth:`UniversePartitioner.split` is the engine's scatter primitive: one
hash pass, an O(n) counting sort on the shard ids, and contiguous
per-shard array views in stream order.  Three tiers, all bit-identical:

* the **native kernel** (:func:`repro.core.kernels.partition_scatter`)
  fuses hash + count + cumsum + stable scatter into three C passes; two
  shards (the top product bit) take a count pass and one scatter pass
  with both write cursors in registers and no stored shard ids;
* small shard counts use **bincount + per-shard gathers** (each
  ``flatnonzero`` pass emits one shard's positions already in stream
  order -- the counting-sort scatter run shard-major instead of
  element-major);
* large shard counts fall back to a **stable argsort over a narrowed
  id dtype** (numpy's stable sort on <= 16-bit integers is an LSD radix
  sort, i.e. counting-sort passes), with bincount/cumsum bounds.

Every tier replaced the old stable argsort over 64-bit ids, which paid
an O(n log n) comparison sort per chunk.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels

__all__ = ["UniversePartitioner"]

#: Up to this many shards the counting-sort scatter runs shard-major
#: (one vectorized gather per shard); beyond it the radix-argsort tier
#: wins.  Crossover measured on the benchmark host.
_GATHER_TIER_MAX_SHARDS = 16

#: 2^64 / golden ratio, the classic Fibonacci-hashing multiplier.
_PHI64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
#: For non-power-of-two shard counts: reduce this many top bits mod N
#: (plenty of entropy for any realistic N while staying in safe int range).
_WINDOW_SHIFT = 33


class UniversePartitioner:
    """Deterministic item -> shard assignment shared by all engine paths.

    Parameters
    ----------
    num_shards:
        ``N``; assignments land in ``[0, N)``.
    seed:
        Perturbs the multiplier so distinct engines cut the universe
        differently.  The multiplier stays odd (a bijection mod 2^64).
    """

    def __init__(self, num_shards: int, seed: int = 0) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.seed = seed
        # splitmix64-style seed stirring keeps multipliers well spread.
        stirred = (seed * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & _MASK64
        self.multiplier = (_PHI64 ^ stirred) | 1
        self._bits = num_shards.bit_length() - 1
        self._power_of_two = num_shards == (1 << self._bits)

    def assign(self, item: int) -> int:
        """Shard index of one item (exact Python arithmetic, any int size)."""
        if item < 0:
            raise ValueError(f"item must be non-negative, got {item}")
        mixed = ((item & _MASK64) * self.multiplier) & _MASK64
        if self._power_of_two:
            return mixed >> (64 - self._bits) if self._bits else 0
        return (mixed >> _WINDOW_SHIFT) % self.num_shards

    def assign_array(self, items: np.ndarray) -> np.ndarray:
        """Shard indices for an int64 item array (vectorized, wrap-exact)."""
        mixed = np.asarray(items).astype(np.uint64) * np.uint64(self.multiplier)
        if self._power_of_two:
            if not self._bits:
                return np.zeros(len(mixed), dtype=np.uint64)
            return mixed >> np.uint64(64 - self._bits)
        return (mixed >> np.uint64(_WINDOW_SHIFT)) % np.uint64(self.num_shards)

    def split(
        self, items: np.ndarray, deltas: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Per-shard ``(items, deltas)`` pairs via an O(n) counting sort.

        Groups each shard's updates into one contiguous block while
        keeping them in stream order (the scatter is stable); empty
        shards get ``None``.  Returned arrays are views into the
        shard-grouped copies -- callers must not mutate them.  All three
        tiers (see the module docstring) produce identical views; the
        equivalence against the old stable-argsort formulation is pinned
        by ``tests/test_fused_scatter.py``.
        """
        if self.num_shards == 1:
            return [(items, deltas)]
        native = kernels.partition_scatter(
            items,
            deltas,
            self.multiplier,
            self._bits,
            _WINDOW_SHIFT,
            self.num_shards,
            self._power_of_two,
        )
        if native is not None:
            kernels.record_dispatch("partition_scatter", "native")
            sorted_items, sorted_deltas, counts = native
            parts: list[tuple[np.ndarray, np.ndarray] | None] = []
            low = 0
            for shard in range(self.num_shards):
                high = low + int(counts[shard])
                if high > low:
                    parts.append(
                        (sorted_items[low:high], sorted_deltas[low:high])
                    )
                else:
                    parts.append(None)
                low = high
            return parts
        ids = self.assign_array(items)
        if self.num_shards <= _GATHER_TIER_MAX_SHARDS:
            kernels.record_dispatch("partition_scatter", "gather")
            counts = np.bincount(
                ids.astype(np.int64), minlength=self.num_shards
            )
            parts = []
            for shard in range(self.num_shards):
                if counts[shard]:
                    positions = np.flatnonzero(ids == shard)
                    parts.append((items[positions], deltas[positions]))
                else:
                    parts.append(None)
            return parts
        # Radix tier: a stable sort over a narrowed id dtype is LSD
        # radix (counting-sort passes) inside numpy; bounds come from
        # bincount + cumsum rather than a binary search.
        kernels.record_dispatch("partition_scatter", "radix")
        narrow = ids.astype(np.uint16 if self.num_shards <= 65536 else np.int64)
        order = np.argsort(narrow, kind="stable")
        sorted_items = items[order]
        sorted_deltas = deltas[order]
        counts = np.bincount(ids.astype(np.int64), minlength=self.num_shards)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        parts = []
        for shard in range(self.num_shards):
            low, high = int(bounds[shard]), int(bounds[shard + 1])
            if high > low:
                parts.append((sorted_items[low:high], sorted_deltas[low:high]))
            else:
                parts.append(None)
        return parts

    def masks(self, items: np.ndarray) -> list[np.ndarray]:
        """Per-shard boolean masks over ``items`` (diagnostics/tests)."""
        ids = self.assign_array(items)
        return [ids == shard for shard in range(self.num_shards)]
