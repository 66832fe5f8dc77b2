"""CountMin sketch -- an oblivious-model baseline and white-box attack target.

CountMin is correct in the oblivious model and (with output thresholding) in
parts of the black-box adversarial model, but its guarantees lean on the
hash functions being independent of the stream.  A white-box adversary reads
the hash coefficients straight out of the state view and floods a single
cell pattern, inflating a chosen victim item's estimate without ever
inserting it -- :mod:`repro.adversaries.sketch_attack` does exactly this.
Pairwise-independent hashing is implemented honestly (random linear maps
over a prime field) so the oblivious guarantees hold in experiments.

The table is a ``depth x width`` int64 numpy array and ``process_batch``
vectorizes the whole update pipeline (row-wise ``(a * items + b) % p % w``
hashing, fused scatter adds through :mod:`repro.core.kernels`), which is
what lets the engine push 10^6-update streams through at numpy speed --
and, when the compiled kernel tier is available, through one fused
hash+scatter pass per row.  Cell counts start in int64 --
ample for the paper's ``||f||_inf <= poly(n)`` regime -- and the table
*promotes itself to exact object arithmetic* once the absorbed |delta|
mass could make any cell wrap, so kernel-attack streams with huge
coefficients keep Python's arbitrary precision on both paths.  The batch
path additionally falls back to the scalar loop when hash arithmetic
could overflow int64 (universes beyond ~3e9).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.algorithm import MergeableSketch, StreamAlgorithm
from repro.core.space import bits_for_int, bits_for_universe
from repro.core.stream import (
    INT64_HASH_BOUND,
    INT64_SAFE_MASS,
    Update,
    add_tables_with_promotion,
    linear_hash_rows,
    table_fingerprint,
)
from repro.crypto.modmath import next_prime

__all__ = ["CountMinSketch"]


class CountMinSketch(MergeableSketch, StreamAlgorithm):
    """Standard depth x width CountMin with pairwise-independent rows."""

    name = "count-min"
    _fork_shared = ("row_params", "_row_a", "_row_b")

    def __init__(
        self, universe_size: int, width: int, depth: int, seed: int = 0
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        super().__init__(seed=seed)
        self.universe_size = universe_size
        self.width = width
        self.depth = depth
        self.prime = next_prime(max(universe_size, width) + 1)
        # h_r(x) = (a_r x + b_r mod prime) mod width  -- drawn via the
        # witnessed source: the white-box adversary sees a_r, b_r.
        self.row_params = [
            (self.random.randint(1, self.prime - 1), self.random.randint(0, self.prime - 1))
            for _ in range(depth)
        ]
        # Row coefficients as arrays for the fused kernel entry points.
        self._row_a = np.array([a for a, _ in self.row_params], dtype=np.int64)
        self._row_b = np.array([b for _, b in self.row_params], dtype=np.int64)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0
        self._vectorizable = self.prime < INT64_HASH_BOUND
        self._absorbed_mass = 0  # running sum of |delta|, see _note_mass

    def _cell(self, row: int, item: int) -> int:
        a, b = self.row_params[row]
        return ((a * item + b) % self.prime) % self.width

    def _note_mass(self, amount: int) -> None:
        """Account absorbed |delta| mass; promote to exact arithmetic.

        The mass is the exact sum of |delta|, however the stream was
        batched: it rides in the snapshot, whose bytes must not depend on
        the batching.  No cell magnitude can exceed it, so while it stays
        below ``INT64_SAFE_MASS`` the int64 table cannot wrap; past that
        the table becomes an object array of exact Python ints (same
        values, slower -- only huge-coefficient streams ever get here).
        """
        self._absorbed_mass += amount
        if self._absorbed_mass >= INT64_SAFE_MASS and self.table.dtype != object:
            self.table = self.table.astype(object)

    def process(self, update: Update) -> None:
        self._note_mass(abs(update.delta))
        self.total += update.delta
        for row in range(self.depth):
            self.table[row, self._cell(row, update.item)] += update.delta

    def process_batch(self, items, deltas) -> None:
        """Vectorized batch: row-wise hashing + scatter adds.

        Bit-identical to the per-update path (integer additions commute and
        no randomness is drawn after construction).
        """
        if not self._vectorizable:
            kernels.record_dispatch("count_min_scatter", "scalar")
            super().process_batch(items, deltas)
            return
        items = np.ascontiguousarray(items, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if items.size == 0:
            return
        stats = kernels.batch_stats(items, deltas)
        self._note_mass(stats.delta_mass())
        if self.table.dtype == object:
            scatter = deltas.astype(object)
            self.total += sum(deltas.tolist())
        else:
            self.total += stats.deltas_sum
            if kernels.count_min_scatter(
                self.table, stats, self._row_a, self._row_b, self.prime
            ):
                kernels.record_dispatch("count_min_scatter", "native")
                return
            scatter = (
                deltas if stats.deltas_min != stats.deltas_max else stats.deltas_min
            )
        kernels.record_dispatch("count_min_scatter", "numpy")
        for row, (a, b) in enumerate(self.row_params):
            # Division-free row hash; bit-identical to % prime % width.
            cells = linear_hash_rows(items, a, b, self.prime, self.width)
            kernels.scatter_add(self.table[row], cells, scatter)

    # -- merging (sharded engines) ----------------------------------------

    def _merge_key(self) -> tuple:
        return (
            self.universe_size,
            self.width,
            self.depth,
            self.prime,
            self.random.seed,
            tuple(self.row_params),
        )

    def _merge_state(self, other: "CountMinSketch") -> None:
        """Tables add cell-wise (the sketch is a linear map of ``f``)."""
        self._absorbed_mass += other._absorbed_mass
        self.table = add_tables_with_promotion(
            self.table, other.table, self._absorbed_mass
        )
        self.total += other.total

    def _snapshot_state(self) -> dict:
        return {
            "table": self.table,
            "total": self.total,
            "absorbed_mass": self._absorbed_mass,
        }

    def _restore_state(self, state) -> None:
        # The codec preserves dtype, so a promoted (object) table restores
        # promoted -- exact arithmetic survives the wire.
        self.table = state["table"]
        self.total = state["total"]
        self._absorbed_mass = state["absorbed_mass"]

    def estimate(self, item: int) -> int:
        """``min_r table[r][h_r(item)]`` -- an overestimate (insertions)."""
        return min(
            int(self.table[row, self._cell(row, item)]) for row in range(self.depth)
        )

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized ``min_r table[r][h_r(item)]`` over a probe array.

        Tiers mirror :meth:`process_batch`: the native fused
        hash+gather+row-min kernel when available, per-row
        ``linear_hash_rows`` + gather + running ``np.minimum`` in numpy
        otherwise -- both bit-identical to the scalar loop (int64 cells
        hold exact counts, and the hash paths are the pinned
        division-free reductions).  Promoted (object) tables,
        out-of-hash-domain probes, and beyond-int64 items fall back to
        the exact scalar loop.
        """
        try:
            probe = np.ascontiguousarray(items, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            kernels.record_dispatch("count_min_estimate", "scalar")
            return super().estimate_batch(items)
        if probe.size == 0:
            return np.empty(0, dtype=np.int64)
        if (
            not self._vectorizable
            or self.table.dtype == object
            or int(probe.min()) < 0
            or int(probe.max()) >= self.prime
        ):
            kernels.record_dispatch("count_min_estimate", "scalar")
            return super().estimate_batch(probe)
        fused = kernels.count_min_estimate(
            self.table, probe, self._row_a, self._row_b, self.prime
        )
        if fused is not None:
            kernels.record_dispatch("count_min_estimate", "native")
            return fused
        kernels.record_dispatch("count_min_estimate", "numpy")
        # Blocked so the per-row hash/gather scratch stays cache-resident
        # on huge probe sets (the native kernel blocks internally too).
        out = np.empty(probe.size, dtype=np.int64)
        block = 1 << 15
        for start in range(0, probe.size, block):
            piece = probe[start : start + block]
            acc: np.ndarray | None = None
            for row, (a, b) in enumerate(self.row_params):
                cells = linear_hash_rows(piece, a, b, self.prime, self.width)
                gathered = self.table[row].take(cells)
                acc = (
                    gathered
                    if acc is None
                    else np.minimum(acc, gathered, out=acc)
                )
            out[start : start + piece.size] = acc
        return out

    def query(self) -> dict[int, int]:
        """Estimates for all tracked cells are not enumerable; games query
        specific items via :meth:`estimate`.  The generic query returns the
        stream total (useful as a sanity answer)."""
        return {"total": self.total}

    def space_bits(self) -> int:
        cell_bits = bits_for_int(max(1, abs(self.total)))
        param_bits = 2 * self.depth * bits_for_universe(self.prime)
        return self.depth * self.width * cell_bits + param_bits

    def _state_fields(self) -> dict:
        # The table rides as a content fingerprint, not materialized
        # tuples: equal tables compare equal, mutations change it, and
        # per-round state snapshots stay O(depth * width) bytes hashed
        # instead of Python-tuple allocations (the full table remains
        # white-box readable as ``self.table``).
        return {
            "row_params": tuple(self.row_params),
            "prime": self.prime,
            "width": self.width,
            "table_digest": table_fingerprint(self.table),
        }
