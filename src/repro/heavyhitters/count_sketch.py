"""CountSketch -- the canonical *linear* sketch attack target.

CountSketch is a linear map ``f -> S f`` with random sign/bucket structure.
[HW13] (cited in Section 1.1) showed a black-box adversary can *learn* such
a sketching matrix through many adaptive queries; the white-box adversary
simply reads it from the state view on round one and streams a vector in its
kernel, making the sketch blind to an arbitrarily large frequency vector.
:mod:`repro.adversaries.sketch_attack` implements that attack against this
class; the experiments use it for the Theorem 1.9 narrative (sublinear
linear sketches cannot be white-box robust).

The table is a ``depth x width`` int64 numpy array; ``process_batch``
vectorizes bucket hashing, sign evaluation, and the signed scatter add.
Estimates are computed over exact Python integers so queries are identical
whichever path filled the table.  Like CountMin, the table promotes itself
to exact object arithmetic once the absorbed |delta| mass could wrap an
int64 cell -- kernel-attack streams whose rational-elimination
coefficients grow with ``depth * width`` keep arbitrary precision.
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
    barrett_mod,
    linear_hash_rows,
    table_fingerprint,
)
from repro.crypto.modmath import next_prime

__all__ = ["CountSketch"]


class CountSketch(MergeableSketch, StreamAlgorithm):
    """Standard CountSketch: per-row bucket hash + sign hash; median estimate."""

    name = "count-sketch"

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
        self.bucket_params = [
            (self.random.randint(1, self.prime - 1), self.random.randint(0, self.prime - 1))
            for _ in range(depth)
        ]
        self.sign_params = [
            (self.random.randint(1, self.prime - 1), self.random.randint(0, self.prime - 1))
            for _ in range(depth)
        ]
        # Hash coefficients as arrays for the fused kernel entry points.
        self._bucket_a = np.array([a for a, _ in self.bucket_params], dtype=np.int64)
        self._bucket_b = np.array([b for _, b in self.bucket_params], dtype=np.int64)
        self._sign_a = np.array([a for a, _ in self.sign_params], dtype=np.int64)
        self._sign_b = np.array([b for _, b in self.sign_params], dtype=np.int64)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self._vectorizable = self.prime < INT64_HASH_BOUND
        self._absorbed_mass = 0

    def _bucket(self, row: int, item: int) -> int:
        a, b = self.bucket_params[row]
        return ((a * item + b) % self.prime) % self.width

    def _sign(self, row: int, item: int) -> int:
        a, b = self.sign_params[row]
        return 1 if ((a * item + b) % self.prime) % 2 == 0 else -1

    def _row_hashes(self, row: int, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One row's vectorized ``(buckets, signs)`` over an item array.

        The single copy of the division-free bucket/sign derivation
        (bit-identical to ``_bucket``/``_sign`` under the int64-hash
        caller contract: ``0 <= items < prime < INT64_HASH_BOUND``);
        shared by the batched update, estimate, and row-structure paths.
        """
        a, b = self.bucket_params[row]
        buckets = linear_hash_rows(items, a, b, self.prime, self.width)
        a, b = self.sign_params[row]
        signs = 1 - 2 * (barrett_mod(a * items + b, self.prime) & 1)
        return buckets, signs

    def _note_mass(self, amount: int) -> None:
        """Promote to exact (object) cells before int64 could wrap.

        Cell magnitudes are bounded by the total absorbed |delta| mass;
        see ``CountMinSketch._note_mass``.
        """
        self._absorbed_mass += amount
        if self._absorbed_mass >= INT64_SAFE_MASS and self.table.dtype != object:
            self.table = self.table.astype(object)

    def process(self, update: Update) -> None:
        self._note_mass(abs(update.delta))
        for row in range(self.depth):
            self.table[row, self._bucket(row, update.item)] += (
                self._sign(row, update.item) * update.delta
            )

    def process_batch(self, items, deltas) -> None:
        """Vectorized batch: bucket/sign hashing + signed scatter adds."""
        if not self._vectorizable:
            kernels.record_dispatch("count_sketch_scatter", "scalar")
            super().process_batch(items, deltas)
            return
        items = np.ascontiguousarray(items, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        if items.size == 0:
            return
        stats = kernels.batch_stats(items, deltas)
        self._note_mass(stats.delta_mass())
        exact = self.table.dtype == object
        if not exact and kernels.count_sketch_scatter(
            self.table, stats, self._bucket_a, self._bucket_b,
            self._sign_a, self._sign_b, self.prime,
        ):
            kernels.record_dispatch("count_sketch_scatter", "native")
            return
        kernels.record_dispatch("count_sketch_scatter", "numpy")
        for row in range(self.depth):
            buckets, signs = self._row_hashes(row, items)
            signed = (
                signs.astype(object) * deltas.astype(object)
                if exact
                else signs * deltas
            )
            kernels.scatter_add(self.table[row], buckets, signed)

    # -- merging (sharded engines) ----------------------------------------

    def _merge_key(self) -> tuple:
        return (
            self.universe_size,
            self.width,
            self.depth,
            self.prime,
            self.random.seed,
            tuple(self.bucket_params),
            tuple(self.sign_params),
        )

    def _merge_state(self, other: "CountSketch") -> None:
        """Signed tables add cell-wise; promotion precedes the addition."""
        self._absorbed_mass += other._absorbed_mass
        self.table = add_tables_with_promotion(
            self.table, other.table, self._absorbed_mass
        )

    def _snapshot_state(self) -> dict:
        return {"table": self.table, "absorbed_mass": self._absorbed_mass}

    def _restore_state(self, state) -> None:
        self.table = state["table"]
        self._absorbed_mass = state["absorbed_mass"]

    def estimate(self, item: int) -> float:
        """Median-of-rows point estimate of one item's frequency."""
        values = sorted(
            self._sign(row, item) * int(self.table[row, self._bucket(row, item)])
            for row in range(self.depth)
        )
        mid = len(values) // 2
        if len(values) % 2:
            return float(values[mid])
        return (values[mid - 1] + values[mid]) / 2.0

    def estimate_batch(self, items) -> np.ndarray:
        """Vectorized median-of-rows estimates: fused hash+sign+gather+median.

        Bit/float-identical to the scalar loop: signed gathers stay in
        int64 (cell magnitudes are bounded by the absorbed mass, which is
        below ``INT64_SAFE_MASS`` whenever the table is still int64, so
        neither the sign multiply nor the even-depth midpoint sum can
        wrap), the per-probe sort reproduces the scalar path's value
        ordering (ties are between equal integers), odd depths convert
        the middle value exactly as ``float()`` does, and even depths
        compute ``(lo + hi) / 2.0`` from the exact integer sum with the
        same int64 -> float64 rounding CPython applies.  Promoted
        (object) tables and out-of-domain probes fall back to the exact
        scalar loop.
        """
        try:
            probe = np.ascontiguousarray(items, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            kernels.record_dispatch("count_sketch_estimate", "scalar")
            return super().estimate_batch(items)
        if probe.size == 0:
            return np.empty(0, dtype=np.float64)
        if (
            not self._vectorizable
            or self.table.dtype == object
            or int(probe.min()) < 0
            or int(probe.max()) >= self.prime
        ):
            kernels.record_dispatch("count_sketch_estimate", "scalar")
            return super().estimate_batch(probe)
        kernels.record_dispatch("count_sketch_estimate", "numpy")
        # Blocked so the (depth, block) signed-gather scratch stays
        # cache-resident on huge probe sets.
        out = np.empty(probe.size, dtype=np.float64)
        block = 1 << 15
        scratch = np.empty((self.depth, min(block, probe.size)), dtype=np.int64)
        mid = self.depth // 2
        for start in range(0, probe.size, block):
            piece = probe[start : start + block]
            values = scratch[:, : piece.size]
            for row in range(self.depth):
                buckets, signs = self._row_hashes(row, piece)
                np.multiply(
                    signs, self.table[row].take(buckets), out=values[row]
                )
            values.sort(axis=0)
            window = slice(start, start + piece.size)
            if self.depth % 2:
                out[window] = values[mid]
            else:
                out[window] = (values[mid - 1] + values[mid]) / 2.0
        return out

    def f2_estimate(self) -> float:
        """Median-of-rows estimate of ``F_2`` (each row's bucket-square sum).

        Row sums run as one int64 ``np.einsum`` contraction per row while
        ``width * mass^2`` provably fits (mass bounds every |cell|, so
        each square is at most ``mass^2`` and the row sum at most
        ``width * mass^2``); past that bound -- huge-coefficient attack
        streams, or already-promoted object tables -- the exact
        Python-int path takes over, so the estimate never wraps.
        """
        if (
            self.table.dtype == object
            or self._absorbed_mass**2 * self.width >= INT64_SAFE_MASS * 2
        ):
            row_estimates = sorted(
                float(sum(v * v for v in row.tolist())) for row in self.table
            )
        else:
            row_estimates = sorted(
                float(np.einsum("i,i->", row, row)) for row in self.table
            )
        mid = len(row_estimates) // 2
        if len(row_estimates) % 2:
            return row_estimates[mid]
        return (row_estimates[mid - 1] + row_estimates[mid]) / 2.0

    def query(self) -> float:
        return self.f2_estimate()

    def sketch_matrix_row_structure(
        self, items=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sketch's linear structure as ``(buckets, signs)`` arrays.

        Two ``(depth, len(items))`` int64 ndarrays over ``items``
        (default: the whole universe): ``buckets[r, i]`` is the bucket
        row ``r`` hashes item ``i`` into and ``signs[r, i]`` its ``+-1``
        sign -- the linear map, hashed through :func:`linear_hash_rows`
        instead of materializing ``O(depth * universe)`` Python tuples.
        Exposed for the kernel attack; in the white-box model this is
        public information (it is derivable from the state view's
        parameters).
        """
        if items is None:
            items = np.arange(self.universe_size, dtype=np.int64)
        else:
            items = np.ascontiguousarray(items, dtype=np.int64)
        buckets = np.empty((self.depth, items.size), dtype=np.int64)
        signs = np.empty((self.depth, items.size), dtype=np.int64)
        if not self._vectorizable or (
            items.size
            and not 0 <= int(items.min()) <= int(items.max()) < self.prime
        ):
            # Beyond-int64 hash range, or probe items outside the
            # division-free hash domain: exact scalar hashes.
            for row in range(self.depth):
                for index, item in enumerate(items.tolist()):
                    buckets[row, index] = self._bucket(row, item)
                    signs[row, index] = self._sign(row, item)
            return buckets, signs
        for row in range(self.depth):
            buckets[row], signs[row] = self._row_hashes(row, items)
        return buckets, signs

    def space_bits(self) -> int:
        magnitude = int(np.abs(self.table).max()) if self.table.size else 1
        cell_bits = bits_for_int(max(1, magnitude)) + 1
        param_bits = 4 * self.depth * bits_for_universe(self.prime)
        return self.depth * self.width * cell_bits + param_bits

    def _state_fields(self) -> dict:
        # Fingerprinted table, as in ``CountMinSketch._state_fields``.
        return {
            "bucket_params": tuple(self.bucket_params),
            "sign_params": tuple(self.sign_params),
            "prime": self.prime,
            "width": self.width,
            "table_digest": table_fingerprint(self.table),
        }
