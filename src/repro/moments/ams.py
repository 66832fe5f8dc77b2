"""The AMS F2 sketch [AMS99] -- the paper's opening example of fragility.

Section 1: "the famous AMS sketch for F2 estimation initializes a random
sign vector Z, maintains <Z, f> in the stream, and outputs <Z, f>^2 ...
However, the analysis demands that the randomness used to generate the sign
vector Z is independent of the frequency vector f."

In the white-box model the adversary sees ``Z`` immediately.  With ``s``
independent sign vectors (rows), any ``s + 1`` columns are linearly
dependent, so a frequency vector in the kernel exists with support
``s + 1`` -- the adversary streams it and the sketch reads 0 while
``F_2 = ||f||^2`` is huge.  :mod:`repro.adversaries.sketch_attack`
implements the attack; this class is deliberately honest AMS, fully
analyzable in the oblivious model and fully breakable here (the concrete
face of Theorem 1.9's Omega(n) bound).

Sign vectors are materialized lazily per item from seeded per-row
generators, so the sketch itself uses ``O(s log m)``-bit state plus the
seeds -- the standard accounting.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core import kernels
from repro.core.algorithm import MergeableSketch, StreamAlgorithm
from repro.core.space import bits_for_int
from repro.core.stream import Update, aggregate_batch

__all__ = ["AMSSketch"]

#: Per-row sign-memo capacity; the cache flushes (not grows) beyond this so
#: harness memory stays bounded regardless of stream/universe size.
_SIGN_CACHE_MAX = 1 << 14


class AMSSketch(MergeableSketch, StreamAlgorithm):
    """Mean-of-squares AMS estimator with ``rows`` independent sign vectors."""

    name = "ams-f2"
    _fork_shared = ("row_seeds",)

    def __init__(self, universe_size: int, rows: int = 16, seed: int = 0) -> None:
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        super().__init__(seed=seed)
        self.universe_size = universe_size
        self.rows = rows
        # Per-row seeds drawn from the witnessed source: white-box visible.
        self.row_seeds = [self.random.bits(32) for _ in range(rows)]
        self.accumulators = [0] * rows
        # Memoized sign evaluations, one dict per row: the sign of an item
        # is a pure function of the public seed, so caching it changes no
        # observable behavior while making repeat items (and every batch)
        # cheap.  Bounded (flushed at _SIGN_CACHE_MAX entries) so harness
        # memory stays sublinear; not part of the state view -- it is
        # derivable data and space_bits() rightly never charges for it.
        self._sign_cache: list[dict[int, int]] = [{} for _ in range(rows)]

    def sign(self, row: int, item: int) -> int:
        """The (row, item) entry of the sign matrix, derived from the seed.

        Deterministic given the (public) seed -- this is what the white-box
        adversary evaluates to build the kernel.
        """
        try:
            cache = self._sign_cache[row]
        except AttributeError:  # clones built via __new__ (sketch_attack)
            self._sign_cache = [{} for _ in range(self.rows)]
            cache = self._sign_cache[row]
        value = cache.get(item)
        if value is None:
            h = random.Random((self.row_seeds[row] << 20) ^ item)
            value = 1 if h.getrandbits(1) else -1
            if len(cache) >= _SIGN_CACHE_MAX:
                cache.clear()
            cache[item] = value
        return value

    def sign_row(self, row: int, items) -> np.ndarray:
        """One row of the sign matrix over a probe array.

        Routes through the native MT19937 decode kernel
        (:func:`repro.core.kernels.ams_sign_bits`) when available --
        bit-identical to :meth:`sign`, because the kernel replays
        CPython's own ``random.Random(seed).getrandbits(1)`` seeding and
        first output word (the kernel self-check pins it against the
        interpreter) -- and the memoized scalar derivation otherwise.
        Read-only: the memo is neither consulted nor filled on the
        kernel path.
        """
        probe = np.ascontiguousarray(items, dtype=np.int64)
        decoded = kernels.ams_sign_bits(self.row_seeds[row] << 20, probe)
        if decoded is not None:
            return decoded
        return np.array(
            [self.sign(row, int(item)) for item in probe], dtype=np.int64
        )

    def query_after_pairs(self, base_item: int, items) -> np.ndarray:
        """Batched probe answers: :meth:`query` after ``e_base + e_j``.

        For each probe item ``j``, the value :meth:`query` would return
        if ``Update(base_item, 1)`` and ``Update(j, 1)`` were processed
        from the current state -- without mutating anything.  This is
        the fused form of the black-box probe -> query -> unprobe
        interaction sequence: the two deletions of a probe return the
        exact-integer accumulators to precisely their prior values, so
        running probes one at a time visits the same states and reads
        the same answers this computes in one vectorized pass
        (``tests/test_adversaries_blackbox.py`` pins the equality).
        Accumulators large enough to threaten int64/float53 exactness
        fall back to exact per-probe Python arithmetic.
        """
        probe = np.ascontiguousarray(items, dtype=np.int64)
        if probe.size == 0:
            return np.empty(0, dtype=np.float64)
        shifted_base = [
            acc + self.sign(row, base_item)
            for row, acc in enumerate(self.accumulators)
        ]
        # Gate: |a| < 2^24 keeps every square < 2^48 and the row sum
        # < 2^53 for up to 32 rows -- exact in int64 and in float64.
        if self.rows <= 32 and all(abs(v) < 1 << 24 for v in shifted_base):
            total = np.zeros(probe.size, dtype=np.int64)
            for row, offset in enumerate(shifted_base):
                shifted = self.sign_row(row, probe) + offset
                total += shifted * shifted
            return total / self.rows
        sign_rows = [self.sign_row(row, probe) for row in range(self.rows)]
        out = np.empty(probe.size, dtype=np.float64)
        for index in range(probe.size):
            out[index] = (
                sum(
                    (shifted_base[row] + int(sign_rows[row][index])) ** 2
                    for row in range(self.rows)
                )
                / self.rows
            )
        return out

    def process(self, update: Update) -> None:
        for row in range(self.rows):
            self.accumulators[row] += self.sign(row, update.item) * update.delta

    def process_batch(self, items, deltas) -> None:
        """Batch update: aggregate per-item deltas, then one dot per row.

        Sign evaluation is inherently scalar (a seeded PRG per item) but is
        memoized and amortized over the unique items of the batch; the
        accumulator arithmetic stays in exact Python integers, so results
        are bit-identical to the per-update path.
        """
        unique, aggregated = aggregate_batch(items, deltas)
        for row in range(self.rows):
            self.accumulators[row] += sum(
                self.sign(row, item) * delta
                for item, delta in zip(unique, aggregated)
                if delta
            )

    # -- merging (sharded engines) ----------------------------------------

    def _merge_key(self) -> tuple:
        return (self.universe_size, self.rows, self.random.seed, tuple(self.row_seeds))

    def _merge_state(self, other: "AMSSketch") -> None:
        """Accumulators add row-wise: ``<Z_r, f + g> = <Z_r, f> + <Z_r, g>``.

        Exact Python integers on both sides, so no overflow concern.
        """
        self.accumulators = [
            mine + theirs
            for mine, theirs in zip(self.accumulators, other.accumulators)
        ]

    def _snapshot_state(self) -> dict:
        # Exact Python ints; the sign cache is derived data and stays local.
        return {"accumulators": list(self.accumulators)}

    def _restore_state(self, state) -> None:
        self.accumulators = list(state["accumulators"])

    def query(self) -> float:
        """Mean of squared accumulators -- unbiased for F2 (obliviously)."""
        return sum(a * a for a in self.accumulators) / self.rows

    def sign_matrix(self) -> list[list[int]]:
        """Materialize the full sign matrix (tests / attacks, small n).

        Decoded row-wise through :meth:`sign_row`, so the native kernel
        carries the whole materialization when available.
        """
        items = np.arange(self.universe_size, dtype=np.int64)
        return [self.sign_row(row, items).tolist() for row in range(self.rows)]

    def space_bits(self) -> int:
        magnitude = max((abs(a) for a in self.accumulators), default=1)
        acc_bits = self.rows * (bits_for_int(max(1, magnitude)) + 1)
        seed_bits = 32 * self.rows
        return acc_bits + seed_bits

    def _state_fields(self) -> dict:
        return {
            "row_seeds": tuple(self.row_seeds),
            "accumulators": tuple(self.accumulators),
        }
