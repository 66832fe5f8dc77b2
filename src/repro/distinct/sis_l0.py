"""SIS-sketch L0 estimation on turnstile streams (Algorithm 5, Theorem 1.5).

The universe ``[n]`` is split into ``n^{1-eps}`` consecutive chunks of
``n^eps`` coordinates.  Every chunk keeps a sketch ``A f_chunk mod q`` where
``A in Z_q^{n^{c eps} x n^eps}`` is *one shared* SIS matrix (the paper is
explicit: "we use the same sketching matrix A on each chunk").  The answer
is the number of nonzero sketches ``z``, which satisfies

    z  <=  L0(f)  <=  z * n^eps

-- a multiplicative ``n^eps`` approximation -- *unless* the adversary placed
a nonzero chunk in the kernel of ``A``, i.e. produced a short integer
solution.  Under Assumption 2.17 a polynomial-time adversary cannot, and
that is the entire correctness argument (the proof of Theorem 1.5).

Works on turnstile streams (insertions and deletions): only the final
``||f||_inf <= poly(n)`` matters, signs do not.

Space: ``n^{1-eps}`` sketches of ``n^{c eps} log q`` bits each, plus the
matrix -- ``~O(n^{1-eps+c eps} + n^{(1+c) eps})`` in explicit mode; in
random-oracle mode the matrix term disappears (``~O(n^{1-eps+c eps})``),
exactly Theorem 1.5's two bounds.

Engineering note -- two storage modes, one observable state:

* **int64 dense mode** (``q^2 * n^eps < 2^63``, the
  :attr:`~repro.crypto.sis.SISMatrix.int64_compatible` regime): all chunk
  registers live in one ``(num_chunks, rows)`` int64 array and
  ``process_batch`` is a fully vectorized scatter -- one native call on
  the raw items through :mod:`repro.core.kernels` when the compiled tier
  is available (validate, chunk/offset split, delta mod q, mod-q
  gather-multiply-accumulate), else a chunk/offset split with per-row
  gather-multiply ``np.add.at`` and one mod over the touched rows --
  roughly 10x the throughput of the exact path at benchmark scale.
* **exact mode** (paper-default ``q ~ n^3`` at large ``n``): a sparse dict
  of nonzero chunk registers updated through
  :meth:`~repro.crypto.sis.SISMatrix.accumulate_batch`, whose arithmetic
  stays exact (object dtype) at any modulus.

Both modes present identical observable state: :attr:`sketches` (the
nonzero chunk registers), queries, ``space_bits`` (which always charges
every reserved chunk register, as the paper's algorithm does), and the
randomness transcript.  The mode is decided by the parameters at
construction, never by the data.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core import kernels
from repro.core.algorithm import MergeableSketch, StreamAlgorithm
from repro.core.stream import Update, aggregate_batch
from repro.crypto.random_oracle import RandomOracle
from repro.crypto.sis import SISMatrix, SISParams, sis_parameters_for_l0

__all__ = ["SisL0Estimator"]


class SisL0Estimator(MergeableSketch, StreamAlgorithm):
    """Algorithm 5: ``n^eps``-approximate L0 against bounded adversaries.

    Parameters
    ----------
    universe_size:
        ``n``.
    eps:
        Chunk exponent; the approximation factor is ``n^eps``.
    c:
        Sketch-height exponent in ``(0, 1/2)`` (Theorem 1.5's ``c``).
    mode:
        ``"explicit"`` stores the SIS matrix; ``"oracle"`` derives entries
        from a random oracle (the paper's improved space bound).
    force_exact:
        Keep the exact sparse-dict representation even when the modulus
        admits the int64 dense path -- an ablation switch for benchmarks
        and equivalence tests (both representations expose identical
        observable state).
    """

    name = "sis-l0"
    _fork_shared = ("params", "_cols64")

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.5,
        c: float = 0.25,
        mode: str = "explicit",
        seed: int = 0,
        params: Optional[SISParams] = None,
        force_exact: bool = False,
    ) -> None:
        if universe_size < 2:
            raise ValueError(f"universe_size must be >= 2, got {universe_size}")
        super().__init__(seed=seed)
        self.universe_size = universe_size
        self.eps = eps
        self.c = c
        self.params = params or sis_parameters_for_l0(universe_size, eps, c)
        self.chunk_width = self.params.cols
        self.num_chunks = math.ceil(universe_size / self.chunk_width)
        oracle = RandomOracle(b"sis-l0|" + str(seed).encode()) if mode == "oracle" else None
        self.matrix = SISMatrix(self.params, mode=mode, seed=seed, oracle=oracle)
        #: Whether the dense int64 representation is active (parameter-
        #: determined; see the module docstring).
        self.int64_fast_path = self.matrix.int64_compatible and not force_exact
        if self.int64_fast_path:
            self._dense = np.zeros((self.num_chunks, self.params.rows), dtype=np.int64)
            self._cols64 = self.matrix.columns_int64()
            self._batch_limit = self.matrix.int64_batch_limit()
            self._sketches: Optional[dict[int, list[int]]] = None
        else:
            self._dense = None
            self._sketches = {}

    # -- streaming ---------------------------------------------------------

    def process(self, update: Update) -> None:
        if update.item >= self.universe_size:
            raise ValueError(
                f"item {update.item} outside universe [0, {self.universe_size})"
            )
        if update.delta == 0:
            return
        chunk, offset = divmod(update.item, self.chunk_width)
        if self.int64_fast_path:
            # delta mod q fits int64; products stay below q^2 < 2^63 / cols.
            reduced = update.delta % self.params.modulus
            self._dense[chunk] = (
                self._dense[chunk] + reduced * self._cols64[offset]
            ) % self.params.modulus
            return
        sketch = self._sketches.get(chunk)
        if sketch is None:
            sketch = self.matrix.zero_sketch()
            self._sketches[chunk] = sketch
        self.matrix.accumulate(sketch, offset, update.delta)
        if not any(sketch):
            del self._sketches[chunk]

    def process_batch(self, items, deltas) -> None:
        """Batch update: chunk/offset split + per-chunk accumulation.

        Dense mode hands the raw batch to the fused kernel layer (one
        native call validates the items, splits chunk/offset, reduces the
        deltas mod q and accumulates mod q) or, on the numpy tier -- and
        for a batch the kernel refused, which is how an out-of-universe
        item reaches the ``ValueError`` below with nothing written --
        scatters with per-row ``np.add.at`` (splitting at the
        matrix's int64 accumulation limit, never binding in practice)
        followed by one reduction of the touched chunk rows mod q.  Exact
        mode aggregates per-coordinate deltas first (the sketch map is
        linear, so this is exact) and feeds each touched chunk's
        coordinates to :meth:`SISMatrix.accumulate_batch`; sketches that
        net out to zero are evicted once at the end of the batch.  Both
        paths end in the same state as the per-update loop.
        """
        if self.int64_fast_path:
            items = np.ascontiguousarray(items, dtype=np.int64)
            deltas = np.ascontiguousarray(deltas, dtype=np.int64)
            if items.size == 0:
                return
            q = self.params.modulus
            if kernels.sis_update(
                self._dense, items, deltas, self._cols64, q,
                self.chunk_width, self.universe_size,
            ):
                # The fused kernel reduces mod q at every accumulation, so
                # the registers it leaves behind equal the reference
                # path's end-of-batch ``%= q`` sweep bit for bit.
                return
            if int(items.min()) < 0:
                raise ValueError("item must be non-negative")
            if int(items.max()) >= self.universe_size:
                raise ValueError(
                    f"item {int(items.max())} outside universe "
                    f"[0, {self.universe_size})"
                )
            chunks = items // self.chunk_width
            offsets = items - chunks * self.chunk_width
            reduced = deltas % q  # numpy % matches Python %: residues in [0, q)
            for start in range(0, items.size, self._batch_limit):
                sl = slice(start, start + self._batch_limit)
                part_chunks = chunks[sl]
                part_offsets = offsets[sl]
                part_deltas = reduced[sl]
                for row in range(self.params.rows):
                    np.add.at(
                        self._dense[:, row],
                        part_chunks,
                        part_deltas * self._cols64[part_offsets, row],
                    )
                touched = np.unique(part_chunks)
                self._dense[touched] %= q
            return
        unique, aggregated = aggregate_batch(items, deltas, self.universe_size)
        by_chunk: dict[int, tuple[list[int], list[int]]] = {}
        for item, delta in zip(unique, aggregated):
            if delta == 0:
                continue
            chunk, offset = divmod(item, self.chunk_width)
            offs, vals = by_chunk.setdefault(chunk, ([], []))
            offs.append(offset)
            vals.append(delta)
        for chunk, (offs, vals) in by_chunk.items():
            sketch = self._sketches.get(chunk)
            if sketch is None:
                sketch = self.matrix.zero_sketch()
                self._sketches[chunk] = sketch
            self.matrix.accumulate_batch(sketch, offs, vals)
            if not any(sketch):
                del self._sketches[chunk]

    # -- merging (sharded engines) -----------------------------------------

    def _merge_key(self) -> tuple:
        return (
            self.universe_size,
            (self.params.rows, self.params.cols, self.params.modulus, self.params.beta),
            self.matrix.mode,
            self.random.seed,
            # Same observable state either way, but the merge arithmetic is
            # representation-specific; replicas must agree.
            self.int64_fast_path,
        )

    def _merge_state(self, other: "SisL0Estimator") -> None:
        """Chunk registers add mod q (the chunk sketch map is linear)."""
        q = self.params.modulus
        if self.int64_fast_path:
            # Entries are < q on both sides, so a sum minus q lies in
            # [-q, q - 2]: adding q back where that went negative subtracts
            # q exactly where the sum reached it, with no int64 division.
            # The sum is a new array, so a fork's table stays its own.
            merged = self._dense + other._dense
            merged -= q
            merged += (merged >> 63) & q
            self._dense = merged
            return
        for chunk, vector in other._sketches.items():
            sketch = self._sketches.get(chunk)
            if sketch is None:
                self._sketches[chunk] = list(vector)
                continue
            for row in range(self.params.rows):
                sketch[row] = (sketch[row] + vector[row]) % q
            if not any(sketch):
                del self._sketches[chunk]

    def _snapshot_state(self) -> dict:
        """Chunk registers in whichever representation is active.

        The merge key (and therefore the snapshot fingerprint) pins the
        SIS construction -- (q, rows, cols), mode, seed -- *and* the
        representation flag, so a snapshot only restores into an instance
        holding the same SIS instance in the same storage mode.
        """
        if self.int64_fast_path:
            return {"dense": self._dense}
        return {
            "sketches": {
                chunk: tuple(vector) for chunk, vector in self._sketches.items()
            }
        }

    def _restore_state(self, state) -> None:
        if self.int64_fast_path:
            dense = state["dense"]
            expected = (self.num_chunks, self.params.rows)
            if not isinstance(dense, np.ndarray) or dense.shape != expected:
                raise ValueError(
                    f"sis-l0 snapshot register shape {getattr(dense, 'shape', None)} "
                    f"!= {expected}"
                )
            self._dense = dense
        else:
            self._sketches = {
                int(chunk): list(vector)
                for chunk, vector in state["sketches"].items()
            }

    # -- queries -------------------------------------------------------------

    @property
    def sketches(self) -> dict[int, list[int]]:
        """Chunk index -> nonzero sketch register (absent = all-zero).

        Identical on both storage modes; dense mode derives the dict from
        the register array on demand.
        """
        if not self.int64_fast_path:
            return self._sketches
        nonzero = np.nonzero(self._dense.any(axis=1))[0]
        return {
            int(chunk): [int(v) for v in self._dense[chunk]] for chunk in nonzero
        }

    def nonzero_chunks(self) -> int:
        """``z``: the number of chunks whose sketch is nonzero."""
        if self.int64_fast_path:
            return int(np.count_nonzero(self._dense.any(axis=1)))
        return len(self._sketches)

    def query(self) -> int:
        """Algorithm 5's output: the nonzero-sketch count ``z``.

        Guarantee (Theorem 1.5): ``z <= L0 <= z * n^eps`` against any
        adversary that cannot solve the SIS instance.
        """
        return self.nonzero_chunks()

    def estimate_geometric(self) -> float:
        """``z * n^{eps/2}``: centers the two-sided error at ``n^{eps/2}``."""
        return self.nonzero_chunks() * math.sqrt(float(self.chunk_width))

    def approximation_factor(self) -> float:
        """The guaranteed multiplicative factor ``n^eps`` (= chunk width)."""
        return float(self.chunk_width)

    # -- accounting -----------------------------------------------------------

    def space_bits(self) -> int:
        """All chunk registers + matrix storage (or oracle key)."""
        return self.num_chunks * self.matrix.sketch_bits() + self.matrix.space_bits()

    def _state_fields(self) -> dict:
        return {
            "params": (
                self.params.rows,
                self.params.cols,
                self.params.modulus,
            ),
            "mode": self.matrix.mode,
            "nonzero_sketches": {
                chunk: tuple(sketch) for chunk, sketch in self.sketches.items()
            },
        }
