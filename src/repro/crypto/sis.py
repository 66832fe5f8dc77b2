"""Short Integer Solution (SIS) instances and sketches (Definition 2.15).

An SIS instance is a uniformly random matrix ``A in Z_q^{w x d}``; the
problem is to find a nonzero integer ``z`` with ``A z = 0 (mod q)`` and
``||z||`` small (Definition 2.15; the hardness regime is Theorem 2.16
[MP13], with the average-case-to-worst-case guarantee going back to Ajtai).

The streaming algorithms use ``A`` as a *linear sketch that is hard to
fool*: as long as the (computationally bounded) adversary cannot produce a
short kernel vector, a zero sketch certifies a zero chunk (Algorithm 5) and
a rank-deficient sketch certifies rank deficiency (Theorem 1.6).

Two materializations are provided:

* ``mode="explicit"`` -- entries drawn once from a seeded uniform source and
  stored (space charged for all ``w*d`` entries);
* ``mode="oracle"`` -- entries derived on the fly from a
  :class:`~repro.crypto.random_oracle.RandomOracle` (space charged only for
  the oracle key), realizing the random-oracle space bound of Theorem 1.5.

Arithmetic is exact on both of two paths.  The historical path uses Python
integers throughout: the moduli are ``poly(n)`` and can overflow fixed-width
numpy products.  When the modulus is small enough that every product and
partial sum provably fits an int64 (``q^2 * chunk_width < 2^63``), the
vectorized :meth:`SISMatrix.accumulate_batch` switches to an int64 numpy
path -- same values mod q, an order of magnitude faster -- and falls back
to exact object-dtype arithmetic otherwise.  Column values (and the int64
column matrix) are cached for speed; the caches are engineering artifacts
and are *not* charged to ``space_bits`` in oracle mode (the paper's
accounting: the column "can be generated on the fly via access to the
random oracle").
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.space import bits_for_range
from repro.crypto.modmath import next_prime
from repro.crypto.random_oracle import RandomOracle

__all__ = ["SISParams", "SISMatrix", "sis_parameters_for_l0"]


@dataclass(frozen=True)
class SISParams:
    """Parameters ``(w, d, q, beta)`` of one SIS instance.

    ``w`` rows (the sketch dimension, ``n^{c eps}`` in Algorithm 5), ``d``
    columns (the chunk width ``n^eps``), modulus ``q = poly(n)``, and the
    norm bound ``beta`` under which kernel vectors count as "short".
    """

    rows: int
    cols: int
    modulus: int
    beta: float

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("SIS dimensions must be positive")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


class SISMatrix:
    """A concrete SIS matrix usable as a streaming sketch.

    Parameters
    ----------
    params:
        Instance dimensions and hardness parameters.
    mode:
        ``"explicit"`` (store entries; seeded uniform) or ``"oracle"``
        (derive entries from a random oracle on demand).
    seed / oracle:
        Source of entries for the respective mode.
    """

    def __init__(
        self,
        params: SISParams,
        mode: str = "explicit",
        seed: int = 0,
        oracle: Optional[RandomOracle] = None,
    ) -> None:
        if mode not in ("explicit", "oracle"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.mode = mode
        self._column_cache: dict[int, tuple[int, ...]] = {}
        self._columns_int64: Optional[np.ndarray] = None
        if mode == "explicit":
            rng = random.Random(seed)
            q = params.modulus
            self._columns = tuple(
                tuple(rng.randrange(q) for _ in range(params.rows))
                for _ in range(params.cols)
            )
            self.oracle = None
        else:
            self._columns = None
            self.oracle = oracle or RandomOracle(b"sis|" + str(seed).encode())

    def __deepcopy__(self, memo: dict) -> "SISMatrix":
        """Copy the mutable parts; share the construction randomness.

        ``params``, the explicit column tuples and the int64 column
        matrix are fixed at construction and never written afterwards, so
        a copy shares them -- walking the ``rows * cols`` Python ints of
        ``_columns`` is what made a copied sketch cost milliseconds.  The
        int64 matrix is registered in ``memo`` so an owner that keeps its
        own reference to it (``SisL0Estimator._cols64``) shares it too.
        The column cache is copied and the oracle deep-copied, so each
        copy keeps its own ``queries`` count.
        """
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.params = self.params
        clone.mode = self.mode
        clone._columns = self._columns
        clone._columns_int64 = self._columns_int64
        if self._columns_int64 is not None:
            memo[id(self._columns_int64)] = self._columns_int64
        clone._column_cache = dict(self._column_cache)
        clone.oracle = copy.deepcopy(self.oracle, memo)
        return clone

    # -- entry access ------------------------------------------------------

    def column(self, index: int) -> tuple[int, ...]:
        """Column ``A_k`` as a tuple of ``rows`` integers in ``[0, q)``."""
        if not 0 <= index < self.params.cols:
            raise IndexError(f"column {index} outside [0, {self.params.cols})")
        if self._columns is not None:
            return self._columns[index]
        cached = self._column_cache.get(index)
        if cached is None:
            q = self.params.modulus
            cached = tuple(
                self.oracle.uniform(q, row, index) for row in range(self.params.rows)
            )
            self._column_cache[index] = cached
        return cached

    def as_array(self) -> np.ndarray:
        """Materialize the full matrix (tests / attacks; dtype=object, exact)."""
        columns = [self.column(j) for j in range(self.params.cols)]
        return np.array(columns, dtype=object).T

    # -- int64 fast path ---------------------------------------------------

    @property
    def int64_compatible(self) -> bool:
        """Whether the int64 batch path is exact for this instance.

        The guard ``q^2 * chunk_width < 2^63`` bounds every product
        ``(delta mod q) * entry`` and every partial sum over a chunk's
        aggregated coordinates inside int64, so the vectorized arithmetic
        can never wrap.  Paper-default moduli (``q ~ n^3``) fail it for
        large ``n`` and keep the exact object path.
        """
        q = self.params.modulus
        return q * q * max(1, self.params.cols) < 2**63

    def int64_batch_limit(self) -> int:
        """How many ``(delta mod q) * entry`` terms may accumulate in int64.

        Callers scattering un-aggregated batches must split them at this
        length; each term is below ``q^2`` and the running register starts
        below ``q``, so ``limit * q^2 + q <= 2^62 + q < 2^63`` is safe.
        """
        q = self.params.modulus
        return max(1, 2**62 // (q * q))

    def columns_int64(self) -> np.ndarray:
        """The full matrix as a cached ``(cols, rows)`` int64 array.

        Only valid when :attr:`int64_compatible`; in oracle mode this
        materializes every column through the oracle once (a cache, like
        ``_column_cache`` -- not charged to ``space_bits``).
        """
        if not self.int64_compatible:
            raise OverflowError(
                "modulus too large for the int64 fast path "
                f"(q={self.params.modulus}, cols={self.params.cols})"
            )
        if self._columns_int64 is None:
            self._columns_int64 = np.array(
                [self.column(j) for j in range(self.params.cols)], dtype=np.int64
            ).reshape(self.params.cols, self.params.rows)
        return self._columns_int64

    # -- sketching ---------------------------------------------------------

    def zero_sketch(self) -> list[int]:
        """A fresh all-zero sketch vector (length ``rows``)."""
        return [0] * self.params.rows

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """``A v mod q`` for an integer vector ``v`` of length ``cols``."""
        if len(vector) != self.params.cols:
            raise ValueError(
                f"vector length {len(vector)} != cols {self.params.cols}"
            )
        sketch = self.zero_sketch()
        for index, value in enumerate(vector):
            if value:
                self.accumulate(sketch, index, int(value))
        return tuple(sketch)

    def accumulate(self, sketch: list[int], index: int, delta: int) -> None:
        """In-place turnstile update: ``sketch += delta * A_index (mod q)``.

        This is line 4 of Algorithm 5: the stream changes coordinate ``k``
        of a chunk by ``delta``, so the chunk's sketch moves by
        ``delta * A_k``.  Exact integer arithmetic -- no overflow for any
        ``poly(n)`` modulus.
        """
        q = self.params.modulus
        column = self.column(index)
        for row in range(self.params.rows):
            sketch[row] = (sketch[row] + delta * column[row]) % q

    def accumulate_batch(self, sketch: list[int], offsets, deltas) -> None:
        """Vectorized turnstile update: ``sketch += sum_i deltas[i] * A_{offsets[i]}``.

        The batched form of :meth:`accumulate` used by the L0 estimator's
        chunk-grouped batch path.  When :attr:`int64_compatible` (the
        ``q^2 * chunk_width < 2^63`` regime) the whole contribution is one
        int64 gather-multiply-sum; otherwise it falls back to exact
        object-dtype numpy arithmetic.  Both paths reduce deltas mod q first
        (the sketch lives in ``Z_q``), so arbitrarily large Python-int
        deltas are handled exactly either way.
        """
        count = len(offsets)
        if count == 0:
            return
        q = self.params.modulus
        if self.int64_compatible and count <= self.int64_batch_limit():
            cols = self.columns_int64()
            offs = np.asarray(offsets, dtype=np.int64)
            reduced = np.array([int(d) % q for d in deltas], dtype=np.int64)
            contribution = (reduced[:, None] * cols[offs]).sum(axis=0)
            for row in range(self.params.rows):
                sketch[row] = (sketch[row] + int(contribution[row])) % q
            return
        gathered = np.array([self.column(int(o)) for o in offsets], dtype=object)
        reduced = np.array([int(d) % q for d in deltas], dtype=object)
        contribution = (reduced[:, None] * gathered).sum(axis=0)
        for row in range(self.params.rows):
            sketch[row] = (sketch[row] + int(contribution[row])) % q

    def is_short_kernel_vector(
        self, z: Sequence[int], infinity_bound: Optional[float] = None
    ) -> bool:
        """Check a claimed SIS solution: nonzero, short, and in the kernel."""
        if len(z) != self.params.cols:
            return False
        values = [int(v) for v in z]
        if not any(values):
            return False
        if math.sqrt(sum(v * v for v in values)) > self.params.beta:
            return False
        if infinity_bound is not None and max(abs(v) for v in values) > infinity_bound:
            return False
        return not any(self.apply(values))

    # -- accounting ----------------------------------------------------------

    def sketch_bits(self) -> int:
        """Bits for one sketch vector: ``rows * ceil(log2 q)``."""
        return self.params.rows * bits_for_range(self.params.modulus - 1)

    def space_bits(self) -> int:
        """Matrix storage cost: full entries (explicit) or oracle key only."""
        if self.mode == "explicit":
            entry_bits = bits_for_range(self.params.modulus - 1)
            return self.params.rows * self.params.cols * entry_bits
        return self.oracle.space_bits()


def sis_parameters_for_l0(n: int, eps: float, c: float) -> SISParams:
    """Algorithm 5's SIS parameters for universe size ``n``.

    Chunk width ``d = n^eps``, sketch rows ``w = n^{c eps}`` (at least 1),
    prime modulus ``q ~ n^3`` (any fixed ``poly(n)`` works; Theorem 1.5
    needs ``beta_inf = poly(n)`` and ``q >= beta * n^delta``), and
    ``beta = sqrt(d) * n`` covering every vector with entries bounded by
    ``n`` -- the frequency-vector regime ``||f||_inf <= poly(n)`` the
    theorem assumes.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not 0 < c < 0.5:
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    cols = max(1, round(n**eps))
    rows = max(1, round(n ** (c * eps)))
    modulus = next_prime(max(257, n**3))
    beta = float(math.sqrt(cols) * n)
    return SISParams(rows=rows, cols=cols, modulus=modulus, beta=beta)
