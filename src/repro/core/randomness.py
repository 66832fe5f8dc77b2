"""Witnessed randomness: every random draw is observable by the adversary.

In the white-box adversarial model (Section 1 of the paper), round ``t``
proceeds as: the adversary picks update ``u_t``; the algorithm updates its
data structures ``D_t`` *acquiring a fresh batch ``R_t`` of random bits*; the
adversary then observes the response ``A_t``, the internal state ``D_t`` and
the random bits ``R_t``.

:class:`WitnessedRandom` wraps :class:`random.Random` so that every draw an
algorithm makes is appended to a transcript.  The game runner
(:mod:`repro.core.game`) snapshots the transcript after each round and hands
it to the adversary, faithfully realizing the model: the algorithm has *no*
secret randomness.

Memory note: for multi-million-update benchmark streams a fully retained
transcript would dominate RAM, so by default only the most recent
``retain`` draws are kept verbatim (plus an exact draw count).  This is an
engineering bound on the *harness*, not a weakening of the model -- the
adversary observes each batch as it is made (the game snapshots every
round), and tests that need the complete history construct their source with
``retain=None``.

Batched draws (:meth:`binomial`, :meth:`geometric`) exist so that Bernoulli
samplers and Morris counters can process ``k`` unit events in ``O(1)`` /
``O(successes)`` time instead of ``k`` coin flips; each batch is recorded as
one transcript entry, which reveals exactly the same information as the
individual coins it replaces.
"""

from __future__ import annotations

import copy
import math
import random
from collections import deque
from typing import Iterator, Optional, Sequence, TypeVar

__all__ = ["RandomDraw", "WitnessedRandom"]

T = TypeVar("T")


class RandomDraw:
    """One recorded random draw: a label describing the call and its value."""

    __slots__ = ("label", "value")

    def __init__(self, label: str, value: object) -> None:
        self.label = label
        self.value = value

    def __repr__(self) -> str:
        return f"RandomDraw({self.label!r}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RandomDraw)
            and self.label == other.label
            and self.value == other.value
        )


class WitnessedRandom:
    """A random source whose complete history is publicly visible.

    Parameters
    ----------
    seed:
        Seed for the underlying generator.  The seed itself is part of the
        public transcript, because in the white-box model the adversary sees
        all randomness ever used.
    retain:
        How many recent draws to keep verbatim (``None`` = all).
    """

    def __init__(self, seed: int = 0, retain: Optional[int] = 512) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._transcript: deque[RandomDraw] = deque(maxlen=retain)
        self._total = 0
        self._record("seed", seed)

    def _record(self, label: str, value: object) -> None:
        self._transcript.append(RandomDraw(label, value))
        self._total += 1

    # -- draws ---------------------------------------------------------

    def bit(self) -> int:
        """Draw one uniform bit."""
        value = self._rng.getrandbits(1)
        self._record("bit", value)
        return value

    def bits(self, k: int) -> int:
        """Draw ``k`` uniform bits, returned as an integer in ``[0, 2^k)``."""
        if k <= 0:
            raise ValueError(f"bits requires k >= 1, got {k}")
        value = self._rng.getrandbits(k)
        self._record(f"bits({k})", value)
        return value

    def randint(self, low: int, high: int) -> int:
        """Draw a uniform integer in the inclusive range ``[low, high]``."""
        value = self._rng.randint(low, high)
        self._record(f"randint({low},{high})", value)
        return value

    def randrange(self, stop: int) -> int:
        """Draw a uniform integer in ``[0, stop)``."""
        value = self._rng.randrange(stop)
        self._record(f"randrange({stop})", value)
        return value

    def random(self) -> float:
        """Draw a uniform float in ``[0, 1)``."""
        value = self._rng.random()
        self._record("random", value)
        return value

    def bernoulli(self, probability: float) -> bool:
        """Draw a Bernoulli(probability) coin."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        value = self._rng.random() < probability
        self._record("bernoulli", value)
        return value

    def binomial(self, trials: int, probability: float) -> int:
        """Draw Binomial(trials, probability) -- ``trials`` coins in one batch.

        Exact: inversion for small ``trials``, otherwise a seeded numpy
        generator (whose seed is itself drawn from -- and recorded in --
        this source, keeping the whole batch witnessable).
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if trials == 0 or probability == 0.0:
            value = 0
        elif probability == 1.0:
            value = trials
        elif trials <= 32:
            value = sum(self._rng.random() < probability for _ in range(trials))
        else:
            import numpy as np

            batch_seed = self._rng.getrandbits(63)
            value = int(np.random.default_rng(batch_seed).binomial(trials, probability))
        self._record(f"binomial({trials})", value)
        return value

    def geometric(self, probability: float) -> int:
        """Trials until (and including) the first success, success prob ``p``.

        Inverse-transform sampling; used by Morris counters to skip over
        runs of failed promotion coins in ``O(1)``.
        """
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if probability == 1.0:
            value = 1
        else:
            u = self._rng.random()
            # Guard against u == 0 (log(0)).
            u = max(u, 1e-300)
            value = int(math.ceil(math.log(u) / math.log1p(-probability)))
            value = max(1, value)
        self._record("geometric", value)
        return value

    def choice(self, items: Sequence[T]) -> T:
        """Draw a uniform element of ``items``."""
        value = self._rng.choice(items)
        self._record("choice", value)
        return value

    def sign(self) -> int:
        """Draw a uniform sign in ``{-1, +1}`` (AMS-style)."""
        value = 1 if self._rng.getrandbits(1) else -1
        self._record("sign", value)
        return value

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place, recording the resulting order."""
        self._rng.shuffle(items)
        self._record("shuffle", tuple(items))

    def spawn(self, label: str) -> "WitnessedRandom":
        """Derive a child source whose seed is drawn from (and visible in)
        this transcript.

        Used when an algorithm instantiates a sub-structure: the child's
        randomness remains part of the public view through its own
        transcript, which callers must expose via state views.
        """
        child_seed = self._rng.getrandbits(63)
        self._record(f"spawn({label})", child_seed)
        return WitnessedRandom(seed=child_seed, retain=self._transcript.maxlen)

    def __deepcopy__(self, memo: dict) -> "WitnessedRandom":
        """An independent clone: same generator state, same transcript.

        The generator state moves through ``getstate``/``setstate``; the
        default deep copy would recurse over the Mersenne Twister's
        625-word state one int at a time.  The clone gets its own
        transcript deque holding the same :class:`RandomDraw` records,
        which are never mutated once made.
        """
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone._rng = random.Random()
        clone._rng.setstate(self._rng.getstate())
        clone._transcript = copy.copy(self._transcript)
        return clone

    # -- inspection ------------------------------------------------------

    @property
    def transcript(self) -> tuple[RandomDraw, ...]:
        """The retained history of draws (most recent ``retain``)."""
        return tuple(self._transcript)

    @property
    def draws(self) -> int:
        """Total number of draws made so far (excluding the seed entry)."""
        return self._total - 1

    def mark(self) -> int:
        """Return a draw-count position for use with :meth:`draws_since`."""
        return self._total

    def draws_since(self, marker: int) -> tuple[RandomDraw, ...]:
        """Draws made after position ``marker`` (within the retained window)."""
        missing = self._total - marker
        if missing <= 0:
            return ()
        window = list(self._transcript)
        return tuple(window[-missing:]) if missing <= len(window) else tuple(window)

    def __iter__(self) -> Iterator[RandomDraw]:
        return iter(self._transcript)
