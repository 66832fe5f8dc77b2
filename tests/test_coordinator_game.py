"""The paper's white-box game, played through a coordinator fleet.

The adversary of the white-box model sees the algorithm's whole state
after every update and picks the next update from it.  Here the
algorithm is a two-server :class:`SketchCoordinator`: each update is one
``coordinator.feed``, and the adversary reads the state view of
``coordinator.merged()`` before choosing the next one.  The transcript
-- every update, the state and answer the adversary saw before it, and
who won -- must equal :meth:`StreamEngine.play` against one in-process
sketch.  A stale or wrongly assembled merged view changes an answer or
a state the adversary reads, and with it the adversary's next move, so
these games fail on any read that is not exactly the acked state.

Attacks: e11's kernel stream against AMS (6 rows) and CountSketch 3x4,
and the KMV inflation attack of :mod:`repro.adversaries.distinct_attack`
played adaptively: every round it feeds the smallest-hashing item the
view's kept set still lacks.
"""

import asyncio
import contextlib

import pytest

from repro.adversaries.distinct_attack import kmv_inflation_items
from repro.adversaries.sketch_attack import KernelStreamAdversary, ams_sketch_from_view
from repro.core.adversary import WhiteBoxAdversary
from repro.core.engine import StreamEngine
from repro.core.game import frequency_truth
from repro.core.stream import Update
from repro.distinct.kmv import KMVEstimator
from repro.heavyhitters.count_sketch import CountSketch
from repro.moments.ams import AMSSketch
from repro.service import SketchCoordinator, SketchServer

SEEDS = range(5)
KERNEL_UNIVERSE = 64
KMV_UNIVERSE = 4096
KMV_K = 16
JOURNAL_EVERY = 8


class Recorded(WhiteBoxAdversary):
    """Delegates every move to ``inner`` and logs what each was made from."""

    def __init__(self, inner: WhiteBoxAdversary) -> None:
        super().__init__()
        self.inner = inner
        self.transcript: list[tuple] = []

    def next_update(self, view):
        state = view.latest_state
        seen = None if state is None else (dict(state.fields), state.randomness)
        update = self.inner.next_update(view)
        self.transcript.append((update, view.latest_output, seen))
        return update


class FleetAlgorithm:
    """A coordinator fleet as the game's algorithm: a feed routes one
    update through the coordinator, and every read answers from the
    ``merged()`` view taken right after it."""

    def __init__(self, coordinator: SketchCoordinator, loop) -> None:
        self.coordinator = coordinator
        self.loop = loop
        self.view = None
        self.outcomes: list[str] = []

    def feed(self, update: Update) -> None:
        run = self.loop.run_until_complete
        run(self.coordinator.feed([update.item], [update.delta]))
        self.view = run(self.coordinator.merged(allow_degraded=False))
        self.outcomes.append(self.coordinator.last_read["view"])

    def query(self):
        return self.view.query()

    def space_bits(self) -> int:
        return self.view.space_bits()

    def state_view(self):
        return self.view.state_view()


def play(make, adversary, truth, validator, max_rounds, fleet=None):
    """One game; against ``make()`` in process, or through ``fleet``."""
    recorded = Recorded(adversary)
    result = StreamEngine().play(
        fleet if fleet is not None else make(),
        recorded,
        truth,
        validator,
        max_rounds=max_rounds,
    )
    return (
        recorded.transcript,
        result.rounds_played,
        result.total_failures,
        result.final_answer,
        result.algorithm_won,
    )


def play_through_fleet(make, adversary, truth, validator, max_rounds):
    """The same game against a fresh two-server coordinator fleet."""
    with contextlib.ExitStack() as stack:
        ports = [
            stack.enter_context(SketchServer(make).run_in_thread()).port
            for _ in range(2)
        ]
        loop = asyncio.new_event_loop()
        stack.callback(loop.close)
        coordinator = SketchCoordinator(
            make,
            [("127.0.0.1", port) for port in ports],
            journal_every=JOURNAL_EVERY,
        )
        loop.run_until_complete(coordinator.connect())
        stack.callback(lambda: loop.run_until_complete(coordinator.close()))
        fleet = FleetAlgorithm(coordinator, loop)
        outcome = play(make, adversary, truth, validator, max_rounds, fleet)
    return outcome, fleet.outcomes


def f2_validator(answer, truth):
    return truth == 0 or 0.5 <= (answer or 0) / truth <= 2.0


def f2_truth():
    return frequency_truth(KERNEL_UNIVERSE, lambda vector: vector.fp_moment(2))


def ams_from_view(view) -> AMSSketch:
    clone = ams_sketch_from_view(view)
    clone.universe_size = KERNEL_UNIVERSE
    return clone


def count_sketch_from_view(view) -> CountSketch:
    """An attackable CountSketch clone built from a state view's hashes."""
    clone = CountSketch.__new__(CountSketch)
    clone.universe_size = KERNEL_UNIVERSE
    clone.bucket_params = list(view["bucket_params"])
    clone.sign_params = list(view["sign_params"])
    clone.prime = view["prime"]
    clone.width = view["width"]
    clone.depth = len(clone.bucket_params)
    clone._vectorizable = True
    return clone


class KMVInflation(WhiteBoxAdversary):
    """Every round, feed the smallest-hashing item whose hash the view's
    kept set lacks; stop once the kept set is the k smallest hashes."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k
        self.ranked = None

    def next_update(self, view):
        state = view.latest_state
        if state is None:
            return Update(KMV_UNIVERSE - 1, 1)  # a probe, so a view exists
        clone = KMVEstimator.__new__(KMVEstimator)
        clone.universe_size = KMV_UNIVERSE
        clone.hash_a, clone.hash_b = state["hash_a"], state["hash_b"]
        clone.prime = state["prime"]
        if self.ranked is None:
            self.ranked = kmv_inflation_items(clone, self.k)
        kept = set(state["kept"])
        for item in self.ranked:
            if clone.hash_value(item) not in kept:
                return Update(item, 1)
        return None


def kmv_validator(answer, truth):
    return truth == 0 or 0.25 <= answer / truth <= 4.0


GAMES = {
    "ams": (
        lambda seed: AMSSketch(universe_size=KERNEL_UNIVERSE, rows=6, seed=seed),
        lambda: KernelStreamAdversary(ams_from_view),
        f2_truth,
        f2_validator,
    ),
    "count-sketch": (
        lambda seed: CountSketch(
            universe_size=KERNEL_UNIVERSE, width=4, depth=3, seed=seed
        ),
        lambda: KernelStreamAdversary(count_sketch_from_view),
        f2_truth,
        f2_validator,
    ),
    "kmv": (
        lambda seed: KMVEstimator(universe_size=KMV_UNIVERSE, k=KMV_K, seed=seed),
        lambda: KMVInflation(KMV_K),
        lambda: frequency_truth(KMV_UNIVERSE, lambda vector: vector.l0()),
        kmv_validator,
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GAMES))
def test_fleet_game_transcript_equals_single_engine(name, seed):
    build, adversary, truth, validator = GAMES[name]

    def make():
        return build(seed)

    local = play(make, adversary(), truth(), validator, max_rounds=64)
    through_fleet, outcomes = play_through_fleet(
        make, adversary(), truth(), validator, max_rounds=64
    )
    assert through_fleet == local
    # Every read folds the one update fed since the last, except the
    # first (there is no view yet) and those after a journal rotation,
    # which rebuild from the refreshed cache.
    assert outcomes == [
        "rebuilt" if read == 0 or (read + 1) % JOURNAL_EVERY == 0 else "folded"
        for read in range(len(outcomes))
    ]
    # The attack lands through the fleet exactly as in process.
    transcript, rounds, failures, _, algorithm_won = local
    assert not algorithm_won and failures > 0
    assert rounds == len([move for move in transcript if move[0] is not None])
