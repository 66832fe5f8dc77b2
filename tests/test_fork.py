"""The fork contract: what a fork shares with its source, and what it never does.

``MergeableSketch.fork()`` is the copy the fleet makes for every merged
view, replica and restore twin.  It shares the randomness witness and
each family's construction-time hash parameters with its source and
deep-copies the rest, so it must be indistinguishable from
``copy.deepcopy``: the same snapshot bytes, and no feed, merge or
restore of either side ever shows in the other.  The last tests pin the
saving: with ``WitnessedRandom.__deepcopy__`` made to raise, the
coordinator's reads and a server's snapshot and estimate still work.
"""

import asyncio
import copy

import numpy as np
import pytest
from test_coordinator_fold import connected, serial_snapshot, small_batches
from test_service import HostedFleet, count_min_factory
from test_shard_equivalence import SKETCHES, skewed_updates

from repro.core.randomness import WitnessedRandom
from repro.core.stream import Update
from repro.distinct.sis_l0 import SisL0Estimator
from repro.distributed.codec import FingerprintMismatch
from repro.heavyhitters.count_min import CountMinSketch
from repro.service import SketchClient, SketchServer


def oracle_sis_l0(**options):
    return SisL0Estimator(512, eps=0.5, c=0.25, seed=37, mode="oracle", **options)


def promoted_count_min():
    """A CountMin whose table holds exact Python ints (object dtype)."""
    sketch = CountMinSketch(500, width=32, depth=4, seed=9)
    sketch.feed(Update(7, 2**70))
    assert sketch.table.dtype == object
    return sketch


SIS_CONFIG = dict(universe=512, insertions_only=False)
CASES = {
    **SKETCHES,
    "sis-l0-oracle": (oracle_sis_l0, SIS_CONFIG),
    "sis-l0-oracle-exact": (lambda: oracle_sis_l0(force_exact=True), SIS_CONFIG),
    "count-min-object": (
        promoted_count_min,
        dict(universe=500, insertions_only=False),
    ),
}

#: Ways to make the copy under test: a plain fork, and a fork restored
#: from the source's own bytes (which copies none of the tables).
FORKS = {
    "fork": lambda source: source.fork(),
    "fork(bytes)": lambda source: source.fork(source.snapshot()),
}

#: What a write does to one side; ``other`` is a replica fed another
#: stream, ``more`` a further batch.
WRITES = {
    "feed": lambda sketch, other, more: sketch.feed_batch(*more),
    "merge": lambda sketch, other, more: sketch.merge(other),
    "merge_snapshot": lambda sketch, other, more: sketch.merge_snapshot(
        other.snapshot()
    ),
    "restore": lambda sketch, other, more: sketch.restore(other.snapshot()),
}

IMMUTABLE = (int, float, str, bool, bytes, tuple, type(None), frozenset)


def arrays(updates):
    items = np.array([update.item for update in updates], dtype=np.int64)
    deltas = np.array([update.delta for update in updates], dtype=np.int64)
    return items, deltas


def fed(name):
    """A source, a replica fed another stream, and one more batch."""
    make, config = CASES[name]
    streams = [
        arrays(
            skewed_updates(
                config["universe"],
                400,
                seed=seed,
                insertions_only=config["insertions_only"],
            )
        )
        for seed in (1, 2, 3)
    ]
    source, other = make(), make()
    source.feed_batch(*streams[0])
    other.feed_batch(*streams[1])
    return source, other, streams[2]


def observed(sketch):
    """What a write to another sketch must never change: this one's
    bytes, its witness's draw count, its oracle's query count."""
    oracle = getattr(getattr(sketch, "matrix", None), "oracle", None)
    return sketch.snapshot(), sketch.random.draws, getattr(oracle, "queries", None)


@pytest.mark.parametrize("name", sorted(CASES))
class TestForkContract:
    @pytest.mark.parametrize("how", sorted(FORKS))
    def test_snapshot_bytes_equal_the_source_and_a_deep_copy(self, name, how):
        source, _, _ = fed(name)
        data = source.snapshot()
        assert FORKS[how](source).snapshot() == data
        assert copy.deepcopy(source).snapshot() == data

    @pytest.mark.parametrize("how", sorted(FORKS))
    def test_shares_only_construction_state(self, name, how):
        source, _, _ = fed(name)
        fork = FORKS[how](source)
        assert fork.random is source.random
        shared = {"random", *source._fork_shared}
        for attribute, value in vars(source).items():
            if attribute in shared:
                assert getattr(fork, attribute) is value, attribute
            elif not isinstance(value, IMMUTABLE):
                assert getattr(fork, attribute) is not value, attribute

    @pytest.mark.parametrize("how", sorted(FORKS))
    @pytest.mark.parametrize("write", sorted(WRITES))
    @pytest.mark.parametrize("written", ["fork", "source"])
    def test_a_write_to_either_side_leaves_the_other(self, name, how, write, written):
        source, other, more = fed(name)
        sides = {"fork": FORKS[how](source), "source": source}
        target = sides.pop(written)
        (bystander,) = sides.values()
        # The write lands on the target as it would on a deep copy.
        expected = copy.deepcopy(target)
        WRITES[write](expected, other, more)
        before = observed(bystander)
        WRITES[write](target, other, more)
        assert observed(bystander) == before
        assert target.snapshot() == expected.snapshot()
        assert target.random.draws == expected.random.draws


class TestForkFromBytes:
    def test_restores_another_replicas_state_and_leaves_the_source(self):
        source, other, more = fed("count-min")
        before = observed(source)
        fork = source.fork(other.snapshot())
        assert fork.snapshot() == other.snapshot()
        fork.feed_batch(*more)
        assert observed(source) == before

    def test_a_mismatched_fingerprint_raises_and_leaves_the_source(self):
        source, _, _ = fed("count-min")
        before = observed(source)
        foreign = CountMinSketch(500, width=32, depth=4, seed=10).snapshot()
        with pytest.raises(FingerprintMismatch):
            source.fork(foreign)
        assert observed(source) == before


def test_an_oracle_fork_counts_its_own_queries():
    """In oracle mode the SIS columns come from oracle queries; each
    copy keeps its own count, so the fork's first feed queries its own
    oracle and leaves the source's at zero."""
    source = oracle_sis_l0(force_exact=True)
    fork = source.fork()
    assert fork.matrix.oracle is not source.matrix.oracle
    assert source.matrix.oracle.queries == 0
    fork.feed_batch(*arrays(skewed_updates(512, 50, seed=4)))
    assert fork.matrix.oracle.queries > 0
    assert source.matrix.oracle.queries == 0


# -- the saving stays: the fleet never deep-copies a witness ------------------


@pytest.fixture
def no_witness_copies(monkeypatch):
    def refuse(self, memo):
        raise AssertionError("a WitnessedRandom was deep-copied")

    monkeypatch.setattr(WitnessedRandom, "__deepcopy__", refuse)
    with pytest.raises(AssertionError):
        copy.deepcopy(count_min_factory())


EVERY = 3


def test_coordinator_reads_fork(no_witness_copies):
    """The first read rebuilds from pulled bytes, reads after the
    coordinator's own feeds fold, and the read after each journal
    rotation rebuilds from the live replicas: none deep-copies."""
    batches = small_batches(21, 2 * EVERY)

    async def scenario(fleet):
        coordinator = await connected(count_min_factory, fleet, journal_every=EVERY)
        await coordinator.merged(allow_degraded=False)
        outcomes = [coordinator.last_read["view"]]
        acked = []
        for batch in batches:
            await coordinator.feed(*batch)
            acked.append(batch)
            view = await coordinator.merged(allow_degraded=False)
            outcomes.append(coordinator.last_read["view"])
            assert view.snapshot() == serial_snapshot(count_min_factory, acked)
        assert outcomes == ["rebuilt"] + (["folded"] * (EVERY - 1) + ["rebuilt"]) * 2
        await coordinator.close()

    with HostedFleet(2) as fleet:
        asyncio.run(scenario(fleet))


def test_server_snapshot_and_estimate_fork(no_witness_copies):
    items, deltas = small_batches(22, 1, size=2_000)[0]
    reference = count_min_factory()
    reference.feed_batch(items, deltas)
    probe = np.arange(0, 1 << 14, 97, dtype=np.int64)
    server = SketchServer(count_min_factory, num_shards=2, chunk_size=512)
    with server.run_in_thread() as srv:
        with SketchClient.connect("127.0.0.1", srv.port) as client:
            client.feed(items, deltas)
            assert client.snapshot() == reference.snapshot()
            client.feed(items[:10], deltas[:10])
            reference.feed_batch(items[:10], deltas[:10])
            assert np.array_equal(
                client.estimate(probe), reference.estimate_batch(probe)
            )
