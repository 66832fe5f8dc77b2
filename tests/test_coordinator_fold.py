"""Read-your-writes fan-in: the coordinator folds its own writes, exactly.

After the coordinator's own feeds, ``SketchCoordinator.merged()`` asks
each server for its state *unless* it is at the predicted version (the
cached version plus one mutation per journaled slice).  When every
server answers with its version alone, the coordinator folds the
journaled slices into a copy of its view instead of pulling, restoring
and merging every server.  Anything else -- a write by another client,
a restart, a recovery, a migration, a readmission, a rejected slice, or
more updates to fold than the state has cells -- rebuilds the view from
pulled bytes.  A journal rotation applies the same rule to the cache:
a server at its predicted version has its journal folded into a live
replica in its cache entry, and ships nothing.

The property test drives every mergeable family through random
interleavings of feeds, reads, direct writes by another client and
server restarts, with rotations every 1, 2, 3 or 8 feeds, and holds
every read to two references: a serial engine over the acknowledged
stream, and a view rebuilt from the servers' own snapshots.  The other
tests pin which reads and rotations fold, which pull, and that every
hand-off from a folded cache entry stays exact.
"""

import asyncio
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_service import HostedFleet, count_min_factory, record_snapshot_replies
from test_shard_equivalence import SKETCHES, skewed_updates

from repro.core.engine import StreamEngine
from repro.distributed.checkpoint import load_checkpoint
from repro.distinct.sis_l0 import SisL0Estimator
from repro.heavyhitters.count_min import CountMinSketch
from repro.service import (
    RetryPolicy,
    ServiceError,
    SketchClient,
    SketchCoordinator,
    SketchServer,
)

RETRY = RetryPolicy(max_attempts=4, base_delay=0.05)


def as_arrays(updates):
    items = np.array([update.item for update in updates], dtype=np.int64)
    deltas = np.array([update.delta for update in updates], dtype=np.int64)
    return items, deltas


def serial_snapshot(factory, acked):
    sketch = factory()
    engine = StreamEngine(chunk_size=64)
    for items, deltas in acked:
        engine.drive_arrays([sketch], items, deltas)
    return sketch.snapshot()


async def rebuilt_snapshot(factory, coordinator):
    """The fleet's state merged from each server's own snapshot."""
    view = factory()
    for index, client in enumerate(coordinator.clients):
        data = await client.snapshot()
        if index == 0:
            view.restore(data)
        else:
            view.merge_snapshot(data)
    return view.snapshot()


def cache_state(coordinator):
    """Each server's cache entry as bytes (a replica encoded), its
    version and its journal."""
    return (
        [log.baseline_bytes() for log in coordinator._logs],
        [log.version for log in coordinator._logs],
        [list(log.entries) for log in coordinator._logs],
    )


async def connected(factory, fleet, **options):
    coordinator = SketchCoordinator(factory, fleet.addresses(), **options)
    await coordinator.connect(retry=RETRY)
    return coordinator


def is_replica(entry):
    return entry is not None and not isinstance(entry, bytes)


# -- the property: every read is exact, folded or not -------------------------

FEED = st.tuples(st.just("feed"), st.integers(1, 12))
READ = st.tuples(st.just("read"))
# Small feeds and reads come up most: they are what folds.
OPS = st.lists(
    st.one_of(
        FEED,
        FEED,
        READ,
        READ,
        st.tuples(st.just("feed"), st.integers(13, 300)),
        st.tuples(st.just("other"), st.integers(0, 1), st.integers(1, 40)),
        st.tuples(st.just("restart"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("name", sorted(SKETCHES))
@settings(max_examples=25, deadline=None)
@given(
    ops=OPS, seed=st.integers(0, 2**16), journal_every=st.sampled_from([1, 2, 3, 8])
)
def test_every_read_equals_the_serial_engine_and_a_rebuild(
    name, ops, seed, journal_every
):
    make, config = SKETCHES[name]
    rng = random.Random(seed)

    def batch(count):
        return as_arrays(
            skewed_updates(
                config["universe"],
                count,
                rng.randrange(2**32),
                insertions_only=config["insertions_only"],
            )
        )

    async def scenario(fleet):
        coordinator = await connected(make, fleet, journal_every=journal_every)
        # A coordinator feed asks for snapshots only when it rotates: a
        # version-only reply is a folded rotation, bytes a pulled one.
        replies = record_snapshot_replies(coordinator)
        acked = []
        # Servers another client wrote to since the coordinator last read:
        # an empty restart would lose those writes, which only a read has
        # brought into the coordinator's cache.
        unread = set()

        async def read():
            view = await coordinator.merged(allow_degraded=False)
            event(f"view {coordinator.last_read['view']}")
            unread.clear()
            snapshot = view.snapshot()
            assert snapshot == serial_snapshot(make, acked)
            assert snapshot == await rebuilt_snapshot(make, coordinator)

        for op in [("read",), *ops, ("read",)]:
            if op[0] == "feed":
                items, deltas = batch(op[1])
                # Every journal_every-th feed rotates, and a rotation asks
                # each journaled server once: those with a journal already,
                # and those this feed's slices reach.
                rotates = coordinator._chunks_since_rotate + 1 >= journal_every
                journaled = {
                    index for index, log in enumerate(coordinator._logs) if log.entries
                } | {
                    coordinator.routing[partition]
                    for partition, part in enumerate(
                        coordinator.partitioner.split(items, deltas)
                    )
                    if part is not None and len(part[0])
                }
                mark = len(replies)
                await coordinator.feed(items, deltas)
                acked.append((items, deltas))
                assert len(replies) - mark == (len(journaled) if rotates else 0)
                for reply in replies[mark:]:
                    pulled = reply["snapshot"] is not None
                    event(f"rotation {'pulled' if pulled else 'folded'}")
            elif op[0] == "other":
                items, deltas = batch(op[2])
                with SketchClient.connect(*fleet.addresses()[op[1]]) as other:
                    other.feed(items, deltas)
                acked.append((items, deltas))
                unread.add(op[1])
            elif op[0] == "restart":
                if op[1] in unread:
                    await read()
                if is_replica(coordinator._logs[op[1]].baseline):
                    event("restart after a folded rotation")
                fleet.stop(op[1])
                fleet.start(op[1])
                await coordinator.readmit(op[1])
            else:
                await read()
        await coordinator.close()

    with HostedFleet(2, make) as fleet:
        asyncio.run(scenario(fleet))


# -- which reads fold ---------------------------------------------------------


def small_batches(seed, count, size=16):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, 1 << 14, size=size, dtype=np.int64),
            rng.integers(-2, 5, size=size, dtype=np.int64),
        )
        for _ in range(count)
    ]


class TestFold:
    def test_own_writes_fold_and_leave_the_cache_alone(self):
        batches = small_batches(1, 4)

        async def scenario(fleet):
            coordinator = await connected(count_min_factory, fleet)
            await coordinator.feed(*batches[0])
            first = await coordinator.merged()
            assert coordinator.last_read["view"] == "rebuilt"
            first_bytes = first.snapshot()
            views = [first]
            for end, batch in enumerate(batches[1:], start=2):
                await coordinator.feed(*batch)
                cache = cache_state(coordinator)
                view = await coordinator.merged()
                assert coordinator.last_read["view"] == "folded"
                # The cache, its versions and the journal stand; only the
                # view advanced, and the one handed out before is intact.
                assert cache == cache_state(coordinator)
                assert view is not views[-1]
                assert view.snapshot() == serial_snapshot(
                    count_min_factory, batches[:end]
                )
                views.append(view)
            assert first.snapshot() == first_bytes
            assert await coordinator.merged() is views[-1]
            assert coordinator.last_read["view"] == "reused"
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_a_one_server_journal_owns_its_slices(self):
        # One server: the partitioner's split hands back the caller's
        # arrays, and the caller refills one buffer between feeds.  An
        # empty 4 x 16384 table snapshots to ~8,000 words, so 300 fold.
        def factory():
            return CountMinSketch(1 << 14, width=16384, depth=4, seed=7)

        batches = small_batches(5, 3, size=100)

        async def scenario(fleet):
            coordinator = await connected(factory, fleet)
            await coordinator.merged()
            items, deltas = np.empty(100, dtype=np.int64), np.empty(100, dtype=np.int64)
            for batch in batches:
                items[:], deltas[:] = batch
                await coordinator.feed(items, deltas)
            view = await coordinator.merged()
            assert coordinator.last_read["view"] == "folded"
            assert view.snapshot() == serial_snapshot(factory, batches)
            await coordinator.close()

        with HostedFleet(1, factory) as fleet:
            asyncio.run(scenario(fleet))

    def test_more_updates_than_cells_pull_instead(self):
        # CountMin 4 x 512 snapshots to ~16 KiB: ~2,000 cells per server.
        batches = small_batches(2, 2, size=8_000)

        async def scenario(fleet):
            coordinator = await connected(count_min_factory, fleet)
            await coordinator.merged()
            for end, batch in enumerate(batches, start=1):
                await coordinator.feed(*batch)
                view = await coordinator.merged()
                assert coordinator.last_read["view"] == "rebuilt"
                assert view.snapshot() == serial_snapshot(
                    count_min_factory, batches[:end]
                )
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))


class TestRebuildInstead:
    """Each way a server's state can leave cache plus journal makes the
    next read rebuild -- never fold -- and the rebuilt view is exact."""

    def run(self, event, servers=2):
        """Feed and read until a read folds, apply ``event``, then feed
        and read again: that read must rebuild, exactly."""
        batches = small_batches(3, 3)

        async def scenario(fleet):
            coordinator = await connected(count_min_factory, fleet)
            acked = []
            for batch in batches[:2]:
                await coordinator.feed(*batch)
                acked.append(batch)
                await coordinator.merged()
            assert coordinator.last_read["view"] == "folded"
            acked.extend(await event(coordinator, fleet) or [])
            await coordinator.feed(*batches[2])
            acked.append(batches[2])
            view = await coordinator.merged(allow_degraded=False)
            assert coordinator.last_read["view"] == "rebuilt"
            assert view.snapshot() == serial_snapshot(count_min_factory, acked)
            await coordinator.close()

        with HostedFleet(servers) as fleet:
            asyncio.run(scenario(fleet))

    def test_a_write_by_another_client(self):
        extra = small_batches(4, 1)

        async def event(coordinator, fleet):
            with SketchClient.connect(*fleet.addresses()[1]) as other:
                other.feed(*extra[0])
            return extra

        self.run(event)

    def test_readmit_after_an_empty_restart(self):
        async def event(coordinator, fleet):
            fleet.stop(1)
            fleet.start(1)
            assert (await coordinator.readmit(1))["restored"] is True

        self.run(event)

    def test_migrate_server(self):
        async def event(coordinator, fleet):
            fleet.stop(1)
            assert (await coordinator.migrate_server(1))["migrated"] is True

        self.run(event, servers=3)

    def test_recover(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        batches = small_batches(5, 2)

        async def scenario(fleet):
            coordinator = await connected(count_min_factory, fleet)
            await coordinator.feed(*batches[0])
            await coordinator.checkpoint(path)
            await coordinator.close()

        async def recovery(fleet):
            coordinator = await connected(count_min_factory, fleet)
            await coordinator.merged()
            await coordinator.feed(*batches[1])
            await coordinator.merged()
            assert coordinator.last_read["view"] == "folded"
            await coordinator.recover(path)
            view = await coordinator.merged()
            assert coordinator.last_read["view"] == "rebuilt"
            # Server 0 holds the checkpoint now, server 1 its own slices.
            server_1 = coordinator.partitioner.split(*batches[1])[1]
            expected = serial_snapshot(count_min_factory, [batches[0], server_1])
            assert view.snapshot() == expected
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))
        with HostedFleet(2) as fleet:
            asyncio.run(recovery(fleet))

    def test_a_restart_from_a_checkpoint_is_a_new_epoch(self, tmp_path):
        """A server that resumes its own checkpoint on the same port holds
        the same state under a new epoch; the coordinator's feed
        reconnects to it, and the next read rebuilds."""
        batches = small_batches(6, 3)
        paths = [tmp_path / f"server{index}.ckpt" for index in range(2)]

        def serve(index, port=0, resume=False):
            server = SketchServer(
                count_min_factory,
                port=port,
                checkpoint_path=paths[index],
                resume_path=paths[index] if resume else None,
            )
            context = server.run_in_thread()
            context.__enter__()
            return server, context

        fleet = [serve(index) for index in range(2)]
        try:

            async def scenario():
                coordinator = SketchCoordinator(
                    count_min_factory,
                    [("127.0.0.1", server.port) for server, _ in fleet],
                )
                await coordinator.connect(retry=RETRY)
                for batch in batches[:2]:
                    await coordinator.feed(*batch)
                    await coordinator.merged()
                assert coordinator.last_read["view"] == "folded"
                server, context = fleet[1]
                context.__exit__(None, None, None)  # flushes a final checkpoint
                fleet[1] = serve(1, port=server.port, resume=True)
                await coordinator.feed(*batches[2])
                view = await coordinator.merged(allow_degraded=False)
                assert coordinator.last_read["view"] == "rebuilt"
                assert view.snapshot() == serial_snapshot(count_min_factory, batches)
                await coordinator.close()

            asyncio.run(scenario())
        finally:
            for _, context in fleet:
                context.__exit__(None, None, None)

    def test_a_rejected_slice(self):
        universe = 512

        def factory():
            return SisL0Estimator(universe, eps=0.5, c=0.25, seed=37)

        rng = np.random.default_rng(7)
        good = [
            (
                rng.integers(0, universe, size=8, dtype=np.int64),
                rng.integers(-3, 4, size=8, dtype=np.int64),
            )
            for _ in range(3)
        ]
        bad_items = np.array([5, universe + 1, 9, 300], dtype=np.int64)
        bad_deltas = np.ones(4, dtype=np.int64)

        async def scenario(fleet):
            coordinator = await connected(factory, fleet)
            acked = []
            for batch in good[:2]:
                await coordinator.feed(*batch)
                acked.append(batch)
                await coordinator.merged()
            assert coordinator.last_read["view"] == "folded"
            with pytest.raises(ServiceError, match="outside universe"):
                await coordinator.feed(bad_items, bad_deltas)
            acked.extend(
                part
                for part in coordinator.partitioner.split(bad_items, bad_deltas)
                if part is not None and universe + 1 not in part[0]
            )
            await coordinator.feed(*good[2])
            acked.append(good[2])
            view = await coordinator.merged(allow_degraded=False)
            assert coordinator.last_read["view"] == "rebuilt"
            assert view.snapshot() == serial_snapshot(factory, acked)
            await coordinator.close()

        with HostedFleet(2, factory) as fleet:
            asyncio.run(scenario(fleet))


# -- which rotations fold -----------------------------------------------------


class TestRotation:
    """A journal rotation folds the journal into a live replica when the
    server is at its predicted version and the journal passes the size
    rule; otherwise it pulls the server's bytes.  Every hand-off from a
    replica entry stays byte-identical to the serial engine."""

    EVERY = 4

    async def rotate(self, coordinator, batches, acked):
        """Feed ``batches`` (the last one rotates) and return the snapshot
        replies the rotation received."""
        assert coordinator._chunks_since_rotate + len(batches) == self.EVERY
        replies = record_snapshot_replies(coordinator)
        for batch in batches:
            await coordinator.feed(*batch)
            acked.append(batch)
        assert coordinator._chunks_since_rotate == 0
        return replies

    def test_own_small_feeds_fold_and_no_server_encodes(self):
        batches = small_batches(8, 3 * self.EVERY)

        async def scenario(fleet):
            coordinator = await connected(
                count_min_factory, fleet, journal_every=self.EVERY
            )
            replies = record_snapshot_replies(coordinator)
            await coordinator.merged()
            acked, outcomes, handed_out = [], [], []
            for batch in batches:
                await coordinator.feed(*batch)
                acked.append(batch)
                if coordinator._chunks_since_rotate == 0:
                    assert all(is_replica(log.baseline) for log in coordinator._logs)
                    assert not any(log.entries for log in coordinator._logs)
                view = await coordinator.merged()
                outcomes.append(coordinator.last_read["view"])
                handed_out.append((view, view.snapshot()))
                assert handed_out[-1][1] == serial_snapshot(count_min_factory, acked)
            # The read after each rotation rebuilds from the replicas, and
            # folding into a replica never touches a view handed out.
            assert outcomes == (["folded"] * (self.EVERY - 1) + ["rebuilt"]) * 3
            assert all(view.snapshot() == data for view, data in handed_out)
            # Neither the rotations nor the reads made a server encode.
            assert replies
            assert all(reply["snapshot"] is None for reply in replies)
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def after_a_folded_rotation(self, then, servers=2):
        """Rotate once with a fold on every server, then run ``then``;
        its result must equal the serial engine over the acked stream."""
        batches = small_batches(9, self.EVERY + 1)

        async def scenario(fleet):
            coordinator = await connected(
                count_min_factory, fleet, journal_every=self.EVERY
            )
            acked = []
            replies = await self.rotate(coordinator, batches[: self.EVERY], acked)
            assert len(replies) == servers
            assert all(reply["snapshot"] is None for reply in replies)
            assert all(is_replica(log.baseline) for log in coordinator._logs)
            snapshot = await then(coordinator, fleet, acked, batches[self.EVERY])
            assert snapshot == serial_snapshot(count_min_factory, acked)
            await coordinator.close()

        with HostedFleet(servers) as fleet:
            asyncio.run(scenario(fleet))

    def test_readmission_of_an_empty_restart(self):
        async def then(coordinator, fleet, acked, batch):
            # Server 1's replica entry, encoded, restores it.
            fleet.stop(1)
            fleet.start(1)
            assert (await coordinator.readmit(1))["restored"] is True
            assert isinstance(coordinator._logs[1].baseline, bytes)
            await coordinator.feed(*batch)
            acked.append(batch)
            view = await coordinator.merged(allow_degraded=False)
            assert view.snapshot() == await rebuilt_snapshot(
                count_min_factory, coordinator
            )
            return view.snapshot()

        self.after_a_folded_rotation(then)

    def test_migrate_server(self):
        async def then(coordinator, fleet, acked, batch):
            fleet.stop(1)
            result = await coordinator.migrate_server(1)
            assert result["migrated"] is True
            assert result["snapshot_bytes"] > 0
            await coordinator.feed(*batch)
            acked.append(batch)
            return (await coordinator.merged(allow_degraded=False)).snapshot()

        self.after_a_folded_rotation(then, servers=3)

    def test_a_degraded_read(self):
        async def then(coordinator, fleet, acked, batch):
            fleet.stop(1)
            view = await coordinator.merged()
            assert coordinator.last_read["degraded"] is True
            assert coordinator.last_read["stale"] == [1]
            return view.snapshot()

        self.after_a_folded_rotation(then)

    def test_checkpoint(self, tmp_path):
        path = tmp_path / "fleet.ckpt"

        async def then(coordinator, fleet, acked, batch):
            await coordinator.checkpoint(path)
            return load_checkpoint(path).snapshot

        self.after_a_folded_rotation(then)

    def test_a_write_by_another_client_makes_it_pull(self):
        batches = small_batches(10, self.EVERY)
        extra = small_batches(11, 1)[0]

        async def scenario(fleet):
            coordinator = await connected(
                count_min_factory, fleet, journal_every=self.EVERY
            )
            acked = []
            for batch in batches[:-1]:
                await coordinator.feed(*batch)
                acked.append(batch)
            with SketchClient.connect(*fleet.addresses()[1]) as other:
                other.feed(*extra)
            acked.append(extra)
            replies = await self.rotate(coordinator, batches[-1:], acked)
            # Server 0 folds; server 1 is past its predicted version and
            # ships its bytes.
            assert sorted(reply["snapshot"] is None for reply in replies) == [
                False,
                True,
            ]
            assert is_replica(coordinator._logs[0].baseline)
            assert isinstance(coordinator._logs[1].baseline, bytes)
            view = await coordinator.merged(allow_degraded=False)
            assert view.snapshot() == serial_snapshot(count_min_factory, acked)
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))

    def test_a_journal_past_the_size_rule_makes_it_pull(self):
        # CountMin 4 x 512 snapshots to ~16 KiB: ~2,000 cells per server,
        # and each server's share of the journal is ~4,000 updates.
        batches = small_batches(12, self.EVERY, size=2_000)

        async def scenario(fleet):
            coordinator = await connected(
                count_min_factory, fleet, journal_every=self.EVERY
            )
            acked = []
            replies = await self.rotate(coordinator, batches, acked)
            assert len(replies) == 2
            assert all(reply["snapshot"] is not None for reply in replies)
            assert all(isinstance(log.baseline, bytes) for log in coordinator._logs)
            view = await coordinator.merged(allow_degraded=False)
            assert view.snapshot() == serial_snapshot(count_min_factory, acked)
            await coordinator.close()

        with HostedFleet(2) as fleet:
            asyncio.run(scenario(fleet))
