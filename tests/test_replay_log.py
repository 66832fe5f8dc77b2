"""The replay primitive: a baseline plus the entries applied since it.

:class:`ReplayLog` backs the coordinator's per-server cache and the
process pool's supervision; :func:`merge_states` is the fan-in both the
coordinator's view and ``ShardedAlgorithm.merged`` use.  Each must
leave state byte-identical to one serial engine over the same updates.
"""

import copy

import numpy as np
import pytest
from test_shard_equivalence import SKETCHES, skewed_updates

from repro.core.engine import StreamEngine
from repro.distributed.replay import ReplayLog, merge_states
from repro.heavyhitters.count_min import CountMinSketch
from repro.parallel.partition import UniversePartitioner


def count_min():
    return CountMinSketch(500, width=32, depth=4, seed=9)


def batches(count, size=50, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.integers(0, 500, size=size, dtype=np.int64),
            rng.integers(-3, 9, size=size, dtype=np.int64),
        )
        for _ in range(count)
    ]


def serial(factory, fed):
    sketch = factory()
    engine = StreamEngine(chunk_size=64)
    for items, deltas in fed:
        engine.drive_arrays([sketch], items, deltas)
    return sketch


def counted(monkeypatch, name):
    """Record every call of ``CountMinSketch.<name>``."""
    calls = []
    original = getattr(CountMinSketch, name)

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CountMinSketch, name, wrapper)
    return calls


class TestReplayLog:
    def test_rebase_drops_the_entries_and_keeps_a_baseline_given_none(self):
        data = serial(count_min, batches(1)).snapshot()
        log = ReplayLog(data)
        log.entries.extend(batches(2, seed=1))
        log.rebase(None, ("epoch", 3), 7)
        assert log.entries == []
        assert log.baseline is data and log.words == len(data) // 8
        assert (log.version, log.position) == (("epoch", 3), 7)
        newer = serial(count_min, batches(2)).snapshot()
        log.entries.extend(batches(1, seed=2))
        log.rebase(newer, ("epoch", 4), 9)
        assert log.entries == [] and log.baseline is newer

    def test_fold_restores_once_and_absorbs_every_entry_in_one_batch(
        self, monkeypatch
    ):
        stream = batches(4)
        template = count_min()
        empty = template.snapshot()
        expected = [serial(count_min, stream[:end]).snapshot() for end in (3, 4)]
        log = ReplayLog(serial(count_min, stream[:1]).snapshot())
        log.entries.extend(stream[1:3])
        restores = counted(monkeypatch, "restore")
        batch_calls = counted(monkeypatch, "process_batch")
        log.fold(template, ("epoch", 2), 150)
        assert (len(restores), len(batch_calls)) == (1, 1)
        assert log.entries == [] and (log.version, log.position) == (("epoch", 2), 150)
        assert log.baseline.updates_processed == 150
        assert log.baseline.snapshot() == expected[0]
        # Later folds go straight into the replica.
        log.entries.append(stream[3])
        log.fold(template, ("epoch", 3), 200)
        assert (len(restores), len(batch_calls)) == (1, 2)
        assert log.baseline.snapshot() == expected[1]
        assert template.snapshot() == empty

    def test_baseline_bytes_encodes_a_replica_and_passes_bytes_through(self):
        stream = batches(2)
        data = serial(count_min, stream[:1]).snapshot()
        assert ReplayLog().baseline_bytes() is None
        log = ReplayLog(data)
        assert log.baseline_bytes() is data
        log.entries.append(stream[1])
        log.fold(count_min(), ("epoch", 1), 100)
        assert log.baseline_bytes() == serial(count_min, stream).snapshot()

    def test_predicted_and_fits_at_the_edges(self):
        data = count_min().snapshot()
        words = len(data) // 8
        log = ReplayLog()
        log.rebase(data, ("epoch", 5), 0)
        assert log.predicted() == ("epoch", 5)
        assert log.fits()
        [(items, deltas)], [extra] = batches(1, size=words), batches(1, size=1)
        log.entries.extend([(items[:10], deltas[:10]), (items[10:], deltas[10:])])
        assert log.predicted() == ("epoch", 7)
        assert log.fits() and log.fits(1) and log.fits(2)
        log.entries.append(extra)
        assert log.predicted() == ("epoch", 8)
        assert not log.fits() and log.fits(1)


@pytest.mark.parametrize("name", sorted(SKETCHES))
@pytest.mark.parametrize("kinds", ["bbb", "rrr", "brb", "rbr"])
def test_merge_states_equals_the_serial_engine(name, kinds):
    """Bytes (``b``) and replicas (``r``), in any mix, merge to the state
    of one engine fed every part; the twin and the inputs stay apart."""
    make, config = SKETCHES[name]
    updates = skewed_updates(config["universe"], 600, 17, config["insertions_only"])
    items = np.array([update.item for update in updates], dtype=np.int64)
    deltas = np.array([update.delta for update in updates], dtype=np.int64)
    replicas = []
    for part in UniversePartitioner(3).split(items, deltas):
        replica = make()
        replica.feed_batch(*part)
        replicas.append(replica)
    before = [replica.snapshot() for replica in replicas]
    states = [
        data if kind == "b" else replica
        for kind, data, replica in zip(kinds, before, replicas)
    ]
    template = make()
    expected = serial(make, [(items, deltas)]).snapshot()
    for twin in (None, copy.deepcopy(template)):
        view = merge_states(template, states, twin)
        assert view.snapshot() == expected
        assert view is not twin and all(view is not state for state in states)
    assert [replica.snapshot() for replica in replicas] == before
    assert template.snapshot() == make().snapshot()
