"""The server core alone: no socket, no thread, no event loop.

:class:`~repro.service.core.ServerCore` takes decoded requests and gives
back an answer, a raised validation error, or a zero-argument job.  Here
every job runs inline, right away, which keeps the one-at-a-time order
the server's engine thread gives.  These tests pin the core's rules
directly: sequenced-feed dedup, gaps and failed-feed resends, the state
version, snapshot loads, and a checkpoint that carries the dedup table
through a resume.
"""

import ast
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import StreamEngine
from repro.distributed.codec import FingerprintMismatch
from repro.heavyhitters.count_min import CountMinSketch
from repro.service import SequenceGap
from repro.service import core as core_module
from repro.service.core import ServerCore
from repro.service.protocol import make_error_reply

UNIVERSE = 1 << 12


def factory():
    return CountMinSketch(universe_size=UNIVERSE, depth=4, width=256, seed=5)


def batch(seed, length=500):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, UNIVERSE, size=length, dtype=np.int64)
    deltas = rng.integers(-2, 5, size=length, dtype=np.int64)
    return items, deltas


def ask(core, op, counted=None, **fields):
    """One request: the core's answer, running its job inline if any."""
    counted = counted if counted is not None else []
    result = core.handle({"op": op, **fields}, lambda **amounts: counted.append(amounts))
    return result() if callable(result) else result


def feed(core, seed, client=None, seq=None):
    items, deltas = batch(seed)
    fields = {"items": items, "deltas": deltas}
    if client is not None:
        fields.update(client=client, seq=seq)
    return ask(core, "feed", **fields)


def serial_snapshot(*seeds):
    sketch = factory()
    for seed in seeds:
        StreamEngine().drive_arrays(sketch, *batch(seed))
    return sketch.snapshot()


class Rejected(Exception):
    """An apply failure of a type the service knows nothing about."""


def reject_every_apply(core):
    def reject(items, deltas):
        raise Rejected(f"no to {len(items)} updates")

    core.fleet.process_batch = reject


def accept_applies(core):
    del core.fleet.process_batch


class TestSequencedFeeds:
    def test_a_duplicate_seq_is_acked_and_not_applied(self):
        core = ServerCore(factory)
        assert feed(core, 1, "c", 1) == {"count": 500, "position": 500}
        version = core.version
        assert feed(core, 1, "c", 1) == {"count": 0, "position": 500, "duplicate": True}
        assert core.version == version
        assert ask(core, "snapshot") == serial_snapshot(1)

    def test_a_gap_names_the_seq_to_resend_from(self):
        core = ServerCore(factory)
        feed(core, 1, "c", 1)
        with pytest.raises(SequenceGap, match="seq 4 after 1.*resend from seq 2"):
            feed(core, 2, "c", 4)
        assert core.position == 500
        # Another client's seqs are its own.
        assert feed(core, 2, "other", 7)["position"] == 1000

    def test_a_resend_of_a_failed_feed_raises_its_error_again(self):
        core = ServerCore(factory)
        feed(core, 1, "c", 1)
        reject_every_apply(core)
        with pytest.raises(Rejected) as first:
            feed(core, 2, "c", 2)
        accept_applies(core)
        with pytest.raises(Rejected) as resent:
            feed(core, 2, "c", 2)
        assert resent.value is first.value
        assert core.position == 500
        assert feed(core, 3, "c", 3)["position"] == 1000

    def test_the_version_moves_before_the_apply_even_when_it_raises(self):
        core = ServerCore(factory)
        epoch, mutations = core.version
        seen = []
        apply = core.fleet.process_batch

        def watched(items, deltas):
            seen.append(core.version)
            apply(items, deltas)

        core.fleet.process_batch = watched
        feed(core, 1)
        assert seen == [(epoch, mutations + 1)]
        reject_every_apply(core)
        with pytest.raises(Rejected):
            feed(core, 2, "c", 1)
        assert core.version == (epoch, mutations + 2)
        assert core.position == 500


class TestSnapshots:
    def test_replacing_and_merging_loads_round_trip(self):
        source = ServerCore(factory)
        feed(source, 1)
        data = ask(source, "snapshot")
        replaced = ServerCore(factory)
        feed(replaced, 9)
        assert ask(replaced, "load_snapshot", snapshot=data) == {"position": 500}
        assert ask(replaced, "snapshot") == data
        assert ask(replaced, "load_snapshot", snapshot=data, position=7) == {"position": 7}

        merged = ServerCore(factory)
        assert ask(merged, "load_snapshot", snapshot=data, merge=True) == {"position": 500}
        feed(merged, 2)
        assert ask(merged, "snapshot") == serial_snapshot(1, 2)
        reply = ask(merged, "load_snapshot", snapshot=data, merge=True, position=3)
        assert reply == {"position": 1003}
        assert ask(merged, "snapshot") == serial_snapshot(1, 2, 1)

        # A merge without a position gains the snapshot's updates, not the
        # fed core's whole load.
        fed = ServerCore(factory)
        feed(fed, 1)
        assert ask(fed, "load_snapshot", snapshot=data, merge=True) == {"position": 1000}
        assert ask(fed, "load_snapshot", snapshot=data, merge=True) == {"position": 1500}
        assert ask(fed, "snapshot") == serial_snapshot(1, 1, 1)

    def test_a_foreign_snapshot_is_refused_before_the_fleet(self):
        core = ServerCore(factory)
        version = core.version
        foreign = CountMinSketch(universe_size=UNIVERSE, depth=4, width=256, seed=6)
        with pytest.raises(FingerprintMismatch):
            ask(core, "load_snapshot", snapshot=foreign.snapshot())
        assert core.version == version

    def test_hello_ping_and_a_current_check_need_no_job(self):
        core = ServerCore(factory, num_shards=2)
        counted = []
        hello = core.handle({"op": "hello"}, counted.append)
        assert hello["fingerprint"] == core.fingerprint and hello["num_shards"] == 2
        assert core.handle({"op": "ping"}, counted.append) == {"pong": True, "position": 0}
        check = {"op": "snapshot", "unless": core.version}
        assert core.handle(check, lambda **amounts: counted.append(amounts)) == {
            "version": core.version,
            "snapshot": None,
        }
        assert counted == [{"queries": 1}]
        feed(core, 1)
        job = core.handle(check, lambda **_: None)
        assert callable(job)
        assert job() == {"version": core.version, "snapshot": serial_snapshot(1)}

    def test_invalid_requests_raise_before_any_job(self):
        core = ServerCore(factory)
        counted = []
        for op, fields in [
            ("feed", {"items": np.arange(3), "deltas": np.arange(2)}),
            ("feed", {"items": np.arange(3), "deltas": np.arange(3), "client": "c"}),
            ("estimate", {"items": [1, 2]}),
            ("query", {"kind": "nope"}),
            ("load_snapshot", {"snapshot": "text"}),
            ("bogus", {}),
        ]:
            with pytest.raises(ValueError):
                core.handle({"op": op, **fields}, lambda **amounts: counted.append(amounts))
        assert counted == [{"queries": 1}]  # the query counted before its kind failed
        assert core.version[1] == 0


class TestCheckpointResume:
    def test_resume_restores_state_and_dedup_table(self, tmp_path):
        path = tmp_path / "core.ckpt"
        core = ServerCore(factory, checkpoint_path=path)
        feed(core, 1, "a", 1)
        feed(core, 2, "b", 1)
        reject_every_apply(core)
        with pytest.raises(Rejected) as failure:
            feed(core, 3, "a", 2)
        accept_applies(core)
        assert ask(core, "checkpoint") == {"path": str(path), "position": 1000}

        resumed = ServerCore(factory, resume_path=path)
        assert resumed.position == 1000
        assert ask(resumed, "snapshot") == ask(core, "snapshot")
        assert resumed.dedup_table() == core.dedup_table()
        assert core.dedup_table()["a"] == {
            "seq": 2,
            "failed": {2: ("Rejected", "no to 500 updates")},
        }
        # The resent failure gives the original's error reply again.
        with pytest.raises(Exception) as again:
            feed(resumed, 3, "a", 2)
        assert make_error_reply(1, again.value) == make_error_reply(1, failure.value)
        assert feed(resumed, 2, "b", 1)["duplicate"]
        with pytest.raises(SequenceGap, match="resend from seq 2"):
            feed(resumed, 4, "b", 3)
        assert feed(resumed, 4, "a", 3)["position"] == 1500

    def test_a_version_1_checkpoint_resumes_with_an_empty_table(self):
        fixture = Path(__file__).parent / "fixtures" / "codec_v1" / "count-min.ckpt"
        assert fixture.read_bytes()[4] == 1  # the checkpoint format version byte
        fixture_factory = partial(CountMinSketch, 500, width=32, depth=4, seed=9)
        core = ServerCore(fixture_factory, resume_path=fixture)
        assert core.position == 256
        assert core.dedup_table() == {}


def test_the_core_imports_no_transport():
    tree = ast.parse(Path(core_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported
    assert not imported & {"asyncio", "threading", "queue", "socket", "selectors", "concurrent"}
