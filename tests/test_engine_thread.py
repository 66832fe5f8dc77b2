"""The server's engine thread: one FIFO of jobs, one wake of the loop per job.

:class:`SketchServer` runs every engine operation on one ``sketch-engine``
thread, which takes ``(future, fn, args)`` jobs from a queue and settles
each future on the event loop.  These tests pin what that hand-off keeps
from a one-worker executor: a job whose request is cancelled while it
waits never runs, engine exceptions arrive with their type and message
(the failed-feed resend path raises the stored one again), no engine
thread outlives its server -- after ``run_in_thread`` exits, or after a
``start()`` whose bind fails -- nor do a failed ``run_in_thread``'s
fleet workers, and the connection table the event loop owns is never
read on the engine thread.
"""

import asyncio
import multiprocessing
import socket
import threading
import time

import pytest
from test_service import CHUNK, PROBE, count_min_factory, held, stream

from repro.service import SketchClient, SketchServer


def on_loop(server, coroutine):
    """Run ``coroutine`` on the server's event loop; a concurrent future."""
    return asyncio.run_coroutine_threadsafe(coroutine, server._server.get_loop())


def wait_until(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def engine_threads():
    return {thread for thread in threading.enumerate() if thread.name == "sketch-engine"}


class Rejected(Exception):
    """An engine-side failure of a type the service knows nothing about."""


class TestJobs:
    def test_a_job_cancelled_while_it_waits_never_runs(self):
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        ran = []
        with server.run_in_thread():
            with SketchClient.connect("127.0.0.1", server.port) as reader:
                with held(server.engine, "estimate_batch") as entered:
                    estimating = threading.Thread(target=reader.estimate, args=(PROBE,))
                    estimating.start()
                    assert entered.wait(timeout=5)
                    cancelled = on_loop(server, server._engine_call(ran.append, "cancelled"))
                    wait_until(lambda: server._jobs.qsize() == 1)
                    cancelled.cancel()
                    # Queued after the cancellation reached the loop.
                    after = on_loop(server, server._engine_call(ran.append, "after"))
                    wait_until(lambda: server._jobs.qsize() == 2)
                after.result(timeout=5)
                estimating.join(timeout=10)
        assert ran == ["after"]

    def test_engine_exceptions_keep_their_type_and_message(self):
        items, deltas = stream(3, 64)
        server = SketchServer(count_min_factory, chunk_size=CHUNK)

        def reject(*_):
            raise Rejected("the engine said no")

        with server.run_in_thread():
            with pytest.raises(Rejected, match="^the engine said no$"):
                on_loop(server, server._engine_call(reject)).result(timeout=5)
            # The failed-feed resend path: the apply raises, and a resend
            # of the same seq raises the stored exception again.
            server.engine.algorithm.process_batch = reject
            raised = []
            for _ in range(2):
                with pytest.raises(Rejected, match="^the engine said no$") as info:
                    on_loop(
                        server, server._engine_call(server._feed, items, deltas, "c1", 1)
                    ).result(timeout=5)
                raised.append(info.value)
            assert raised[0] is raised[1]
            assert server.position == 0


class TestEngineThreadLifetime:
    def test_no_engine_thread_outlives_run_in_thread(self):
        before = engine_threads()
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        with server.run_in_thread():
            with SketchClient.connect("127.0.0.1", server.port) as client:
                client.feed(*stream(4, 256))
            assert len(engine_threads() - before) == 1
        assert engine_threads() - before == set()

    def test_no_engine_thread_after_a_failed_bind(self):
        before = engine_threads()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            server = SketchServer(count_min_factory, port=port)
            with pytest.raises(OSError):
                with server.run_in_thread():
                    pass
            with pytest.raises(OSError):
                asyncio.run(server.start())
        assert engine_threads() - before == set()

    def test_a_failed_run_in_thread_leaves_no_fleet_workers(self):
        before = set(multiprocessing.active_children())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = SketchServer(
                count_min_factory,
                num_shards=2,
                backend="process",
                gateway_port=taken.getsockname()[1],
            )
            assert len(set(multiprocessing.active_children()) - before) == 2
            with pytest.raises(OSError):
                with server.run_in_thread():
                    pass
        assert set(multiprocessing.active_children()) - before == set()


class ThreadRecordingTable(dict):
    """A connection table that records which threads iterate it."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def items(self):
        self.threads.add(threading.current_thread().name)
        return super().items()

    def __iter__(self):
        self.threads.add(threading.current_thread().name)
        return super().__iter__()


class TestLoopOwnedState:
    def test_stats_reads_the_connection_table_on_the_loop(self):
        """Handlers add and remove connections on the event loop, so a
        ``stats`` answer that iterated the table on the engine thread
        could meet it changing size mid-iteration."""
        server = SketchServer(count_min_factory, chunk_size=CHUNK)
        server.stats.connections = table = ThreadRecordingTable()
        with server.run_in_thread():
            with SketchClient.connect("127.0.0.1", server.port) as client:
                client.feed(*stream(5, 256))
                stats = client.stats()
        assert [entry["updates"] for entry in stats["connections"].values()] == [256]
        assert table.threads and "sketch-engine" not in table.threads
