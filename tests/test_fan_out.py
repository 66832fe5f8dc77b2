"""``fan_out``: the coordinator's per-server fan-out, without a task per call.

``fan_out(calls)`` stands in for ``asyncio.gather(*calls,
return_exceptions=True)``: every call runs on the caller's task, in its
own copy of the caller's context, up to its first suspension before any
call is resumed; from then on each call is resumed as soon as what it
waits on is done.  These tests pin that contract without sockets: result
order, the start-before-resume rule, resumption in completion order,
cancellation, context isolation, and a client reply or connect timeout
inside a parked call, which must fail that call alone and never cancel
the caller's task (a connection an abandoned connect makes late is
closed).
"""

import asyncio
import contextvars

import pytest
from test_service import FakeTransport, push

from repro.service import RetryPolicy
from repro.service.client import AsyncSketchClient, fan_out
from repro.service.protocol import (
    FrameProtocol,
    make_reply,
    pack_message,
    unpack_message,
)


def run(scenario):
    return asyncio.run(scenario())


class TestResults:
    def test_results_and_exceptions_come_back_in_call_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            caller = asyncio.current_task()
            gates = [loop.create_future() for _ in range(3)]
            seen_tasks = []

            async def call(index):
                seen_tasks.append((asyncio.current_task(), len(asyncio.all_tasks())))
                await gates[index]
                if index == 1:
                    raise ValueError("call one failed")
                return index * 10

            # The gates open last first: the order of the results is the
            # order of the calls, not of their completions.
            for gate in reversed(gates):
                loop.call_soon(gate.set_result, None)
            results = await fan_out([call(0), call(1), call(2)])
            return caller, seen_tasks, results

        caller, seen_tasks, results = run(scenario)
        assert results[0] == 0 and results[2] == 20
        assert type(results[1]) is ValueError
        assert str(results[1]) == "call one failed"
        # Every call ran on the caller's task, and no task was created.
        assert seen_tasks == [(caller, 1)] * 3

    def test_no_calls_and_calls_that_never_suspend(self):
        async def immediate(value):
            return value

        async def failing():
            raise KeyError("at once")

        async def scenario():
            empty = await fan_out([])
            results = await fan_out([immediate(1), failing(), immediate(3)])
            return empty, results

        empty, results = run(scenario)
        assert empty == []
        assert results[0] == 1 and results[2] == 3
        assert type(results[1]) is KeyError

    def test_a_bare_yield_resumes_after_one_pass_of_the_loop(self):
        async def scenario():
            order = []

            async def call(name):
                order.append(f"{name} started")
                await asyncio.sleep(0)
                order.append(f"{name} resumed")
                return name

            results = await fan_out([call("a"), call("b")])
            return order, results

        order, results = run(scenario)
        assert results == ["a", "b"]
        assert order == ["a started", "b started", "a resumed", "b resumed"]


class TestStartBeforeResume:
    @staticmethod
    def handshake():
        """Two calls that each wait on the other's first step."""
        loop = asyncio.get_running_loop()
        first, second = loop.create_future(), loop.create_future()

        async def call(mine, theirs, name):
            mine.set_result(name)
            return await theirs

        return [call(first, second, "a"), call(second, first, "b")]

    def test_calls_that_wait_on_each_other_complete(self):
        async def scenario():
            return await asyncio.wait_for(fan_out(self.handshake()), timeout=5)

        assert run(scenario) == ["b", "a"]

    def test_the_same_calls_deadlock_when_awaited_one_by_one(self):
        async def scenario():
            calls = self.handshake()

            async def sequential():
                return [await call for call in calls]

            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(sequential(), timeout=0.2)
            finally:
                for call in calls:
                    call.close()

        run(scenario)


class TestResumeOnCompletion:
    def test_a_later_call_runs_on_while_an_earlier_one_waits(self):
        """The first call waits on what the second does only after its
        second wait: finishing the calls in order would deadlock."""

        async def scenario():
            gate = asyncio.get_running_loop().create_future()

            async def waits_for_the_gate():
                return await gate

            async def opens_the_gate_after_two_waits():
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                gate.set_result("opened")
                return "opener"

            return await asyncio.wait_for(
                fan_out([waits_for_the_gate(), opens_the_gate_after_two_waits()]),
                timeout=5,
            )

        assert run(scenario) == ["opened", "opener"]

    def test_second_waits_overlap(self):
        """Two calls whose second waits (a reconnect, a resend) each take
        ``pause``: together they take about one pause, not two."""
        pause = 0.3

        async def two_waits(first):
            await asyncio.sleep(first)
            await asyncio.sleep(pause)
            return first

        async def scenario():
            started = asyncio.get_running_loop().time()
            results = await fan_out([two_waits(0.01), two_waits(0.02)])
            return results, asyncio.get_running_loop().time() - started

        results, elapsed = run(scenario)
        assert results == [0.01, 0.02]
        assert elapsed < 1.6 * pause, elapsed


class TestCancellation:
    def test_cancelling_the_caller_cleans_up_every_unfinished_call(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            awaited = [loop.create_future() for _ in range(4)]
            cleaned = []

            async def finishes():
                return "done"

            async def waits(index):
                try:
                    await awaited[index]
                finally:
                    cleaned.append(index)

            async def waits_then_cleans_up_slowly(index):
                try:
                    await awaited[index]
                finally:
                    await asyncio.sleep(0)  # cleanup that itself suspends
                    cleaned.append(index)

            async def yields(index):
                try:
                    for _ in range(10_000):  # bare yields, one per pass
                        await asyncio.sleep(0)
                except asyncio.CancelledError:
                    cleaned.append(index)
                    raise

            caller = loop.create_task(
                fan_out(
                    [
                        finishes(),
                        waits(1),
                        waits(2),
                        waits_then_cleans_up_slowly(3),
                        yields(4),
                    ]
                )
            )
            await asyncio.sleep(0)  # every call has started and parked
            # What call 2 waits on is done, but the caller is cancelled
            # before call 2 wakes: the cancellation is thrown into it.
            awaited[2].set_result("early")
            caller.cancel()
            with pytest.raises(asyncio.CancelledError):
                await caller
            return awaited, cleaned

        awaited, cleaned = run(scenario)
        assert sorted(cleaned) == [1, 2, 3, 4]
        # What the unfinished calls waited on was cancelled, as a task's
        # cancellation cancels the future it waits on.
        assert awaited[1].cancelled() and awaited[3].cancelled()
        assert awaited[2].result() == "early"


class TestEvery:
    def test_the_first_failure_is_raised_once_every_call_finished(self):
        """The coordinator's raising fan-out leaves no call running: with
        ``asyncio.gather`` the slow call would still be pending here."""
        from repro.service.coordinator import _every

        async def scenario():
            finished = []

            async def slow():
                await asyncio.sleep(0.05)
                finished.append("slow")

            async def fails(error):
                await asyncio.sleep(0)
                raise error

            with pytest.raises(KeyError):
                await _every([slow(), fails(KeyError("first")), fails(ValueError())])
            return finished

        assert run(scenario) == ["slow"]


class TestContext:
    def test_a_variable_set_in_one_call_stays_in_that_call(self):
        variable = contextvars.ContextVar("variable", default="unset")

        async def sets(value):
            variable.set(value)
            await asyncio.sleep(0)
            return variable.get()

        async def reads():
            await asyncio.sleep(0)
            return variable.get()

        async def scenario():
            variable.set("caller")
            results = await fan_out([sets("one"), reads(), sets("two"), reads()])
            return results, variable.get()

        results, after = run(scenario)
        assert results == ["one", "caller", "two", "caller"]
        assert after == "caller"


class AnsweringTransport(FakeTransport):
    """Answers every ``ping`` written to it on the next pass of the loop
    -- or never, when ``answers`` is false."""

    def __init__(self, frames, answers):
        super().__init__()
        self.frames = frames
        self.answers = answers

    def write(self, data):
        super().write(data)
        if self.answers:
            request = unpack_message(memoryview(bytes(data))[8:])
            reply = pack_message(make_reply(request["id"], {"pong": True, "position": 7}))
            asyncio.get_running_loop().call_soon(push, self.frames, reply)


def offline_client(answers, op_timeout):
    """An :class:`AsyncSketchClient` wired to an in-memory transport."""
    client = AsyncSketchClient(
        ("offline", 0), RetryPolicy(max_attempts=1, op_timeout=op_timeout), hello=False
    )
    frames = FrameProtocol()
    frames.connection_made(AnsweringTransport(frames, answers))
    client._frames = frames
    return client


class TestReplyTimeoutInAParkedCall:
    @pytest.mark.parametrize("silent_first", [True, False])
    def test_the_timeout_fails_that_call_alone(self, silent_first):
        async def scenario():
            silent = offline_client(answers=False, op_timeout=0.05)
            answering = offline_client(answers=True, op_timeout=5.0)
            clients = [silent, answering] if silent_first else [answering, silent]
            results = await fan_out(client.ping() for client in clients)
            task = asyncio.current_task()
            cancelling = task.cancelling() if hasattr(task, "cancelling") else 0
            # The caller's task is still usable: it can wait again.
            await asyncio.sleep(0.01)
            return results if silent_first else results[::-1], cancelling

        (timed_out, answered), cancelling = run(scenario)
        assert type(timed_out) is OSError
        assert str(timed_out) == "reply timed out"
        assert answered == {"pong": True, "position": 7}
        assert cancelling == 0


class TestConnectTimeoutInAParkedCall:
    def test_the_timeout_fails_that_call_alone_and_closes_a_late_connection(
        self, monkeypatch
    ):
        made = []

        async def connects_late(loop, factory, host, port):
            try:
                await asyncio.sleep(10)
            except asyncio.CancelledError:
                pass  # the connection is made just as the wait gives up
            transport = FakeTransport()
            factory().connection_made(transport)
            made.append(transport)
            return transport, None

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", connects_late)

        async def scenario():
            policy = RetryPolicy(max_attempts=1, op_timeout=0.05)
            answering = offline_client(answers=True, op_timeout=5.0)
            results = await fan_out(
                [
                    AsyncSketchClient.connect("offline", 0, retry=policy, hello=False),
                    answering.ping(),
                ]
            )
            task = asyncio.current_task()
            cancelling = task.cancelling() if hasattr(task, "cancelling") else 0
            await asyncio.sleep(0.01)  # the abandoned connect winds down
            return results, cancelling

        (timed_out, answered), cancelling = run(scenario)
        assert type(timed_out) is OSError
        assert str(timed_out) == "connect timed out"
        assert answered == {"pong": True, "position": 7}
        assert cancelling == 0
        assert len(made) == 1 and made[0].closing
