"""One client scenario, either transport.

``connect(transport, host, port, **kwargs)`` returns a
:class:`SketchClient` for ``"sync"``; for ``"async"`` it returns an
:class:`AsyncSketchClient` behind :class:`LoopClient`, a blocking view
that runs every awaitable call on a private event loop.  A test body
then reads the same on both transports, and a test class covers both by
naming its ``transport`` in a one-line subclass.
"""

import asyncio
import inspect

from repro.service import AsyncSketchClient, SketchClient


class LoopClient:
    """Blocking view of an :class:`AsyncSketchClient` on its own loop."""

    def __init__(self, client: AsyncSketchClient, loop) -> None:
        self.client = client
        self.loop = loop

    def __getattr__(self, name):
        value = getattr(self.client, name)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            result = value(*args, **kwargs)
            if inspect.isawaitable(result):
                return self.loop.run_until_complete(result)
            return result

        return call

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.client.close())
        finally:
            self.loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(transport: str, host: str, port: int, **kwargs):
    """``SketchClient.connect`` on ``"sync"``, a :class:`LoopClient` on
    ``"async"``."""
    if transport == "sync":
        return SketchClient.connect(host, port, **kwargs)
    loop = asyncio.new_event_loop()
    try:
        client = loop.run_until_complete(
            AsyncSketchClient.connect(host, port, **kwargs)
        )
    except BaseException:
        loop.close()
        raise
    return LoopClient(client, loop)


def is_closed(client) -> bool:
    """Whether a client's own connection has been closed."""
    if isinstance(client, SketchClient):
        return client._sock.fileno() < 0
    return client._frames.transport.is_closing()


def drop_connection(client) -> None:
    """Close a client's connection under it, as a network fault would."""
    if isinstance(client, SketchClient):
        client._sock.close()
    else:
        client._frames.transport.abort()
