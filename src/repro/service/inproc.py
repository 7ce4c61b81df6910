"""In-process transport: asyncio queues masquerading as a network.

The deterministic test backend.  A connected pair shares two unbounded
``asyncio.Queue`` instances carrying the *encoded frames* of
:mod:`repro.service.protocol` — encoding through the real codec keeps
the wire format exercised even with no socket in sight.  Listeners live
in a process-global registry keyed by name, so ``inproc://foo`` resolves
anywhere in the process (same pattern as distributed's inproc manager).
"""

from __future__ import annotations

import asyncio
import itertools

from . import protocol
from .comm import Comm, CommClosedError, Listener, register_backend

__all__ = ["InprocComm", "InprocListener"]

#: name -> started listener; connect() resolves against this.
_LISTENERS: dict[str, "InprocListener"] = {}

_CLOSE = object()  # in-band EOF marker

_conn_ids = itertools.count(1)


class InprocComm(Comm):
    """One side of a connected in-process pair."""

    def __init__(
        self,
        send_q: asyncio.Queue,
        recv_q: asyncio.Queue,
        label: str,
    ) -> None:
        self._send_q = send_q
        self._recv_q = recv_q
        self._label = label
        self._closed = False
        self._peer_closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<InprocComm {self._label} {state}>"

    def write(self, message: dict) -> None:
        if self._closed or self._peer_closed:
            raise CommClosedError(f"{self._label}: comm is closed")
        self._send_q.put_nowait(protocol.encode_frame(message))

    async def drain(self) -> None:
        # The queues are unbounded, so draining is one cooperative yield:
        # it keeps thousands of concurrent clients interleaving instead of
        # one coroutine monopolizing the loop with put_nowait bursts.
        await asyncio.sleep(0)

    async def recv(self) -> dict:
        if self._closed:
            raise CommClosedError(f"{self._label}: comm is closed")
        frame = await self._recv_q.get()
        if frame is _CLOSE:
            self._peer_closed = True
            raise CommClosedError(f"{self._label}: peer closed")
        return protocol.decode_frame(frame)

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._send_q.put_nowait(_CLOSE)

    @property
    def closed(self) -> bool:
        return self._closed


class InprocListener(Listener):
    """Registry-backed acceptor for ``inproc://name`` addresses."""

    def __init__(self, name: str, handler) -> None:
        if not name:
            raise ValueError("inproc address needs a name: inproc://<name>")
        self._name = name
        self._handler = handler
        self._tasks: set[asyncio.Task] = set()
        self._comms: list[InprocComm] = []
        self._started = False

    @property
    def address(self) -> str:
        return f"inproc://{self._name}"

    async def start(self) -> None:
        existing = _LISTENERS.get(self._name)
        if existing is not None and existing._started:
            raise OSError(f"inproc://{self._name} is already listening")
        self._started = True
        _LISTENERS[self._name] = self

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if _LISTENERS.get(self._name) is self:
            del _LISTENERS[self._name]
        for comm in self._comms:
            await comm.close()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._comms.clear()

    def _accept(self) -> InprocComm:
        """Create a connected pair; run the handler on the server side."""
        cid = next(_conn_ids)
        a_to_b: asyncio.Queue = asyncio.Queue()
        b_to_a: asyncio.Queue = asyncio.Queue()
        client = InprocComm(a_to_b, b_to_a, f"{self._name}#{cid}:client")
        server = InprocComm(b_to_a, a_to_b, f"{self._name}#{cid}:server")
        self._comms.append(server)
        task = asyncio.ensure_future(self._handler(server))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client


async def _connect(name: str) -> Comm:
    listener = _LISTENERS.get(name)
    if listener is None or not listener._started:
        raise ConnectionRefusedError(f"no inproc listener named {name!r}")
    return listener._accept()


register_backend("inproc", _connect, InprocListener)
