"""TCP transport: the real-use backend over asyncio streams.

Frames are exactly :mod:`repro.service.protocol`'s length-prefixed JSON;
``readexactly`` does the reassembly.  ``tcp://host:port`` with port 0
binds an ephemeral port, reported by ``Listener.address`` once started.
"""

from __future__ import annotations

import asyncio

from . import protocol
from .comm import Comm, CommClosedError, Listener, register_backend

__all__ = ["TCPComm", "TCPListener"]


def _parse_hostport(rest: str) -> tuple[str, int]:
    host, sep, port = rest.rpartition(":")
    if not sep:
        raise ValueError(f"tcp address needs host:port, got {rest!r}")
    return host or "127.0.0.1", int(port)


class TCPComm(Comm):
    """One established TCP stream pair."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False

    def write(self, message: dict) -> None:
        if self._closed:
            raise CommClosedError("tcp comm is closed")
        try:
            self._writer.write(protocol.encode_frame(message))
        except (ConnectionError, RuntimeError) as exc:
            self._closed = True
            raise CommClosedError(f"tcp send failed: {exc}") from exc

    async def drain(self) -> None:
        if self._closed:
            raise CommClosedError("tcp comm is closed")
        try:
            await self._writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._closed = True
            raise CommClosedError(f"tcp send failed: {exc}") from exc

    async def recv(self) -> dict:
        if self._closed:
            raise CommClosedError("tcp comm is closed")
        try:
            header = await self._reader.readexactly(4)
            length = int.from_bytes(header, "big")
            if length > protocol.MAX_FRAME:
                raise protocol.ProtocolError(
                    f"frame length {length} exceeds MAX_FRAME"
                )
            payload = await self._reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._closed = True
            raise CommClosedError(f"tcp peer closed: {exc}") from exc
        return protocol.decode_frame(header + payload)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):  # pragma: no cover - teardown
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class TCPListener(Listener):
    """asyncio ``start_server`` wrapper handing each connection to the
    service handler as a :class:`TCPComm`."""

    def __init__(self, rest: str, handler) -> None:
        self._host, self._port = _parse_hostport(rest)
        self._handler = handler
        self._server: asyncio.AbstractServer | None = None
        self._comms: list[TCPComm] = []

    @property
    def address(self) -> str:
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return f"tcp://{host}:{port}"
        return f"tcp://{self._host}:{self._port}"

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        comm = TCPComm(reader, writer)
        self._comms.append(comm)
        try:
            await self._handler(comm)
        finally:
            self._comms.remove(comm)
            await comm.close()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for comm in list(self._comms):
            await comm.close()


async def _connect(rest: str) -> Comm:
    host, port = _parse_hostport(rest)
    reader, writer = await asyncio.open_connection(host, port)
    return TCPComm(reader, writer)


register_backend("tcp", _connect, TCPListener)
