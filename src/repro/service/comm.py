"""Transport abstraction of the service: ``Comm``/``Listener`` pairs.

Modeled on ``distributed.comm``: a :class:`Comm` is one established,
bidirectional, message-oriented channel; a :class:`Listener` accepts
inbound connections and hands each new :class:`Comm` to an async
handler.  Addresses are URIs whose scheme picks the backend::

    inproc://name        in-process queues — deterministic tests
    tcp://host:port      asyncio TCP streams — real use

Both backends move the length-prefixed JSON frames of
:mod:`repro.service.protocol`, so everything above this module is
transport-agnostic.  New backends register with :func:`register_backend`.
"""

from __future__ import annotations

import abc
from typing import Awaitable, Callable

__all__ = [
    "Comm",
    "Listener",
    "CommClosedError",
    "connect",
    "listen",
    "register_backend",
    "parse_address",
]

#: An async callback invoked with each newly accepted server-side Comm.
Handler = Callable[["Comm"], Awaitable[None]]


class CommClosedError(ConnectionError):
    """The peer closed (or the transport dropped) the channel."""


class Comm(abc.ABC):
    """One established message channel.  All methods are coroutine-safe
    for the single-reader/single-writer pattern the service uses."""

    @abc.abstractmethod
    def write(self, message: dict) -> None:
        """Queue one message on the transport and return at once: waits
        neither for buffer space nor for the peer to read.  Raises
        :class:`CommClosedError` when closed."""

    @abc.abstractmethod
    async def drain(self) -> None:
        """Wait until the transport takes more writes (flow control);
        raises :class:`CommClosedError` when the channel dropped."""

    async def send(self, message: dict) -> None:
        """Send one message (:meth:`write`, then :meth:`drain`)."""
        self.write(message)
        await self.drain()

    @abc.abstractmethod
    async def recv(self) -> dict:
        """Receive the next message; raises :class:`CommClosedError` on EOF."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Close the channel (idempotent)."""

    @property
    @abc.abstractmethod
    def closed(self) -> bool: ...


class Listener(abc.ABC):
    """An accepting endpoint bound to one address."""

    @abc.abstractmethod
    async def start(self) -> None:
        """Bind and begin accepting (handler runs per connection)."""

    @abc.abstractmethod
    async def stop(self) -> None:
        """Stop accepting and close every open server-side comm."""

    @property
    @abc.abstractmethod
    def address(self) -> str:
        """The bound address (with the real port once started, for TCP)."""


# ------------------------------------------------------------------ registry
_BACKENDS: dict[str, tuple[Callable, Callable]] = {}


def register_backend(
    scheme: str,
    connector: Callable[[str], Awaitable[Comm]],
    listener_factory: Callable[[str, Handler], Listener],
) -> None:
    """Register a transport: an async ``connect(rest) -> Comm`` and a
    ``Listener`` factory taking ``(rest, handler)``."""
    _BACKENDS[scheme] = (connector, listener_factory)


def parse_address(address: str) -> tuple[str, str]:
    """Split ``scheme://rest``; raises ``ValueError`` on unknown schemes."""
    if "://" not in address:
        raise ValueError(f"address needs a scheme://: {address!r}")
    scheme, rest = address.split("://", 1)
    if scheme not in _BACKENDS:
        raise ValueError(
            f"unknown transport scheme {scheme!r} "
            f"(registered: {sorted(_BACKENDS)})"
        )
    return scheme, rest


async def connect(address: str) -> Comm:
    """Open a client :class:`Comm` to *address*."""
    scheme, rest = parse_address(address)
    connector, _ = _BACKENDS[scheme]
    return await connector(rest)


def listen(address: str, handler: Handler) -> Listener:
    """Build (not yet start) a :class:`Listener` on *address*."""
    scheme, rest = parse_address(address)
    _, factory = _BACKENDS[scheme]
    return factory(rest, handler)
