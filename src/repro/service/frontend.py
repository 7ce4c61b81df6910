"""Asyncio frontend: transports in, :class:`ServiceCore` cycles out.

:class:`ServiceFrontend` binds one or more listeners (any registered
transport scheme), runs a request loop per connection, and drives the
core's cycle loop as a background task.  Everything stateful stays in the
synchronous core — the frontend only maps tickets to futures — so the
deterministic tests can script the core directly while this module adds
nothing but I/O.

Degradation contract: ``status``/``stats``/``cancel`` are answered inline
from live state the moment they are read off a connection — they never
wait on a cycle, so the server keeps answering them under any backlog or
shed storm.  ``submit_job`` is answered at its cycle's group commit,
before the cycle's simulation work: the pump loop runs
:meth:`ServiceCore.run_cycle`, writes every reply it resolved (``ok``,
``timeout``, ``rejected``) onto the comm its request came in on, yields
once so clients on this event loop can read, and only then calls
:meth:`ServiceCore.pump`.  ``Comm.write`` returns at once, so neither
flow control nor a client that stopped reading or left holds the cycle.
Cancellation and drain answer their tickets out of cycle.  The bounded
pump quantum (``ServiceConfig.pump_events``) caps how long the event loop
is held by simulation work between request reads.
"""

from __future__ import annotations

import asyncio
import logging

from .comm import Comm, CommClosedError, Listener, listen
from .core import ServiceCore, Ticket
from .protocol import OPS, ProtocolError, reply

__all__ = ["ServiceFrontend"]

logger = logging.getLogger(__name__)


class ServiceFrontend:
    """Serve a :class:`ServiceCore` over the comm transports.

    Parameters
    ----------
    core:
        The synchronous service core (owns engine, admission, journals).
    cycle_interval:
        Wall seconds the pump loop sleeps between cycles when work is
        outstanding.  0 (default) yields cooperatively every cycle —
        right for inproc tests; TCP deployments set the real cadence.
    idle_poll:
        Wall seconds to wait for new work when fully idle before
        re-checking (a backstop; submissions wake the loop explicitly).
    """

    def __init__(
        self,
        core: ServiceCore,
        *,
        cycle_interval: float = 0.0,
        idle_poll: float = 0.05,
    ) -> None:
        self.core = core
        self._cycle_interval = cycle_interval
        self._idle_poll = idle_poll
        # id(ticket) -> (ticket, future, comm of the request); the future
        # carries the reply, or None once the pump loop wrote it.
        self._parked: dict[int, tuple[Ticket, asyncio.Future, Comm]] = {}
        self._wake = asyncio.Event()
        self._listeners: list[Listener] = []
        self._pump_task: asyncio.Task | None = None
        self._stopping = False
        self.cycles_run = 0

    # ------------------------------------------------------------ lifecycle
    async def start(self, address: str) -> str:
        """Bind *address* and start serving; returns the bound address."""
        listener = listen(address, self._handle_comm)
        await listener.start()
        self._listeners.append(listener)
        if self._pump_task is None:
            self._pump_task = asyncio.ensure_future(self._pump_loop())
        return listener.address

    async def drain_and_stop(self) -> dict:
        """Graceful shutdown: drain the core (reject pending, finish the
        admitted backlog, snapshot, flush journals), then stop listening.
        Returns the final stats body."""
        stats = await self._drain_core()
        await self._stop_listeners()
        return stats

    async def _drain_core(self) -> dict:
        self._stopping = True
        self._wake.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        if self.core.closed:
            return self.core.stats()
        stats = self.core.drain()
        self._flush_resolved()
        return stats

    async def _stop_listeners(self) -> None:
        for listener in self._listeners:
            await listener.stop()
        self._listeners.clear()

    async def stop(self) -> None:
        """Hard stop (no drain): cancel the pump loop, close listeners and
        journals.  Pending clients see their comms close."""
        self._stopping = True
        self._wake.set()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        for ticket, fut, _comm in self._parked.values():
            if not fut.done():
                fut.set_result(
                    reply(ticket.request, "error", error="server stopped")
                )
        self._parked.clear()
        for listener in self._listeners:
            await listener.stop()
        self._listeners.clear()
        self.core.close()

    # ------------------------------------------------------------ pump loop
    def _has_work(self) -> bool:
        return (
            self.core.controller.total_pending > 0
            or self.core.engine.runtime.kernel.pending() > 0
        )

    def _flush_resolved(self) -> None:
        """Complete the future of every parked ticket whose reply landed
        out of cycle (cancel, drain); its handler sends the reply."""
        done = [
            fid for fid, (ticket, _fut, _comm) in self._parked.items()
            if ticket.reply is not None
        ]
        for fid in done:
            ticket, fut, _comm = self._parked.pop(fid)
            if not fut.done():
                fut.set_result(ticket.reply)

    def _hand_off(self, resolved: list[Ticket]) -> None:
        """Write the reply of every ticket a cycle resolved onto its
        request's comm, then release the waiting handler to drain."""
        for ticket in resolved:
            parked = self._parked.pop(id(ticket), None)
            if parked is None or parked[1].done():
                continue  # not parked here, or its handler was cancelled
            _ticket, fut, comm = parked
            try:
                comm.write(ticket.reply)
            except CommClosedError:
                pass  # the client left; its handler ends at the next recv
            fut.set_result(None)

    async def _pump_loop(self) -> None:
        while not self._stopping:
            if self._has_work():
                self._hand_off(self.core.run_cycle())
                # Clients on this event loop read their replies before the
                # simulation work holds the loop.
                await asyncio.sleep(0)
                self.core.pump()
                self.cycles_run += 1
                if self._cycle_interval > 0:
                    await asyncio.sleep(self._cycle_interval)
                else:
                    await asyncio.sleep(0)
            else:
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=self._idle_poll
                    )
                except asyncio.TimeoutError:
                    pass

    # ------------------------------------------------------------- requests
    async def _handle_comm(self, comm: Comm) -> None:
        """Per-connection request loop (req/rep, sequential per comm)."""
        try:
            while True:
                try:
                    request = await comm.recv()
                except CommClosedError:
                    return
                try:
                    response = await self._dispatch(request, comm)
                except ProtocolError as exc:
                    response = reply(request, "error", error=str(exc))
                except Exception as exc:  # never let one request kill the loop
                    logger.exception("request failed: %r", request)
                    response = reply(request, "error", error=repr(exc))
                try:
                    if response is None:  # the pump loop wrote the reply
                        await comm.drain()
                    else:
                        await comm.send(response)
                except CommClosedError:
                    return
        finally:
            await comm.close()

    async def _dispatch(self, request: dict, comm: Comm) -> dict | None:
        op = request.get("op")
        if op == "submit_job":
            result = self.core.submit(request)
            if isinstance(result, dict):
                return result
            future: asyncio.Future = asyncio.get_event_loop().create_future()
            self._parked[id(result)] = (result, future, comm)
            self._wake.set()
            return await future
        if op == "cancel":
            response = self.core.cancel(request)
            # Cancellation resolves the submitter's parked ticket too.
            self._flush_resolved()
            return response
        if op == "status":
            return self.core.status(request)
        if op == "stats":
            return self.core.stats(request)
        if op == "drain":
            # Drain inline, but tear listeners down from a detached task:
            # this handler is one of the tasks listener.stop() cancels and
            # awaits, so stopping inline would self-await.
            stats = await self._drain_core()
            asyncio.ensure_future(self._stop_listeners())
            return stats
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
