"""The command pump: thread-safe ingress into a single-threaded sim.

The simulator is single-threaded discrete-event; FleetAPI, the
database, and the campaign engine are only safe to touch from the
thread that advances it.  HTTP worker threads therefore never call the
control plane directly — they :meth:`~CommandPump.submit` a closure
and block on a :class:`threading.Event`; a sim-side pump scheduled as
ordinary kernel events (via ``schedule_many``, in self-rescheduling
batches) drains the queue *between* simulation events and executes the
closures on the sim thread.

Determinism: an idle pump tick touches neither RNG streams nor any
entity state — attaching a gateway to a seeded scenario and never
sending traffic replays byte-identically against the same scenario
without a gateway.  Traffic, by construction, is executed at event
boundaries in arrival order, so its effects interleave with the
simulation exactly as any other scheduled callback would.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.errors import ServerError
from repro.server.services.envelope import Response
from repro.sim.kernel import MS, Simulator

#: Sim-time spacing between pump ticks.
DEFAULT_INTERVAL_US = 5 * MS

#: Ticks scheduled per ``schedule_many`` batch; the last tick of a
#: batch schedules the next batch.
TICK_BATCH = 32


class GatewayTimeout(ServerError):
    """A submitted command was not pumped before the caller's deadline.

    Raised on the *HTTP worker* thread — typically means nothing is
    advancing the simulator (gateway started with ``drive=False`` and
    no test code stepping it).
    """


class _Command:
    """One enqueued request: closure + completion event + result slot."""

    __slots__ = ("fn", "done", "response", "error")

    def __init__(self, fn: Callable[[], Response]) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.response: Optional[Response] = None
        self.error: Optional[BaseException] = None


class CommandPump:
    """Bridges HTTP worker threads onto the simulator thread.

    ``metrics`` (a :class:`~repro.telemetry.MetricsRegistry`) receives
    ``gateway.commands`` (executed count) and ``gateway.queue.depth``
    (a gauge: commands drained by the last tick that drained any, and 0
    once a tick finds the queue empty).
    """

    def __init__(
        self,
        sim: Simulator,
        interval_us: int = DEFAULT_INTERVAL_US,
        metrics=None,
    ) -> None:
        if interval_us <= 0:
            raise ValueError(f"interval_us must be positive (got {interval_us})")
        self.sim = sim
        self.interval_us = interval_us
        self.metrics = metrics
        self._queue: "queue.SimpleQueue[_Command]" = queue.SimpleQueue()
        self._handles: list = []
        self._attached = False
        self.executed = 0
        self._last_drained = 0

    # -- sim side --------------------------------------------------------------

    def attach(self) -> None:
        """Schedule the first batch of pump ticks; idempotent."""
        if self._attached:
            return
        self._attached = True
        self._schedule_batch()

    def detach(self) -> None:
        """Cancel outstanding ticks and stop rescheduling.

        Commands still queued are failed over to their waiters as
        :class:`GatewayTimeout` so no HTTP thread blocks forever.
        """
        if not self._attached:
            return
        self._attached = False
        for handle in self._handles:
            self.sim.cancel(handle)
        self._handles = []
        self._reject_pending("gateway pump detached")

    def _schedule_batch(self) -> None:
        if not self._attached:
            return
        interval = self.interval_us

        def tick(last: bool):
            def _tick() -> None:
                if not self._attached:
                    return
                self.pump()
                if last:
                    self._schedule_batch()
            return _tick

        items = [
            ((k + 1) * interval, tick(last=k == TICK_BATCH - 1))
            for k in range(TICK_BATCH)
        ]
        self._handles = self.sim.schedule_many(items, "gateway:pump")

    def pump(self) -> int:
        """Drain and execute every queued command; returns the count.

        Runs on the simulator thread (called by the scheduled ticks or
        directly by tests).  Executes in FIFO submission order.
        """
        drained = 0
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                break
            drained += 1
            try:
                command.response = command.fn()
            except BaseException as error:  # noqa: BLE001 - relayed to waiter
                command.error = error
            command.done.set()
        if drained:
            self.executed += drained
            if self.metrics is not None:
                self.metrics.inc("gateway.commands", drained)
        if self.metrics is not None and (drained or self._last_drained):
            self.metrics.set_gauge("gateway.queue.depth", drained)
        self._last_drained = drained
        return drained

    def _reject_pending(self, reason: str) -> None:
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                return
            command.error = GatewayTimeout(reason)
            command.done.set()

    # -- HTTP worker side ------------------------------------------------------

    def submit(
        self, fn: Callable[[], Response], timeout_s: float = 30.0
    ) -> Response:
        """Enqueue ``fn`` and block until the sim thread has run it.

        Re-raises whatever ``fn`` raised; raises :class:`GatewayTimeout`
        when no pump tick serviced the command within ``timeout_s``
        wall seconds.
        """
        command = _Command(fn)
        self._queue.put(command)
        if not command.done.wait(timeout_s):
            raise GatewayTimeout(
                f"command not pumped within {timeout_s}s "
                "(is anything advancing the simulator?)"
            )
        if command.error is not None:
            raise command.error
        assert command.response is not None
        return command.response


__all__ = ["CommandPump", "DEFAULT_INTERVAL_US", "GatewayTimeout", "TICK_BATCH"]
