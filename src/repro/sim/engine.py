"""The single-threaded discrete-event loop.

:class:`EventLoop` owns the clock and the :class:`~repro.sim.events.EventQueue`
and repeatedly dispatches the earliest event to a registered handler.  It
knows nothing about jobs or processors; the scheduling semantics live in
:mod:`repro.sim.driver`.

Design notes
------------

* The clock never moves backwards: scheduling an event in the past raises
  immediately rather than silently reordering history.
* Handlers are registered per :class:`~repro.sim.events.EventKind`; an
  unhandled kind is an error, because a dropped event in a scheduling
  simulation silently corrupts every downstream metric.
* ``max_events``/``max_time`` guards turn runaway simulations (e.g. a
  scheduler that re-posts timers forever) into loud failures.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Event, EventKind, EventQueue

Handler = Callable[[Event], None]


class SimulationError(RuntimeError):
    """Raised when the simulation violates one of its own invariants."""


class EventLoop:
    """Deterministic discrete-event executor.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (seconds).
    max_events:
        Hard cap on dispatched (and :meth:`charge`-d) events; exceeded
        means a logic error (e.g. a timer storm) and raises
        :class:`SimulationError`.
    """

    def __init__(self, start_time: float = 0.0, max_events: int = 50_000_000) -> None:
        self.queue = EventQueue()
        self._now = float(start_time)
        self._handlers: dict[EventKind, Handler] = {}
        self._dispatched = 0
        self._max_events = int(max_events)
        self._stopped = False

    # ------------------------------------------------------------------
    # clock & bookkeeping
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far, :meth:`charge`-d ones included."""
        return self._dispatched

    def charge(self, count: int) -> None:
        """Count *count* events as dispatched, under the ``max_events`` budget.

        :meth:`step` charges each event it pops.  A driver charges the
        events it proved to be no-ops and therefore never scheduled
        (skipped timer ticks, see :mod:`repro.sim.driver`), so
        :attr:`dispatched` and the budget see them as if each had been
        popped and handled.
        """
        self._dispatched += count
        if self._dispatched > self._max_events:
            raise SimulationError(
                f"event budget exhausted ({self._max_events} events); "
                "likely a timer storm or a livelocked scheduler"
            )

    # ------------------------------------------------------------------
    # registration & scheduling
    # ------------------------------------------------------------------
    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register *handler* for events of *kind* (one handler per kind)."""
        self._handlers[kind] = handler

    def at(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Schedule an event at absolute time *time*."""
        if time < self._now:
            raise SimulationError(
                f"attempt to schedule event at t={time} before now={self._now}"
            )
        return self.queue.schedule(time, kind, payload, epoch)

    def after(
        self,
        delay: float,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Schedule an event *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, kind, payload, epoch)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (lazy; safe to call twice)."""
        self.queue.cancel(event)

    def stop(self) -> None:
        """Request the loop to exit after the current event.

        Calling :meth:`stop` while idle (before or between :meth:`run`
        calls) leaves a *pending* stop: the next :meth:`run` returns
        immediately without dispatching anything.  The stop is consumed
        when a :meth:`run` call honours it, so a subsequent :meth:`run`
        resumes normally.
        """
        self._stopped = True

    @property
    def stop_pending(self) -> bool:
        """Whether a :meth:`stop` request has not yet been honoured."""
        return self._stopped

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Event | None:
        """Dispatch exactly one event; return it, or ``None`` if idle."""
        if not self.queue:
            return None
        event = self.queue.pop()
        if event.time < self._now:
            raise SimulationError(
                f"event calendar yielded t={event.time} < now={self._now}"
            )
        self._now = event.time
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise SimulationError(f"no handler registered for {event.kind!r}")
        self.charge(1)
        handler(event)
        return event

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the calendar empties.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after this time
            (the clock is left at the last dispatched event).

        A pending :meth:`stop` (issued before this call) is honoured:
        the loop dispatches nothing and the stop is consumed.  Resetting
        the flag here instead would silently discard stops issued
        between runs -- see :meth:`stop`.
        """
        while self.queue and not self._stopped:
            next_time = self.queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            self.step()
        # consume the stop that ended (or pre-empted) this run so the
        # next run() starts fresh
        self._stopped = False
