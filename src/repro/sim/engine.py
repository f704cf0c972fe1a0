"""The single-threaded discrete-event loop.

:class:`EventLoop` owns the clock and the :class:`~repro.sim.events.EventQueue`
and repeatedly dispatches the earliest event to a registered handler.  It
knows nothing about jobs or processors; the scheduling semantics live in
:mod:`repro.sim.driver`.

Design notes
------------

* The clock never moves backwards: scheduling an event in the past raises
  immediately rather than silently reordering history, and
  :meth:`EventLoop.run` raises if the calendar ever yields one.
* Handlers are registered per :class:`~repro.sim.events.EventKind`; an
  unhandled kind is an error, because a dropped event in a scheduling
  simulation silently corrupts every downstream metric.
* The ``max_events`` budget turns runaway simulations (e.g. a
  scheduler that re-posts timers forever) into loud failures.
* :meth:`EventLoop.run` is the one dispatch path: it pops, checks and
  dispatches each event inline, and the clock is the plain attribute
  :attr:`EventLoop.now`, so an event costs no call but its handler's.
"""

from __future__ import annotations

from heapq import heappop
from math import inf
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
        #: current simulation time in seconds: the time of the event
        #: being dispatched, or of the last one (a plain attribute, so
        #: reading the clock costs no call)
        self.now = float(start_time)
        #: events dispatched so far, :meth:`charge`-d ones included
        self.dispatched = 0
        self._handlers: dict[EventKind, Handler] = {}
        self._max_events = int(max_events)
        self._stopped = False

    def charge(self, count: int) -> None:
        """Count *count* events as dispatched, under the ``max_events`` budget.

        Only this method raises the budget error: :meth:`run` counts
        each event it dispatches inline and calls ``charge(0)`` once the
        count passes the budget.  A driver charges the events it proved
        to be no-ops and therefore never scheduled (skipped timer ticks,
        see :mod:`repro.sim.driver`), so :attr:`dispatched` and the
        budget see them as if each had been popped and handled.
        """
        self.dispatched += count
        if self.dispatched > self._max_events:
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
        """Schedule an event at absolute time *time* (not before
        :attr:`now`; the calendar refuses NaN)."""
        if time < self.now:
            raise SimulationError(
                f"attempt to schedule event at t={time} before now={self.now}"
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
        return self.at(self.now + delay, kind, payload, epoch)

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

        This is the one dispatch path: each event is popped from the
        calendar's ``_heap`` (with :meth:`~repro.sim.events.EventQueue.pop`'s
        bookkeeping), checked and handed to its handler inline, so no
        Python call but the handler's is made per event.
        """
        queue = self.queue
        heap = queue._heap
        handlers = self._handlers
        max_events = self._max_events
        horizon = inf if until is None else until
        while not self._stopped:
            while heap and heap[0][3].cancelled:
                heappop(heap)
            if not heap or heap[0][0] > horizon:
                break
            time, _, _, event = heappop(heap)
            event.fired = True
            queue._live -= 1
            if time < self.now:
                raise SimulationError(f"event calendar yielded t={time} < now={self.now}")
            self.now = time
            handler = handlers.get(event.kind)
            if handler is None:
                raise SimulationError(f"no handler registered for {event.kind!r}")
            self.dispatched += 1
            if self.dispatched > max_events:
                self.charge(0)  # raises the budget error
            handler(event)
        # consume the stop that ended (or pre-empted) this run so the
        # next run() starts fresh
        self._stopped = False
