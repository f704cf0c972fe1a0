"""Typed simulation events and the event calendar.

Event ordering
--------------

Two events may carry the same timestamp (e.g. a job finishing at the exact
instant another arrives).  The simulation must process them in a fixed,
documented order or results become run-to-run nondeterministic.  The
calendar therefore orders events by the triple ``(time, priority, seq)``:

* ``time`` -- simulation time in seconds (float);
* ``priority`` -- the numeric value of the :class:`EventKind`; lower runs
  first.  Finishes precede arrivals, which precede timers, so processors
  freed at time *t* are visible to the scheduler when the arrival at *t*
  is handled, and a preemption sweep at *t* sees the post-arrival queue;
* ``seq`` -- a monotonically increasing insertion counter that breaks the
  remaining ties in FIFO insertion order.

Cancellation
------------

Suspending a job invalidates its scheduled finish event.  Deleting from
the middle of a binary heap is awkward, so the calendar uses *lazy
cancellation*: :meth:`EventQueue.cancel` marks the entry dead and
:meth:`EventQueue.pop` skips dead entries.  The driver additionally uses
per-job *epochs* (see :mod:`repro.sim.driver`) as a second guard so a
stale finish event can never act on a job that has been suspended and
resumed since the event was scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterator


class EventKind(IntEnum):
    """Kinds of simulation events, in dispatch-priority order.

    The integer value doubles as the tie-breaking priority for events that
    share a timestamp; smaller values dispatch first.
    """

    #: A running job completed its work (or its overhead-inflated work).
    JOB_FINISH = 0
    #: A job entered the system and joined the wait queue.
    JOB_ARRIVAL = 1
    #: Periodic scheduler timer (e.g. the 60 s preemption sweep).
    TIMER = 2
    #: Generic user event; dispatches after the built-in kinds.
    GENERIC = 3
    #: Deadline of a speculative run (kill-and-requeue); dispatches last
    #: so a finish at the same instant wins (the job made it).
    JOB_KILL = 4


@dataclass(order=False)
class Event:
    """A single calendar entry.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    kind:
        The :class:`EventKind` used for dispatch and tie-breaking.
    payload:
        Opaque data for the handler (typically a job object).
    epoch:
        Guard value for lazily invalidated events; interpreted by the
        driver, not by the calendar.
    """

    time: float
    kind: EventKind
    payload: Any = None
    epoch: int = 0
    cancelled: bool = field(default=False, compare=False)
    #: set by the calendar when the event is popped; a fired event is no
    #: longer queued, so cancelling it must not touch the live count
    fired: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event dead; the calendar will silently skip it."""
        self.cancelled = True


class EventQueue:
    """A cancellable priority calendar of :class:`Event` objects.

    The queue is a binary heap keyed on ``(time, kind, seq)``.  All
    operations are O(log n) except :meth:`peek_time`, which is amortised
    O(1) after dead-entry cleanup.

    :meth:`repro.sim.engine.EventLoop.run` pops from ``_heap`` inline and
    repeats :meth:`pop`'s bookkeeping (skip cancelled entries, set
    ``fired``, debit ``_live``); a change to one must change the other.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Create an :class:`Event` at *time*, insert it and return it."""
        # repro-lint: disable=RPR003 -- x != x is the standard NaN test, not an equality test
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        event = Event(time, kind, payload, epoch)
        heapq.heappush(self._heap, (time, int(kind), next(self._counter), event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Lazily cancel *event*.

        Cancelling an event that already fired (was popped) or was already
        cancelled is a no-op: the live count only decrements for entries
        still queued.  Without the ``fired`` guard a late cancel would
        debit ``_live`` for an entry the heap no longer holds, silently
        undercounting the remaining live events and ending
        :meth:`~repro.sim.engine.EventLoop.run` early.
        """
        if event.fired or event.cancelled:
            return
        event.cancel()
        self._live -= 1

    def _drop_dead(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the calendar holds no live events.
        """
        self._drop_dead()
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heapq.heappop(self._heap)[3]
        event.fired = True
        self._live -= 1
        return event

    def peek_time(self) -> float | None:
        """Return the timestamp of the next live event, or ``None``."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def peek(self) -> Event | None:
        """Return the next live event without removing it, or ``None``."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][3]

    def drain(self) -> Iterator[Event]:
        """Yield live events in order until the calendar is empty."""
        while self:
            yield self.pop()
