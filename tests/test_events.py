"""Event calendar: ordering, cancellation, bookkeeping."""

from __future__ import annotations

import pytest

from repro.sim.events import Event, EventKind, EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    q.schedule(5.0, EventKind.GENERIC, "b")
    q.schedule(1.0, EventKind.GENERIC, "a")
    q.schedule(9.0, EventKind.GENERIC, "c")
    assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_same_time_orders_by_kind():
    """Finishes dispatch before arrivals before timers at equal times."""
    q = EventQueue()
    q.schedule(1.0, EventKind.TIMER, "timer")
    q.schedule(1.0, EventKind.JOB_ARRIVAL, "arrival")
    q.schedule(1.0, EventKind.JOB_FINISH, "finish")
    assert [q.pop().payload for _ in range(3)] == ["finish", "arrival", "timer"]


def test_same_time_same_kind_is_fifo():
    q = EventQueue()
    for i in range(5):
        q.schedule(1.0, EventKind.GENERIC, i)
    assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]


def test_len_counts_live_events():
    q = EventQueue()
    events = [q.schedule(float(i), EventKind.GENERIC) for i in range(4)]
    assert len(q) == 4
    q.cancel(events[1])
    assert len(q) == 3
    q.pop()
    assert len(q) == 2


def test_cancelled_event_is_skipped():
    q = EventQueue()
    first = q.schedule(1.0, EventKind.GENERIC, "x")
    q.schedule(2.0, EventKind.GENERIC, "y")
    q.cancel(first)
    assert q.pop().payload == "y"


def test_cancel_is_idempotent():
    q = EventQueue()
    ev = q.schedule(1.0, EventKind.GENERIC)
    q.schedule(2.0, EventKind.GENERIC)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 1


def test_cancel_all_leaves_empty_queue():
    q = EventQueue()
    events = [q.schedule(float(i), EventKind.GENERIC) for i in range(3)]
    for ev in events:
        q.cancel(ev)
    assert not q
    assert q.peek_time() is None


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_peek_time_skips_dead_entries():
    q = EventQueue()
    ev = q.schedule(1.0, EventKind.GENERIC)
    q.schedule(5.0, EventKind.GENERIC)
    q.cancel(ev)
    assert q.peek_time() == 5.0


def test_peek_returns_the_next_live_event_in_place():
    q = EventQueue()
    assert q.peek() is None
    first = q.schedule(1.0, EventKind.TIMER)
    second = q.schedule(1.0, EventKind.JOB_FINISH)  # earlier kind wins the tie
    assert q.peek() is second
    q.cancel(second)
    assert q.peek() is first
    assert q.pop() is first
    assert q.peek() is None


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(float("nan"), EventKind.GENERIC)


def test_drain_yields_in_order():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.schedule(t, EventKind.GENERIC, t)
    assert [e.payload for e in q.drain()] == [1.0, 2.0, 3.0]
    assert not q


def test_bool_reflects_liveness():
    q = EventQueue()
    assert not q
    ev = q.schedule(1.0, EventKind.GENERIC)
    assert q
    q.cancel(ev)
    assert not q


def test_event_carries_epoch():
    ev = Event(time=1.0, kind=EventKind.JOB_FINISH, payload="j", epoch=3)
    assert ev.epoch == 3
    assert not ev.cancelled
    ev.cancel()
    assert ev.cancelled


def test_push_returns_event():
    q = EventQueue()
    ev = Event(time=1.0, kind=EventKind.GENERIC)
    assert q.push(ev) is ev


def test_negative_times_allowed_and_ordered():
    """The calendar itself is time-agnostic; the loop enforces monotonicity."""
    q = EventQueue()
    q.schedule(-1.0, EventKind.GENERIC, "early")
    q.schedule(0.0, EventKind.GENERIC, "late")
    assert q.pop().payload == "early"


def test_interleaved_push_pop_stays_ordered():
    q = EventQueue()
    q.schedule(10.0, EventKind.GENERIC, "c")
    q.schedule(1.0, EventKind.GENERIC, "a")
    assert q.pop().payload == "a"
    q.schedule(5.0, EventKind.GENERIC, "b")
    assert q.pop().payload == "b"
    assert q.pop().payload == "c"


def test_cancel_after_pop_is_noop():
    """Cancelling a fired event must not debit the live count.

    Regression: the old cancel() decremented ``_live`` for any
    not-yet-cancelled event, including ones already popped -- after
    which ``len(q)`` undercounted the queue and ``bool(q)`` could go
    false with live events still queued (ending the event loop early).
    """
    q = EventQueue()
    first = q.schedule(1.0, EventKind.GENERIC, "a")
    q.schedule(2.0, EventKind.GENERIC, "b")
    popped = q.pop()
    assert popped is first and popped.fired
    q.cancel(popped)  # late cancel of a fired event
    assert len(q) == 1
    assert bool(q)
    assert q.pop().payload == "b"


def test_cancel_after_pop_repeatedly_never_goes_negative():
    q = EventQueue()
    events = [q.schedule(float(i), EventKind.GENERIC, i) for i in range(3)]
    fired = [q.pop() for _ in range(2)]
    for ev in fired:
        q.cancel(ev)
        q.cancel(ev)  # idempotent on fired events too
    assert len(q) == 1
    q.cancel(events[2])
    assert len(q) == 0
    assert q.peek_time() is None


def test_drain_marks_events_fired_and_keeps_count():
    q = EventQueue()
    scheduled = [q.schedule(float(i), EventKind.GENERIC, i) for i in range(4)]
    drained = []
    for ev in q.drain():
        drained.append(ev)
        assert ev.fired
        # live count reflects exactly the entries still queued
        assert len(q) == len(scheduled) - len(drained)
    assert drained == scheduled
    # cancelling everything drained is a no-op
    for ev in drained:
        q.cancel(ev)
    assert len(q) == 0 and not q


def test_cancelled_then_popped_elsewhere_keeps_invariant():
    """Mixed cancel/pop interleavings keep ``len`` == live entries."""
    q = EventQueue()
    a = q.schedule(1.0, EventKind.GENERIC, "a")
    b = q.schedule(2.0, EventKind.GENERIC, "b")
    c = q.schedule(3.0, EventKind.GENERIC, "c")
    q.cancel(b)
    assert len(q) == 2
    assert q.pop() is a
    q.cancel(b)  # second cancel of a dead event: no-op
    q.cancel(a)  # cancel of a fired event: no-op
    assert len(q) == 1
    assert q.pop() is c
    assert len(q) == 0


def test_kill_events_dispatch_after_finishes():
    """A finish and a kill at the same instant: the finish wins, so a
    job completing exactly at its speculation deadline is not killed."""
    q = EventQueue()
    q.schedule(5.0, EventKind.JOB_KILL, "kill")
    q.schedule(5.0, EventKind.JOB_FINISH, "finish")
    assert q.pop().payload == "finish"
    assert q.pop().payload == "kill"
