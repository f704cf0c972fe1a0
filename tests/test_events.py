"""The driver's event calendar: ordering, posting guards, lazy cancellation."""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.sim.driver import Event, EventKind, SchedulingSimulation, SimulationError
from tests.conftest import RecordingScheduler


def calendar() -> SchedulingSimulation:
    """A driver that has not run: its clock reads 0 and its calendar is empty."""
    return SchedulingSimulation(Cluster(4), RecordingScheduler())


def dispatch_order(sim: SchedulingSimulation) -> list[Event]:
    """Every live event in the order the loop would dispatch it, read
    through the head lookup (each one is cancelled once seen)."""
    order = []
    while (event := sim._head()) is not None:
        order.append(event)
        event.cancelled = True
    return order


def test_pop_orders_by_time():
    sim = calendar()
    for t in (5.0, 1.0, 9.0):
        sim._post(t, EventKind.JOB_ARRIVAL, t)
    assert [e.payload for e in dispatch_order(sim)] == [1.0, 5.0, 9.0]


def test_same_time_orders_by_kind():
    """Finishes dispatch before arrivals before ticks at equal times."""
    sim = calendar()
    sim._post(1.0, EventKind.TIMER, "timer")
    sim._post(1.0, EventKind.JOB_ARRIVAL, "arrival")
    sim._post(1.0, EventKind.JOB_FINISH, "finish")
    assert [e.payload for e in dispatch_order(sim)] == ["finish", "arrival", "timer"]


def test_kill_events_dispatch_after_finishes():
    """A finish and a kill at the same instant: the finish wins, so a
    job completing exactly at its speculation deadline is not killed."""
    sim = calendar()
    sim._post(5.0, EventKind.JOB_KILL, "kill")
    sim._post(5.0, EventKind.TIMER, "timer")
    sim._post(5.0, EventKind.JOB_FINISH, "finish")
    assert [e.payload for e in dispatch_order(sim)] == ["finish", "timer", "kill"]


def test_same_time_same_kind_is_fifo():
    sim = calendar()
    for i in range(5):
        sim._post(1.0, EventKind.JOB_FINISH, i)
    assert [e.payload for e in dispatch_order(sim)] == [0, 1, 2, 3, 4]


def test_interleaved_push_pop_stays_ordered():
    sim = calendar()
    sim._post(10.0, EventKind.JOB_ARRIVAL, "c")
    sim._post(1.0, EventKind.JOB_ARRIVAL, "a")
    first = sim._head()
    assert first.payload == "a"
    first.cancelled = True
    sim._post(5.0, EventKind.JOB_ARRIVAL, "b")
    assert [e.payload for e in dispatch_order(sim)] == ["b", "c"]


def test_schedule_returns_the_queued_event():
    sim = calendar()
    event = sim._post(1.0, EventKind.JOB_FINISH, "p", 2)
    assert (event.time, event.payload, event.epoch, event.cancelled) == (1.0, "p", 2, False)
    assert sim._head() is event


def test_event_carries_epoch():
    """The event keeps the job's epoch for the handlers' stale-event guard."""
    sim = calendar()
    event = sim._post(1.0, EventKind.JOB_FINISH, "j", epoch=3)
    assert event.epoch == 3
    assert not event.cancelled


def test_nan_time_rejected():
    sim = calendar()
    with pytest.raises(SimulationError, match="t=nan"):
        sim._post(float("nan"), EventKind.TIMER)
    assert sim._calendar == []


def test_cancelled_event_is_skipped():
    sim = calendar()
    first = sim._post(1.0, EventKind.JOB_ARRIVAL, "x")
    sim._post(2.0, EventKind.JOB_ARRIVAL, "y")
    first.cancelled = True  # cancelling is setting the flag, nothing more
    assert [e.payload for e in dispatch_order(sim)] == ["y"]


def test_peek_time_skips_dead_entries():
    sim = calendar()
    dead = sim._post(1.0, EventKind.TIMER)
    sim._post(5.0, EventKind.TIMER)
    dead.cancelled = True
    assert sim._head().time == 5.0
    assert len(sim._calendar) == 1  # the dead entry was dropped on the way


def test_peek_returns_the_next_live_event_in_place():
    sim = calendar()
    assert sim._head() is None
    first = sim._post(1.0, EventKind.TIMER)
    second = sim._post(1.0, EventKind.JOB_FINISH)  # the earlier kind wins the tie
    assert sim._head() is second
    assert sim._head() is second  # looking does not remove it
    second.cancelled = True
    assert sim._head() is first


def test_cancel_all_leaves_empty_queue():
    sim = calendar()
    events = [sim._post(float(i), EventKind.TIMER) for i in range(3)]
    for event in events:
        event.cancelled = True
    assert sim._head() is None
    assert sim._calendar == []
