"""The driver's dispatch loop: event order, the clock, the budget."""

from __future__ import annotations

import math

import pytest

import repro.sim.driver as driver_module
from repro.cluster.machine import Cluster
from repro.obs import InMemoryRecorder
from repro.schedulers.base import Scheduler
from repro.sim.driver import EventKind, SchedulingSimulation, SimulationError
from repro.workload.job import fresh_copies
from tests.conftest import RecordingScheduler, make_job


class Greedy(Scheduler):
    """Starts whatever fits, in queue order, and logs its hooks."""

    name = "greedy"

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[float, str, int | None]] = []

    def on_arrival(self, job):
        self.seen.append((self.driver.now, "arrival", job.job_id))
        self._go()

    def on_finish(self, job):
        self.seen.append((self.driver.now, "finish", job.job_id))
        self._go()

    def on_timer(self):
        self.seen.append((self.driver.now, "timer", None))

    def _go(self):
        for job in self.driver.queued_jobs():
            if self.driver.can_start(job):
                self.driver.start_job(job)


class Ticking(Greedy):
    """Greedy with a tick every *interval* seconds."""

    def __init__(self, interval: float, quiet_until: float = -math.inf) -> None:
        super().__init__()
        self.timer_interval = interval
        self._quiet = quiet_until

    def quiet_until(self) -> float:
        return self._quiet


def simulation(scheduler: Scheduler, n_procs: int = 4, recorder=None) -> SchedulingSimulation:
    return SchedulingSimulation(Cluster(n_procs), scheduler, recorder=recorder)


def test_run_dispatches_in_order():
    sched = Greedy()
    sim = simulation(sched)
    jobs = [make_job(0, submit=3.0, run=1.0), make_job(1, submit=1.0), make_job(2, submit=2.0)]
    sim.run(jobs)
    arrivals = [(t, j) for t, kind, j in sched.seen if kind == "arrival"]
    assert arrivals == [(1.0, 1), (2.0, 2), (3.0, 0)]
    times = [t for t, _, _ in sched.seen]
    assert times == sorted(times)
    assert sim.now == 102.0  # the clock rests at the last event


def test_handler_may_schedule_more_events():
    """A handler's start posts the job's finish, which the loop then
    dispatches."""
    sched = Greedy()
    simulation(sched).run([make_job(0, submit=5.0, run=10.0)])
    assert sched.seen == [(5.0, "arrival", 0), (15.0, "finish", 0)]


def test_scheduling_in_past_raises():
    sim = simulation(Greedy())
    sim.run([make_job(0, submit=10.0, run=5.0)])
    assert sim.now == 15.0
    with pytest.raises(SimulationError, match="t=14.0"):
        sim._post(14.0, EventKind.TIMER)
    sim._post(15.0, EventKind.TIMER)  # the clock's own instant is fine


def test_calendar_event_before_now_fails_the_run():
    """With a negative interval the tick after the one at t = 50 would
    fall behind the clock: the run fails where it is posted, and nothing
    is dispatched back in time."""
    sched = Ticking(-50.0)
    sim = simulation(sched)
    with pytest.raises(SimulationError, match="t=0.0: now is 50.0"):
        sim.run([make_job(0, submit=100.0, run=10.0)])
    assert sched.seen == [(50.0, "timer", None)]
    assert sim.now == 50.0


def test_nan_time_rejected_through_the_loop():
    """A NaN tick interval fails the run where the first tick is posted."""
    sim = simulation(Ticking(math.nan))
    with pytest.raises(SimulationError, match="t=nan"):
        sim.run([make_job(0)])
    assert not any(math.isnan(entry[0]) for entry in sim._calendar)


def test_dispatched_counter():
    result = simulation(Greedy()).run([make_job(i, submit=float(i)) for i in range(5)])
    assert result.events_dispatched == 10  # five arrivals, five finishes


def test_charged_events_count_as_dispatched():
    """Ticks an untraced run proves idle are jumped, not dispatched, and
    still counted: the traced run, which keeps every tick, reports the
    same number."""
    jobs = [make_job(0, run=100.0), make_job(1, submit=45.0, run=10.0)]
    untraced = Ticking(10.0, quiet_until=math.inf)
    traced = Ticking(10.0, quiet_until=math.inf)
    quiet = simulation(untraced).run(fresh_copies(jobs))
    loud = simulation(traced, recorder=InMemoryRecorder()).run(fresh_copies(jobs))
    ticks = [t for t, kind, _ in traced.seen if kind == "timer"]
    assert ticks == [10.0 * k for k in range(1, 10)]
    assert [t for t, kind, _ in untraced.seen if kind == "timer"] == []
    # four job events and ten ticks: the one at t = 100 finds no work
    assert quiet.events_dispatched == loud.events_dispatched == 14


def test_max_events_guard_trips(monkeypatch):
    monkeypatch.setattr(driver_module, "MAX_EVENTS", 7)
    sim = simulation(Greedy())
    with pytest.raises(SimulationError, match=r"budget exhausted \(7 events\)"):
        sim.run([make_job(i, submit=float(i)) for i in range(5)])
    assert sim.dispatched == 8


def test_charge_past_budget_raises_like_dispatch(monkeypatch):
    monkeypatch.setattr(driver_module, "MAX_EVENTS", 5)
    dispatching = simulation(Greedy())
    with pytest.raises(SimulationError) as dispatched:
        dispatching.run([make_job(i, submit=float(i)) for i in range(5)])
    # one arrival, then the jump over 99 idle ticks to the finish
    charging = simulation(Ticking(10.0, quiet_until=math.inf))
    with pytest.raises(SimulationError) as charged:
        charging.run([make_job(0, run=1000.0)])
    assert charging.dispatched == 100
    assert str(charged.value) == str(dispatched.value)


def test_cancel_through_loop():
    """A suspension cancels the job's pending finish: the loop never
    dispatches it, and the job finishes once, after its resume.  The
    run is traced, so no tick placement drops the entry first."""
    sched = RecordingScheduler()
    sim = simulation(sched, n_procs=2, recorder=InMemoryRecorder())
    finishes = []
    handle = sim._handle_finish

    def spy(event):
        finishes.append(event)
        handle(event)

    sim._handle_finish = spy  # run() reads its handlers off the instance
    job = make_job(1, run=35.0, procs=2)
    result = sim.run([job])
    assert result.total_suspensions == sched.suspensions == 1
    assert sim._finish_events == {}
    assert [(e.payload, e.cancelled) for e in finishes] == [(job, False)]
    assert job.finish_time == 35.0


def test_simultaneous_kinds_priority_order():
    """Posted arrival, tick, finish at t = 100; dispatched finish,
    arrival, tick."""
    sched = Ticking(100.0)
    simulation(sched).run([make_job(0, run=100.0, procs=4), make_job(1, submit=100.0, run=1.0)])
    at_100 = [(kind, j) for t, kind, j in sched.seen if t == 100.0]
    assert at_100 == [("finish", 0), ("arrival", 1), ("timer", None)]
