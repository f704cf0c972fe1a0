"""Job lifecycle: transitions, clocks, xfactor, overhead fields."""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.schedulers.base import Scheduler
from repro.sim.driver import SchedulingSimulation, SimulationError
from repro.workload.job import Job, JobState, fresh_copies
from tests.conftest import make_job


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_construction_defaults():
    j = make_job(job_id=3, submit=10.0, run=100.0, procs=4)
    assert j.state is JobState.PENDING
    assert j.remaining_useful == 100.0
    assert j.estimate == 100.0
    assert j.suspension_count == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"job_id": -1},
        {"run": 0.0},
        {"run": -5.0},
        {"procs": 0},
        {"estimate": 0.0},
        {"submit": -1.0},
    ],
)
def test_invalid_fields_rejected(kwargs):
    with pytest.raises(ValueError):
        make_job(**kwargs)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"run": NAN}, "run_time"),
        ({"run": INF}, "run_time"),
        ({"estimate": NAN}, "estimate"),
        ({"estimate": INF}, "estimate"),
        ({"submit": NAN}, "submit time"),
        ({"submit": INF}, "submit time"),
    ],
)
def test_non_finite_times_rejected(kwargs, field):
    """A NaN run time would be classified VL, and a NaN estimate makes
    every xfactor NaN, so every SF comparison silently fails."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_job(**kwargs)


@pytest.mark.parametrize(
    "procs", [NAN, INF, 2.5, 3.0, True, 0, -2], ids=repr
)
def test_width_must_be_an_int_of_at_least_one(procs):
    """A 2.5-processor job would be classified ("VS", "N") and then
    crash the cluster's mask arithmetic mid-run; a NaN width fails
    every comparison."""
    with pytest.raises(ValueError, match="procs must be an int >= 1"):
        make_job(procs=procs)


# ----------------------------------------------------------------------
# lifecycle transitions
# ----------------------------------------------------------------------
def test_normal_lifecycle():
    j = make_job(submit=0.0, run=50.0, procs=2)
    j.mark_submitted(0.0)
    assert j.state is JobState.QUEUED
    j.mark_started(10.0, 0b11)
    assert j.state is JobState.RUNNING
    assert j.first_start_time == 10.0
    j.mark_finished(60.0)
    assert j.state is JobState.FINISHED
    assert j.finish_time == 60.0
    assert j.turnaround() == 60.0


# ----------------------------------------------------------------------
# illegal moves: the ``mark_*`` moves do not check their preconditions,
# so these go through the driver, which refuses an illegal move before
# making it
# ----------------------------------------------------------------------
class Greedy(Scheduler):
    """Start anything that fits, FIFO."""

    name = "greedy"

    def on_arrival(self, job):
        self._go()

    def on_finish(self, job):
        self._go()

    def _go(self):
        for j in self.driver.queued_jobs():
            if self.driver.can_start(j):
                self.driver.start_job(j)


def simulate(jobs, scheduler):
    return SchedulingSimulation(Cluster(4), scheduler).run(jobs)


def test_start_requires_queued():
    """A job that has not arrived yet is pending, and cannot start."""
    later = make_job(job_id=1, submit=10.0)

    class StartEarly(Greedy):
        def on_arrival(self, job):
            self.driver.start_job(later)

    with pytest.raises(SimulationError, match="job 1 is not queued"):
        simulate([make_job(job_id=0), later], StartEarly())
    assert later.state is JobState.PENDING
    assert later.allocated_mask == 0


def test_submit_twice_rejected():
    """A job id listed twice would arrive twice; the run refuses it
    before any job is submitted."""
    j = make_job()
    with pytest.raises(ValueError, match="job 0 is listed twice"):
        simulate([j, j], Greedy())
    assert j.state is JobState.PENDING
    with pytest.raises(ValueError, match="job 0 is listed twice"):
        simulate([make_job(), make_job(submit=5.0)], Greedy())


def test_finish_requires_running():
    """A job suspended before its finish time is queued at that time, so
    it does not finish then; it finishes once it has run again."""
    seen = []

    class SuspendThenWait(Greedy):
        timer_interval = 50.0

        def on_timer(self):
            if self.driver.now == 50.0:
                self.driver.suspend_job(self.driver.running_jobs()[0])
            elif self.driver.now == 100.0:
                seen.append((job.state, job.finish_time))
                self._go()

    job = make_job(run=60.0)
    simulate([job], SuspendThenWait())
    assert seen == [(JobState.QUEUED, None)]
    assert job.finish_time == 110.0


def test_suspend_requires_running():
    """A finished job cannot be suspended."""

    class SuspendFinished(Greedy):
        def on_finish(self, job):
            self.driver.suspend_job(job)

    job = make_job()
    with pytest.raises(SimulationError, match="job 0 is not running"):
        simulate([job], SuspendFinished())
    assert job.state is JobState.FINISHED
    assert job.suspension_count == 0


def test_mark_killed_requires_running():
    """A speculative job suspended before its deadline is queued at the
    deadline, so it is not killed and keeps its progress."""

    class SpeculateThenSuspend(Greedy):
        timer_interval = 20.0

        def on_arrival(self, job):
            self.driver.start_speculative(job, deadline=30.0)

        def on_timer(self):
            if self.driver.now == 20.0:
                self.driver.suspend_job(self.driver.running_jobs()[0])
            elif self.driver.now == 40.0:
                self._go()

    job = make_job(run=100.0)
    result = simulate([job], SpeculateThenSuspend())
    assert (job.kill_count, job.wasted_time, result.total_kills) == (0, 0.0, 0)
    assert job.finish_time == 120.0  # 20 s run, 20 s queued, 80 s run


def test_clock_rejects_time_travel():
    """Job clocks move only at the driver's events, and the driver's
    clock never moves backwards: a job due before it is refused before
    it arrives."""
    sim = SchedulingSimulation(Cluster(4), Greedy())
    sim.run([make_job(job_id=0, submit=10.0, run=5.0)])
    late = make_job(job_id=1, submit=5.0)
    with pytest.raises(SimulationError, match="t=5.0: now is 15.0"):
        sim.run([late])
    assert late.state is JobState.PENDING


def test_suspend_remembers_processors():
    j = make_job(procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b110000)
    j.mark_suspended(10.0, 0.0)
    assert j.state is JobState.QUEUED
    assert j.suspended_mask == 0b110000
    assert j.allocated_mask == 0
    assert j.suspension_count == 1


def test_each_move_books_overhead_and_useful_work():
    """A run period pays pending overhead first, then useful work;
    ``mark_started`` returns the occupancy the run needs to finish."""
    j = make_job(run=100.0, procs=1)
    j.mark_submitted(0.0)
    assert j.mark_started(0.0, 0b1) == 100.0
    j.mark_suspended(30.0, 20.0)  # 30 s useful; 20 s owed by the next run
    assert (j.remaining_useful, j.pending_overhead, j.total_overhead) == (70.0, 20.0, 0.0)
    assert j.mark_started(40.0, 0b1) == 90.0
    assert j.expected_end == 40.0 + 70.0 + 20.0
    j.mark_suspended(50.0, 0.0)  # 10 s, all of it overhead
    assert (j.remaining_useful, j.pending_overhead, j.total_overhead) == (70.0, 10.0, 10.0)
    assert j.mark_started(60.0, 0b1) == 80.0
    j.mark_finished(140.0)
    assert (j.remaining_useful, j.pending_overhead, j.total_overhead) == (0.0, 0.0, 20.0)


def test_epoch_bumps_on_suspend_and_finish():
    j = make_job(procs=1)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b1)
    assert j.epoch == 0
    j.mark_suspended(5.0, 0.0)
    assert j.epoch == 1
    j.mark_started(6.0, 0b1)
    j.mark_finished(100.0)
    assert j.epoch == 2


def test_first_start_time_not_overwritten_on_resume():
    j = make_job(procs=1)
    j.mark_submitted(0.0)
    j.mark_started(5.0, 0b1)
    j.mark_suspended(10.0, 0.0)
    j.mark_started(20.0, 0b1)
    assert j.first_start_time == 5.0


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
def test_wait_clock_accrues_only_while_queued():
    j = make_job(submit=0.0, run=100.0)
    j.mark_submitted(0.0)
    assert j.waited(30.0) == 30.0
    j.mark_started(30.0, 0b1)
    assert j.waited(80.0) == 30.0  # frozen while running
    j.mark_suspended(80.0, 0.0)
    assert j.waited(100.0) == 50.0  # grows again while suspended


def test_run_clock_accrues_only_while_running():
    j = make_job(submit=0.0, run=100.0)
    j.mark_submitted(0.0)
    assert j.accrued(10.0) == 0.0
    j.mark_started(10.0, 0b1)
    assert j.accrued(35.0) == 25.0
    j.mark_suspended(40.0, 0.0)
    assert j.accrued(90.0) == 30.0


def test_waited_before_any_event_is_zero():
    j = make_job(submit=5.0)
    assert j.waited(100.0) == 0.0  # PENDING time does not count as waiting


# ----------------------------------------------------------------------
# xfactor
# ----------------------------------------------------------------------
def test_xfactor_starts_at_one():
    j = make_job(submit=0.0, run=100.0)
    j.mark_submitted(0.0)
    assert j.xfactor(0.0) == 1.0


def test_xfactor_grows_while_waiting():
    j = make_job(submit=0.0, run=100.0, estimate=100.0)
    j.mark_submitted(0.0)
    assert j.xfactor(100.0) == pytest.approx(2.0)
    assert j.xfactor(300.0) == pytest.approx(4.0)


def test_xfactor_fast_for_short_slow_for_long():
    """The bias the paper relies on: same wait, shorter job => higher xf."""
    short = make_job(job_id=1, run=60.0)
    long_ = make_job(job_id=2, run=3600.0)
    for j in (short, long_):
        j.mark_submitted(0.0)
    assert short.xfactor(600.0) > long_.xfactor(600.0)


def test_xfactor_frozen_while_running():
    j = make_job(submit=0.0, run=100.0)
    j.mark_submitted(0.0)
    j.mark_started(50.0, 0b1)
    assert j.xfactor(90.0) == pytest.approx(1.5)


def test_instantaneous_xfactor_infinite_before_running():
    j = make_job(run=100.0)
    j.mark_submitted(0.0)
    assert j.instantaneous_xfactor(10.0) == float("inf")


def test_instantaneous_xfactor_decays_with_service():
    j = make_job(run=1000.0)
    j.mark_submitted(0.0)
    j.mark_started(100.0, 0b1)
    early = j.instantaneous_xfactor(110.0)  # (100+10)/10 = 11
    late = j.instantaneous_xfactor(600.0)  # (100+500)/500 = 1.2
    assert early == pytest.approx(11.0)
    assert late == pytest.approx(1.2)
    assert late < early


# ----------------------------------------------------------------------
# derived helpers
# ----------------------------------------------------------------------
def test_remaining_estimate_uses_estimate_and_overhead():
    j = make_job(run=100.0, estimate=150.0)
    j.mark_submitted(0.0)
    assert j.remaining_estimate() == 150.0
    j.pending_overhead = 30.0
    assert j.remaining_estimate() == 180.0


def test_remaining_estimate_floors_at_one_second():
    j = make_job(run=100.0, estimate=100.0)
    j.remaining_useful = 0.0  # job consumed all useful work
    assert j.remaining_estimate() >= 1.0


def test_useful_done_tracks_remaining():
    j = make_job(run=100.0)
    j.remaining_useful = 40.0
    assert j.useful_done == 60.0


def test_turnaround_requires_finish():
    j = make_job()
    with pytest.raises(ValueError):
        j.turnaround()


def test_copy_static_resets_dynamic_state():
    j = make_job(job_id=5, submit=3.0, run=50.0, procs=2, memory_mb=256.0)
    j.mark_submitted(3.0)
    j.mark_started(10.0, 0b11)
    j.mark_finished(60.0)
    c = j.copy_static()
    assert c.state is JobState.PENDING
    assert c.job_id == 5
    assert c.memory_mb == 256.0
    assert c.remaining_useful == 50.0
    assert c.finish_time is None


def test_fresh_copies_independent():
    jobs = [make_job(job_id=i) for i in range(3)]
    copies = fresh_copies(jobs)
    assert len(copies) == 3
    assert all(a is not b for a, b in zip(jobs, copies, strict=True))


def test_job_identity_semantics():
    a = make_job(job_id=1)
    b = make_job(job_id=1)
    assert a != b  # same fields, distinct entities
    assert len({a, b}) == 2


def test_mark_killed_resets_progress():
    j = make_job(submit=0.0, run=100.0, procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b11)
    j.remaining_useful = 40.0  # progress the kill must discard
    assert j.mark_killed(60.0) == 60.0
    assert j.state is JobState.QUEUED
    assert j.remaining_useful == 100.0  # from scratch
    assert j.kill_count == 1
    assert j.wasted_time == pytest.approx(60.0)
    assert j.suspended_mask == 0  # kills do not pin processors


def test_killed_job_can_restart_anywhere():
    j = make_job(submit=0.0, run=100.0, procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b11)
    j.mark_killed(50.0)
    j.mark_started(60.0, 0b110000)  # different processors: fine
    assert j.state is JobState.RUNNING
