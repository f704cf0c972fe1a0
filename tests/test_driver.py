"""Simulation driver: mechanism-level behaviour.

Uses a scripted scheduler so each driver feature is exercised in
isolation from any real policy.
"""

from __future__ import annotations

import pytest

from repro.cluster.machine import AllocationError, Cluster
from repro.core.overhead import FixedOverheadModel
from repro.experiments.parallel import outcome_fingerprint
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import known_schemes, scheduler_from_config
from repro.sim.driver import SchedulingSimulation, SimulationError
from repro.workload.job import JobState, fresh_copies
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job


class GreedyScheduler(Scheduler):
    """Start anything that fits, FIFO -- minimal valid policy."""

    name = "greedy"

    def on_arrival(self, job):
        self._go()

    def on_finish(self, job):
        self._go()

    def _go(self):
        for j in self.driver.queued_jobs():
            if self.driver.can_start(j):
                self.driver.start_job(j)


class SuspendAtTimer(GreedyScheduler):
    """Greedy + suspends every running job at the first timer tick."""

    name = "suspender"
    timer_interval = 50.0

    def __init__(self):
        super().__init__()
        self.fired = False

    def on_timer(self):
        if not self.fired:
            self.fired = True
            for j in list(self.driver.running_jobs()):
                self.driver.suspend_job(j)
        self._go()


def drive(jobs, scheduler, n_procs=4, overhead_model=None):
    sim = SchedulingSimulation(Cluster(n_procs), scheduler, overhead_model)
    return sim, sim.run(jobs)


# ----------------------------------------------------------------------
# basic flow
# ----------------------------------------------------------------------
def test_single_job_runs_to_completion():
    job = make_job(submit=5.0, run=100.0, procs=2)
    _, result = drive([job], GreedyScheduler())
    assert job.state is JobState.FINISHED
    assert job.first_start_time == 5.0
    assert job.finish_time == 105.0
    assert result.makespan == 105.0


def test_jobs_queue_when_machine_full():
    a = make_job(job_id=0, submit=0.0, run=100.0, procs=4)
    b = make_job(job_id=1, submit=10.0, run=50.0, procs=4)
    _, result = drive([a, b], GreedyScheduler())
    assert b.first_start_time == 100.0
    assert b.finish_time == 150.0


def test_empty_workload_rejected():
    with pytest.raises(ValueError, match="empty"):
        drive([], GreedyScheduler())


def test_non_fresh_jobs_rejected():
    job = make_job()
    job.mark_submitted(0.0)
    with pytest.raises(ValueError, match="fresh"):
        drive([job], GreedyScheduler())


def test_result_counts_and_scheduler_name():
    jobs = [make_job(job_id=i, submit=float(i), run=10.0) for i in range(5)]
    _, result = drive(jobs, GreedyScheduler())
    assert len(result.jobs) == 5
    assert result.scheduler == "greedy"
    assert result.total_suspensions == 0


def test_cluster_must_start_empty():
    cluster = Cluster(4)
    cluster.allocate(1, owner=99)
    with pytest.raises(ValueError, match="empty"):
        SchedulingSimulation(cluster, GreedyScheduler())


# ----------------------------------------------------------------------
# start_job guards
# ----------------------------------------------------------------------
def test_start_job_requires_queued():
    class BadScheduler(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.start_job(job)
            self.driver.start_job(job)  # second start must blow up

    with pytest.raises(SimulationError, match="not queued"):
        drive([make_job()], BadScheduler())


def test_suspend_job_requires_running():
    class BadScheduler(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.suspend_job(job)

    with pytest.raises(SimulationError, match="not running"):
        drive([make_job()], BadScheduler())


def test_start_on_wrong_number_of_processors_is_refused():
    class Bad(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.start_job(job, procs=0b1)  # one processor for a two-wide job

    with pytest.raises(SimulationError, match="given 1 processors, requests 2"):
        drive([make_job(procs=2)], Bad())


def test_resume_on_another_processor_set_is_refused():
    class Bad(GreedyScheduler):
        timer_interval = 10.0

        def on_timer(self):
            job = self.driver.running_jobs()[0]
            self.driver.suspend_job(job)  # suspended on processors 0 and 1
            self.driver.start_job(job, procs=0b1100)

    with pytest.raises(SimulationError, match="original processors"):
        drive([make_job(procs=2, run=100.0)], Bad())


def test_release_checks_the_job_record():
    """The driver releases ``job.allocated_mask`` and the cluster takes
    back only an owner's whole holding, so a job record that drifted
    from the cluster's (here: one processor short) fails at the release
    instead of leaving a processor held by nobody's record."""

    class StaleRecord(GreedyScheduler):
        timer_interval = 10.0

        def on_timer(self):
            job = self.driver.running_jobs()[0]
            job.allocated_mask &= job.allocated_mask - 1  # drop the lowest bit
            self.driver.suspend_job(job)

    with pytest.raises(AllocationError, match="releases 1 of the 2"):
        drive([make_job(procs=2, run=100.0)], StaleRecord())


# ----------------------------------------------------------------------
# suspension mechanics
# ----------------------------------------------------------------------
def test_suspension_pauses_progress():
    # runs [0,50), suspended at 50 (timer), resumes immediately via _go,
    # finishes having accumulated exactly 100s of useful work.
    job = make_job(submit=0.0, run=100.0, procs=4)
    _, result = drive([job], SuspendAtTimer())
    assert job.suspension_count == 1
    assert job.finish_time == pytest.approx(100.0)  # resumed same instant
    assert result.total_suspensions == 1


def test_suspension_releases_processors_for_others():
    class SuspendFirstForSecond(GreedyScheduler):
        timer_interval = 10.0

        def on_timer(self):
            running = self.driver.running_jobs()
            queued = [j for j in self.driver.queued_jobs() if not j.was_suspended]
            if running and queued:
                self.driver.suspend_job(running[0])
                self.driver.start_job(queued[0])
            self._go()  # resume anything whose processors are now free

    a = make_job(job_id=0, submit=0.0, run=100.0, procs=4)
    b = make_job(job_id=1, submit=5.0, run=20.0, procs=4)
    _, _ = drive([a, b], SuspendFirstForSecond())
    assert b.first_start_time == pytest.approx(10.0)
    assert b.finish_time == pytest.approx(30.0)
    assert a.suspension_count >= 1
    assert a.state is JobState.FINISHED


def test_resume_reacquires_original_processors():
    job = make_job(submit=0.0, run=100.0, procs=3)
    sched = SuspendAtTimer()
    sim, _ = drive([job], sched, n_procs=4)
    # after completion, check the job ran both periods on the same procs:
    # suspended_mask recorded at suspend must equal the final allocation
    assert job.suspension_count == 1
    # job finished => allocated cleared; nothing double-booked en route
    sim.cluster.check_invariants()


def test_stale_finish_event_ignored():
    """A job suspended before its finish event fires must not finish early."""
    job = make_job(submit=0.0, run=60.0, procs=4)
    # timer at 50 suspends it; its original finish event (t=60) is stale.
    _, result = drive([job], SuspendAtTimer())
    assert job.finish_time == pytest.approx(60.0)
    assert job.run_time == 60.0
    assert job.suspension_count == 1


# ----------------------------------------------------------------------
# overhead accounting
# ----------------------------------------------------------------------
def test_overhead_charged_on_suspension():
    job = make_job(submit=0.0, run=100.0, procs=4)
    _, result = drive([job], SuspendAtTimer(), overhead_model=FixedOverheadModel(30.0))
    # ran [0,50), suspended, resumed at 50 with 30s overhead then 50s work
    assert job.finish_time == pytest.approx(130.0)
    assert job.total_overhead == pytest.approx(30.0)
    assert job.pending_overhead == 0.0


def test_no_overhead_without_model():
    job = make_job(submit=0.0, run=100.0, procs=4)
    _, _ = drive([job], SuspendAtTimer())
    assert job.total_overhead == 0.0


def test_overhead_paid_before_useful_progress():
    """Re-suspension during the overhead window makes zero progress."""

    class DoubleSuspend(GreedyScheduler):
        timer_interval = 50.0

        def __init__(self):
            super().__init__()
            self.count = 0

        def on_timer(self):
            # suspend at t=50 and again at t=100 (during overhead payback)
            if self.count < 2:
                self.count += 1
                for j in list(self.driver.running_jobs()):
                    self.driver.suspend_job(j)
            self._go()

    job = make_job(submit=0.0, run=100.0, procs=4)
    _, _ = drive([job], DoubleSuspend(), overhead_model=FixedOverheadModel(60.0))
    # t=50: suspended with 50s useful left, +60s overhead. resumes t=50.
    # t=100: ran 50s, all of it overhead (10s overhead left, 50 useful).
    # second suspension adds another 60s. finish = 100 + 10 + 60 + 50 = 220.
    assert job.finish_time == pytest.approx(220.0)
    assert job.total_overhead == pytest.approx(120.0)
    assert job.turnaround() == pytest.approx(job.run_time + job.total_overhead)


# ----------------------------------------------------------------------
# utilisation accounting
# ----------------------------------------------------------------------
def test_busy_integral_matches_job_areas():
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=2),
        make_job(job_id=1, submit=10.0, run=50.0, procs=1),
        make_job(job_id=2, submit=20.0, run=30.0, procs=4),
    ]
    _, result = drive(jobs, GreedyScheduler(), n_procs=4)
    area = sum(j.procs * j.run_time for j in jobs)
    assert result.busy_proc_seconds == pytest.approx(area)


def test_busy_integral_includes_overhead_time():
    job = make_job(submit=0.0, run=100.0, procs=4)
    _, result = drive([job], SuspendAtTimer(), overhead_model=FixedOverheadModel(30.0))
    assert result.busy_proc_seconds == pytest.approx(4 * 130.0)


def test_utilization_in_unit_interval():
    jobs = [make_job(job_id=i, submit=float(5 * i), run=20.0, procs=2) for i in range(10)]
    _, result = drive(jobs, GreedyScheduler(), n_procs=4)
    assert 0.0 < result.utilization <= 1.0


def test_steady_utilization_burst_at_time_zero():
    """All arrivals at t=0: the arrival window has zero length.

    Regression: the old ``last_arrival <= 0`` test conflated this case
    with "no window recorded" and silently fell back to whole-run
    utilisation.  With the explicit :attr:`arrival_window_closed` flag a
    genuinely zero-length window now reports 0.0 (no busy time can
    accrue in zero seconds), distinct from the fallback.
    """
    jobs = [make_job(job_id=i, submit=0.0, run=50.0, procs=2) for i in range(4)]
    _, result = drive(jobs, GreedyScheduler(), n_procs=4)
    assert result.arrival_window_closed
    assert result.last_arrival == 0.0
    assert result.steady_utilization == 0.0
    assert result.utilization > 0.0  # whole-run measure unaffected


def test_steady_utilization_spread_arrivals():
    """With arrivals spread out, the window measure uses exactly the
    busy area accrued up to the last arrival."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=4),
        make_job(job_id=1, submit=50.0, run=10.0, procs=2),
    ]
    _, result = drive(jobs, GreedyScheduler(), n_procs=4)
    assert result.arrival_window_closed
    assert result.last_arrival == 50.0
    # job 0 holds the whole machine for [0, 50): fully utilised window
    assert result.steady_utilization == pytest.approx(1.0)


def test_steady_utilization_unclosed_window_falls_back():
    """A result with no recorded window reports whole-run utilisation."""
    from repro.sim.driver import SimulationResult

    r = SimulationResult(
        scheduler="x",
        n_procs=4,
        jobs=[],
        makespan=100.0,
        busy_proc_seconds=200.0,
        total_suspensions=0,
        arrival_window_closed=False,
    )
    assert r.steady_utilization == r.utilization == pytest.approx(0.5)


# ----------------------------------------------------------------------
# drain enforcement
# ----------------------------------------------------------------------
def test_starving_scheduler_detected():
    class NeverStarts(Scheduler):
        name = "never"

        def on_arrival(self, job):
            pass

        def on_finish(self, job):
            pass

    with pytest.raises(SimulationError, match="never finished"):
        drive([make_job()], NeverStarts())


# ----------------------------------------------------------------------
# timer behaviour
# ----------------------------------------------------------------------
def test_timer_stops_after_drain():
    sched = SuspendAtTimer()
    jobs = [make_job(submit=0.0, run=60.0, procs=1)]
    sim, result = drive(jobs, sched)
    # no unbounded timer storm: events are bounded well below MAX_EVENTS
    assert result.events_dispatched < 50


def test_no_timer_for_nonpreemptive():
    _, result = drive([make_job(run=10.0)], GreedyScheduler())
    assert result.events_dispatched == 2  # arrival + finish only


# ----------------------------------------------------------------------
# speculative-start guards
# ----------------------------------------------------------------------
def test_start_speculative_kills_at_deadline():
    class Speculate(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.start_speculative(job, deadline=self.driver.now + 30.0)

        def on_kill(self, job):
            # after the failed test run, start it for real
            self.driver.start_job(job)

    job = make_job(submit=0.0, run=100.0, procs=2)
    sim = SchedulingSimulation(Cluster(4), Speculate())
    result = sim.run([job])
    assert job.kill_count == 1
    assert job.wasted_time == pytest.approx(30.0)
    assert job.finish_time == pytest.approx(130.0)
    assert result.total_kills == 1


def test_start_speculative_win_cancels_kill():
    class Speculate(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.start_speculative(job, deadline=self.driver.now + 500.0)

    job = make_job(submit=0.0, run=100.0, procs=2)
    sim = SchedulingSimulation(Cluster(4), Speculate())
    result = sim.run([job])
    assert job.kill_count == 0
    assert job.finish_time == pytest.approx(100.0)
    assert result.total_kills == 0


def test_start_speculative_rejects_past_deadline():
    class Bad(GreedyScheduler):
        def on_arrival(self, job):
            self.driver.start_speculative(job, deadline=self.driver.now)

    with pytest.raises(SimulationError, match="deadline"):
        drive([make_job()], Bad())


def test_start_speculative_rejects_checkpointed_job():
    class Bad(GreedyScheduler):
        timer_interval = 50.0

        def on_timer(self):
            for j in list(self.driver.running_jobs()):
                self.driver.suspend_job(j)
            for j in self.driver.queued_jobs():
                self.driver.start_speculative(j, deadline=self.driver.now + 10.0)

    with pytest.raises(SimulationError, match="checkpoint"):
        drive([make_job(run=100.0, procs=4)], Bad())


_REUSE_JOBS = generate_trace("SDSC", n_jobs=120, seed=3)


def _outcome(scheduler: Scheduler) -> str:
    sim = SchedulingSimulation(cluster=Cluster(128), scheduler=scheduler)
    return outcome_fingerprint(sim.run(fresh_copies(_REUSE_JOBS)).jobs)


@pytest.mark.parametrize("scheme", known_schemes())
def test_one_scheduler_drives_two_simulations_in_turn(scheme: str) -> None:
    """Binding happens per run: the kernel's policies reach the second
    run's driver, and run-scoped state starts afresh (gang's protection
    window included), so both runs give a fresh instance's schedule."""
    fresh = _outcome(scheduler_from_config({"scheme": scheme}))
    reused = scheduler_from_config({"scheme": scheme})
    assert _outcome(reused) == fresh
    assert _outcome(reused) == fresh
