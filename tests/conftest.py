"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.machine import Cluster
from repro.schedulers.base import Scheduler
from repro.sim.driver import SchedulingSimulation, SimulationResult
from repro.workload.job import Job


def make_job(
    job_id: int = 0,
    submit: float = 0.0,
    run: float = 100.0,
    procs: int = 1,
    estimate: float | None = None,
    memory_mb: float = 0.0,
) -> Job:
    """Terse job constructor for tests (estimate defaults to accurate)."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        run_time=run,
        estimate=estimate if estimate is not None else run,
        procs=procs,
        memory_mb=memory_mb,
    )


def run_sim(
    jobs: list[Job],
    scheduler,
    n_procs: int = 10,
    overhead_model=None,
) -> SimulationResult:
    """Run a scheduler over jobs on a fresh cluster (jobs used in place)."""
    driver = SchedulingSimulation(
        cluster=Cluster(n_procs), scheduler=scheduler, overhead_model=overhead_model
    )
    return driver.run(jobs)


#: the calendar's contract: at equal times finishes dispatch first, then
#: arrivals, then ticks, then kills
DISPATCH_RANK = {"finish": 0, "arrival": 1, "timer": 2, "kill": 3}


class RecordingScheduler(Scheduler):
    """Logs each hook as ``(now, rank, key)``: ``rank`` is the kind's
    place in :data:`DISPATCH_RANK` and ``key`` the event's place in the
    FIFO order of its kind, so the log of any run must come out sorted.

    It starts every queued job that fits, in queue order; a fresh job
    whose id is a multiple of three runs speculatively, with a deadline
    one to four ticks away.  Every second tick suspends the newest
    running job, which cancels that job's pending finish.
    """

    name = "recording"
    scheme_id = "recording"
    timer_interval = 10.0

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[float, int, int]] = []
        self.suspensions = 0
        self._ticks = 0
        self._posts = itertools.count()
        #: (kind, job id) -> post order of the job's pending finish or kill
        self._pending: dict[tuple[str, int], int] = {}

    def on_arrival(self, job: Job) -> None:
        # the driver posts every arrival before the run, in list order
        self.log.append((self.driver.now, DISPATCH_RANK["arrival"], job.job_id))
        self._fill()

    def on_finish(self, job: Job) -> None:
        key = self._pending["finish", job.job_id]
        self.log.append((self.driver.now, DISPATCH_RANK["finish"], key))
        self._fill()

    def on_kill(self, job: Job) -> None:
        key = self._pending["kill", job.job_id]
        self.log.append((self.driver.now, DISPATCH_RANK["kill"], key))
        self._fill()

    def on_timer(self) -> None:
        self.log.append((self.driver.now, DISPATCH_RANK["timer"], self._ticks))
        self._ticks += 1
        running = self.driver.running_jobs()
        if self._ticks % 2 == 0 and running:
            self.driver.suspend_job(running[-1])
            self.suspensions += 1
        self._fill()

    def _fill(self) -> None:
        driver = self.driver
        for job in driver.queued_jobs():
            if not driver.can_start(job):
                continue
            if job.job_id % 3 == 0 and not job.suspended_mask and not job.kill_count:
                deadline = driver.now + self.timer_interval * (job.job_id % 4 + 1)
                driver.start_speculative(job, deadline)
                self._pending["finish", job.job_id] = next(self._posts)
                self._pending["kill", job.job_id] = next(self._posts)
            else:
                driver.start_job(job)
                self._pending["finish", job.job_id] = next(self._posts)


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster(8)


@pytest.fixture
def ctc_trace_small():
    """A small CTC-shaped trace, cached per test session."""
    from repro.workload.synthetic import generate_trace

    return generate_trace("CTC", n_jobs=400, seed=11)


@pytest.fixture
def sdsc_trace_small():
    from repro.workload.synthetic import generate_trace

    return generate_trace("SDSC", n_jobs=400, seed=11)
