"""Run-time state series, replayed from a trace.

:attr:`repro.obs.summary.TraceSummary.states` holds one
:class:`~repro.obs.summary.StateSample` per instant at which a job
arrived, was dispatched or was released.
"""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.obs import InMemoryRecorder, StateSample, summarize_trace
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.speculative import SpeculativeBackfillScheduler
from repro.sim.driver import SchedulingSimulation
from repro.workload.job import fresh_copies
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job


def run_replayed(jobs, scheduler, n_procs, migratable=False):
    recorder = InMemoryRecorder()
    sim = SchedulingSimulation(
        Cluster(n_procs), scheduler, migratable=migratable, recorder=recorder
    )
    result = sim.run(jobs)
    return summarize_trace(recorder.dicts()).states, result


def test_probe_collects_samples():
    jobs = [make_job(job_id=i, submit=600.0 * i, run=500.0, procs=2) for i in range(5)]
    states, _ = run_replayed(jobs, EasyBackfillScheduler(), n_procs=4)
    # each job arrives and starts at one instant and finishes at another
    assert [s.time for s in states] == [
        t for i in range(5) for t in (600.0 * i, 600.0 * i + 500.0)
    ]
    assert [s.running for s in states] == [1, 0] * 5


def test_sample_consistency():
    jobs = generate_trace("SDSC", n_jobs=200, seed=5)
    states, _ = run_replayed(
        fresh_copies(jobs), SelectiveSuspensionScheduler(2.0), n_procs=128
    )
    for s in states:
        assert s.busy_procs + s.free_procs == 128
        assert s.queued == s.queued_fresh + s.queued_suspended
        assert s.running >= 0


def test_suspended_jobs_visible_in_series():
    jobs = [
        make_job(job_id=0, submit=0.0, run=10_000.0, procs=4),
        make_job(job_id=1, submit=10.0, run=60.0, procs=4),
    ]
    states, result = run_replayed(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=1.5, preemption_interval=10.0),
        n_procs=4,
    )
    assert result.total_suspensions >= 1
    assert max(s.queued_suspended for s in states) >= 1


def test_migratable_suspensions_count_as_suspended():
    """A job waits as suspended from its ``suspend`` to its ``resume``,
    also when it may restart on any processors."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=10_000.0, procs=4),
        make_job(job_id=1, submit=10.0, run=60.0, procs=4),
    ]
    states, result = run_replayed(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=1.5, preemption_interval=10.0),
        n_procs=4,
        migratable=True,
    )
    assert result.total_suspensions == 1
    waiting = [s for s in states if s.queued_suspended]
    assert waiting and all(s.queued_fresh == 0 for s in waiting)


def test_killed_speculation_waits_as_fresh():
    """A killed test run re-enters the queue as a fresh job: it holds no
    checkpoint to resume from."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=2000.0, procs=5),
        make_job(job_id=1, submit=1.0, run=2000.0, procs=8),
        # actual 1500 > the 900 s test window: the gamble is lost
        make_job(job_id=2, submit=2.0, run=1500.0, procs=3, estimate=4000.0),
    ]
    states, result = run_replayed(jobs, SpeculativeBackfillScheduler(), n_procs=8)
    # killed at 902 and sent on a second test run, killed again at 1802
    assert result.total_kills == 2
    at_kill = next(s for s in states if s.time == 1802.0)
    assert (at_kill.queued_fresh, at_kill.queued_suspended) == (2, 0)
    assert all(s.queued_suspended == 0 for s in states)


def test_sample_is_frozen():
    s = StateSample(0.0, 1, 2, 3, 4, 4)
    with pytest.raises(AttributeError):
        s.running = 5  # type: ignore[misc]
