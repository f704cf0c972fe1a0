"""Conservative backfilling: universal reservations + compression."""

from __future__ import annotations

import pytest

from repro.schedulers.conservative import ConservativeBackfillScheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def test_fig1_scenario():
    """The paper's Fig 1: job 3 must NOT delay job 2, so it waits even
    though processors are free for it right now."""
    jobs = [
        make_job(job_id=10, submit=0.0, run=100.0, procs=4),  # long runner
        make_job(job_id=11, submit=0.0, run=30.0, procs=4),  # short runner
        make_job(job_id=1, submit=1.0, run=50.0, procs=6),  # reserved at 100
        make_job(job_id=2, submit=2.0, run=50.0, procs=6, estimate=50.0),  # at 150
        # job 3 fits the 4 free procs at t=30 but would delay job 2's
        # reservation (it needs 4 procs for 200s spanning t=150):
        make_job(job_id=3, submit=3.0, run=200.0, procs=4),
    ]
    run_sim(jobs, ConservativeBackfillScheduler(), n_procs=8)
    assert jobs[2].first_start_time == pytest.approx(100.0)
    assert jobs[3].first_start_time == pytest.approx(150.0)  # never delayed
    assert jobs[4].first_start_time >= 200.0  # reserved behind job 2


def test_backfills_into_holes_when_harmless():
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=200.0, procs=8),  # reserved at 100
        make_job(job_id=2, submit=2.0, run=50.0, procs=3),  # fits hole before 100
    ]
    run_sim(jobs, ConservativeBackfillScheduler(), n_procs=8)
    assert jobs[2].first_start_time == pytest.approx(2.0)


def test_reservation_never_delayed_by_later_arrivals():
    """Core conservative guarantee: earlier-queued jobs' start times can
    only improve as later jobs arrive."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=8),
        make_job(job_id=1, submit=1.0, run=100.0, procs=8),  # reserved at 100
        *[
            make_job(job_id=2 + i, submit=2.0 + i, run=400.0, procs=4)
            for i in range(5)
        ],
    ]
    run_sim(jobs, ConservativeBackfillScheduler(), n_procs=8)
    assert jobs[1].first_start_time == pytest.approx(100.0)


def test_compression_on_early_termination():
    """When a job ends early, queued reservations move forward."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=40.0, procs=8, estimate=400.0),
        make_job(job_id=1, submit=1.0, run=10.0, procs=8),  # reserved at ~400
    ]
    run_sim(jobs, ConservativeBackfillScheduler(), n_procs=8)
    assert jobs[1].first_start_time == pytest.approx(40.0)


def test_compression_preserves_guarantee_order():
    """Compression releases reservations in guarantee order; a later job
    must not leapfrog an earlier one into the same hole."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=50.0, procs=8, estimate=300.0),
        make_job(job_id=1, submit=1.0, run=60.0, procs=8),  # reservation ~300
        make_job(job_id=2, submit=2.0, run=60.0, procs=8),  # reservation ~600
    ]
    run_sim(jobs, ConservativeBackfillScheduler(), n_procs=8)
    assert jobs[1].first_start_time == pytest.approx(50.0)
    assert jobs[2].first_start_time == pytest.approx(110.0)
    assert jobs[1].first_start_time < jobs[2].first_start_time


def test_guaranteed_start_is_exposed_and_cleared():
    sched = ConservativeBackfillScheduler()
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=8),
        make_job(job_id=1, submit=1.0, run=10.0, procs=8),
    ]
    run_sim(jobs, sched, n_procs=8)
    # after the run everything started; no reservations remain
    assert sched.reservation.guaranteed_start(jobs[1]) is None


def test_drains_mixed_workload(sdsc_trace_small):
    from repro.workload.archive import SDSC

    result = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        ConservativeBackfillScheduler(),
        n_procs=SDSC.n_procs,
    )
    assert all(j.state is JobState.FINISHED for j in result.jobs)
    assert result.total_suspensions == 0


def test_conservative_no_worse_than_fcfs(sdsc_trace_small):
    from repro.metrics.aggregate import overall_stats
    from repro.schedulers.fcfs import FCFSScheduler
    from repro.workload.archive import SDSC

    cons = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        ConservativeBackfillScheduler(),
        n_procs=SDSC.n_procs,
    )
    fcfs = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        FCFSScheduler(),
        n_procs=SDSC.n_procs,
    )
    assert (
        overall_stats(cons.jobs).slowdown.mean
        <= overall_stats(fcfs.jobs).slowdown.mean
    )


def test_conservative_vs_easy_both_valid(ctc_trace_small):
    """Not a dominance claim (neither dominates); both drain and produce
    sane utilisation on the same workload."""
    from repro.workload.archive import CTC

    for sched_cls in (ConservativeBackfillScheduler, EasyBackfillScheduler):
        result = run_sim(
            [j.copy_static() for j in ctc_trace_small],
            sched_cls(),
            n_procs=CTC.n_procs,
        )
        assert 0.0 < result.utilization <= 1.0
