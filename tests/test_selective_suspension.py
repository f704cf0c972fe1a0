"""Selective Suspension scheduler: the section IV policy."""

from __future__ import annotations

import pytest

from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.workload.job import JobState
from tests.conftest import make_job, run_sim


def ss(sf=2.0, interval=60.0, width_rule=True):
    return SelectiveSuspensionScheduler(
        suspension_factor=sf, preemption_interval=interval, width_rule=width_rule
    )


# ----------------------------------------------------------------------
# basic preemption behaviour
# ----------------------------------------------------------------------
def test_short_job_preempts_long_job():
    """The motivating example of section I."""
    long_job = make_job(job_id=0, submit=0.0, run=10_000.0, procs=4)
    short_job = make_job(job_id=1, submit=10.0, run=60.0, procs=4)
    result = run_sim([long_job, short_job], ss(sf=2.0, interval=10.0), n_procs=4)
    # short job's xfactor reaches 2 after waiting 60s; long job frozen at 1
    assert short_job.first_start_time < 200.0
    assert long_job.suspension_count == 1
    assert short_job.finish_time < long_job.finish_time
    assert result.total_suspensions == 1


def test_no_preemption_below_sf_threshold():
    """With a huge SF, the short job just waits (degenerates to NS)."""
    long_job = make_job(job_id=0, submit=0.0, run=1_000.0, procs=4)
    short_job = make_job(job_id=1, submit=10.0, run=60.0, procs=4)
    run_sim([long_job, short_job], ss(sf=1000.0, interval=10.0), n_procs=4)
    assert long_job.suspension_count == 0
    assert short_job.first_start_time == pytest.approx(1_000.0)


def test_preemption_only_at_sweep_ticks():
    """Suspensions happen in the periodic routine, not on arrival."""
    long_job = make_job(job_id=0, submit=0.0, run=10_000.0, procs=4)
    short_job = make_job(job_id=1, submit=1.0, run=10.0, procs=4)
    run_sim([long_job, short_job], ss(sf=1.0, interval=500.0), n_procs=4)
    # SF=1 means the arrival would qualify instantly, but the sweep
    # runs at t=500, 1000, ... so the suspension cannot precede t=500.
    assert short_job.first_start_time >= 500.0


def test_victim_resumes_on_same_processors():
    long_job = make_job(job_id=0, submit=0.0, run=500.0, procs=3)
    short_job = make_job(job_id=1, submit=1.0, run=30.0, procs=4)
    run_sim([long_job, short_job], ss(sf=1.5, interval=10.0), n_procs=4)
    assert long_job.state is JobState.FINISHED
    assert long_job.suspension_count >= 1
    # same-processor resume is enforced by Job.mark_started; reaching
    # FINISHED after suspension proves the scheduler satisfied it


def test_suspends_lowest_priority_victims():
    """Victims are taken in ascending xfactor: the freshly started job
    (low frozen priority) goes before one that waited long."""
    early_waiter = make_job(job_id=0, submit=0.0, run=2000.0, procs=2)
    fresh = make_job(job_id=1, submit=1000.0, run=2000.0, procs=2)
    preemptor = make_job(job_id=2, submit=1000.0, run=60.0, procs=2)
    # early_waiter starts at 0 (xf 1); fresh starts at 1000 (xf ~1);
    # both run; preemptor needs 2 procs -> suspends exactly one victim.
    run_sim([early_waiter, fresh, preemptor], ss(sf=1.2, interval=30.0), n_procs=4)
    assert preemptor.finish_time < 2000.0
    assert early_waiter.suspension_count + fresh.suspension_count == 1


def test_widest_candidate_suspended_first():
    """With several eligible victims, the widest is suspended first so
    the fewest jobs are disturbed (pseudocode suspend_jobs_1)."""
    wide = make_job(job_id=0, submit=0.0, run=5000.0, procs=4)
    narrow1 = make_job(job_id=1, submit=0.0, run=5000.0, procs=2)
    narrow2 = make_job(job_id=2, submit=0.0, run=5000.0, procs=2)
    preemptor = make_job(job_id=3, submit=1.0, run=60.0, procs=4)
    run_sim(
        [wide, narrow1, narrow2, preemptor], ss(sf=1.5, interval=10.0), n_procs=8
    )
    assert wide.suspension_count == 1
    assert narrow1.suspension_count == 0
    assert narrow2.suspension_count == 0


# ----------------------------------------------------------------------
# the half-width rule
# ----------------------------------------------------------------------
def test_width_rule_protects_wide_jobs():
    """A sequential job may never suspend a 300-proc job (section IV-B)."""
    wide = make_job(job_id=0, submit=0.0, run=10_000.0, procs=8)
    seq = make_job(job_id=1, submit=1.0, run=30.0, procs=1)
    run_sim([wide, seq], ss(sf=1.1, interval=10.0), n_procs=8)
    assert wide.suspension_count == 0
    assert seq.first_start_time == pytest.approx(10_000.0)


def test_width_rule_allows_half_width():
    wide = make_job(job_id=0, submit=0.0, run=10_000.0, procs=8)
    half = make_job(job_id=1, submit=1.0, run=30.0, procs=4)
    run_sim([wide, half], ss(sf=1.5, interval=10.0), n_procs=8)
    assert wide.suspension_count == 1
    assert half.finish_time < 1000.0


def test_width_rule_disabled_changes_behaviour():
    wide = make_job(job_id=0, submit=0.0, run=10_000.0, procs=8)
    seq = make_job(job_id=1, submit=1.0, run=30.0, procs=1)
    run_sim([wide, seq], ss(sf=1.1, interval=10.0, width_rule=False), n_procs=8)
    assert wide.suspension_count == 1
    assert seq.finish_time < 1000.0


# ----------------------------------------------------------------------
# re-entry (suspend_jobs_2 path)
# ----------------------------------------------------------------------
def test_reentry_waives_width_rule():
    """A suspended wide job may evict a narrow squatter from its
    processors (section IV-C's explicit exception)."""
    wide = make_job(job_id=0, submit=0.0, run=600.0, procs=8)
    preemptor = make_job(job_id=1, submit=1.0, run=400.0, procs=4)
    squatter = make_job(job_id=2, submit=2.0, run=10_000.0, procs=1)
    result = run_sim(
        [wide, preemptor, squatter], ss(sf=1.5, interval=10.0), n_procs=8
    )
    # wide gets suspended by preemptor eventually; squatter (1 proc,
    # long) lands on one of wide's processors; wide must still finish.
    assert wide.state is JobState.FINISHED
    assert result.total_suspensions >= 1


def test_all_blockers_must_qualify_for_reentry():
    """If any running job on the resume set fails the SF test, the
    resume waits (one protected occupant blocks the whole set)."""
    a = make_job(job_id=0, submit=0.0, run=300.0, procs=4)
    b = make_job(job_id=1, submit=1.0, run=100.0, procs=4)
    jobs = [a, b]
    result = run_sim(jobs, ss(sf=2.0, interval=10.0), n_procs=4)
    assert all(j.state is JobState.FINISHED for j in jobs)


# ----------------------------------------------------------------------
# starvation freedom & drain
# ----------------------------------------------------------------------
def test_no_starvation_on_real_mix(ctc_trace_small):
    from repro.workload.archive import CTC

    result = run_sim(
        [j.copy_static() for j in ctc_trace_small], ss(sf=2.0), n_procs=CTC.n_procs
    )
    assert len(result.jobs) == len(ctc_trace_small)


def test_sf1_still_drains(sdsc_trace_small):
    """The thrashing regime must still complete every job."""
    from repro.workload.archive import SDSC

    result = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        ss(sf=1.0),
        n_procs=SDSC.n_procs,
    )
    assert len(result.jobs) == len(sdsc_trace_small)


def test_lower_sf_more_suspensions(sdsc_trace_small):
    from repro.workload.archive import SDSC

    counts = {}
    for sf in (1.5, 2.0, 5.0):
        result = run_sim(
            [j.copy_static() for j in sdsc_trace_small],
            ss(sf=sf),
            n_procs=SDSC.n_procs,
        )
        counts[sf] = result.total_suspensions
    assert counts[1.5] >= counts[2.0] >= counts[5.0]


def test_improves_short_wide_jobs_vs_ns(sdsc_trace_small):
    """The paper's headline claim on the worst category."""
    from repro.metrics.aggregate import per_category_stats
    from repro.schedulers.easy import EasyBackfillScheduler
    from repro.workload.archive import SDSC

    ns = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        EasyBackfillScheduler(),
        n_procs=SDSC.n_procs,
    )
    pre = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        ss(sf=2.0),
        n_procs=SDSC.n_procs,
    )
    ns_stats = per_category_stats(ns.jobs)
    ss_stats = per_category_stats(pre.jobs)
    # very-short wide jobs improve by a large factor
    for cat in (("VS", "W"), ("VS", "VW")):
        if cat in ns_stats and cat in ss_stats and ns_stats[cat].count >= 3:
            assert ss_stats[cat].slowdown.mean < ns_stats[cat].slowdown.mean


def test_scheduler_validates_arguments():
    with pytest.raises(ValueError):
        SelectiveSuspensionScheduler(suspension_factor=0.5)
    with pytest.raises(ValueError):
        SelectiveSuspensionScheduler(preemption_interval=0.0)


def test_name_and_describe():
    sched = ss(sf=1.5)
    assert sched.name == "SS(SF=1.5)"
