"""Job lifecycle: transitions, clocks, xfactor, overhead fields."""

from __future__ import annotations

import pytest

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


def test_start_requires_queued():
    j = make_job()
    with pytest.raises(ValueError, match="cannot start"):
        j.mark_started(0.0, 0b1)


def test_submit_twice_rejected():
    j = make_job()
    j.mark_submitted(0.0)
    with pytest.raises(ValueError, match="cannot submit"):
        j.mark_submitted(1.0)


def test_finish_requires_running():
    j = make_job()
    j.mark_submitted(0.0)
    with pytest.raises(ValueError, match="cannot finish"):
        j.mark_finished(5.0)


def test_suspend_requires_running():
    j = make_job()
    j.mark_submitted(0.0)
    with pytest.raises(ValueError, match="cannot suspend"):
        j.mark_suspended(5.0)


def test_start_with_wrong_proc_count():
    j = make_job(procs=3)
    j.mark_submitted(0.0)
    with pytest.raises(ValueError, match="3"):
        j.mark_started(1.0, 0b1)


def test_suspend_remembers_processors():
    j = make_job(procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b110000)
    j.mark_suspended(10.0)
    assert j.state is JobState.QUEUED
    assert j.suspended_mask == 0b110000
    assert j.allocated_mask == 0
    assert j.suspension_count == 1


def test_resume_must_use_same_processors():
    j = make_job(procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b110000)
    j.mark_suspended(10.0)
    with pytest.raises(ValueError, match="different processor set"):
        j.mark_started(20.0, 0b11)
    j.mark_started(20.0, 0b110000)
    assert j.state is JobState.RUNNING


def test_epoch_bumps_on_suspend_and_finish():
    j = make_job(procs=1)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b1)
    assert j.epoch == 0
    j.mark_suspended(5.0)
    assert j.epoch == 1
    j.mark_started(6.0, 0b1)
    j.mark_finished(100.0)
    assert j.epoch == 2


def test_first_start_time_not_overwritten_on_resume():
    j = make_job(procs=1)
    j.mark_submitted(0.0)
    j.mark_started(5.0, 0b1)
    j.mark_suspended(10.0)
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
    j.mark_suspended(80.0)
    assert j.waited(100.0) == 50.0  # grows again while suspended


def test_run_clock_accrues_only_while_running():
    j = make_job(submit=0.0, run=100.0)
    j.mark_submitted(0.0)
    assert j.accrued(10.0) == 0.0
    j.mark_started(10.0, 0b1)
    assert j.accrued(35.0) == 25.0
    j.mark_suspended(40.0)
    assert j.accrued(90.0) == 30.0


def test_clock_rejects_time_travel():
    j = make_job(submit=10.0)
    with pytest.raises(ValueError, match="backwards"):
        j.mark_submitted(5.0)


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
    j.last_dispatch_time = 0.0  # normally maintained by the driver
    j.remaining_useful = 40.0  # driver would have accounted 60s of work
    j.mark_killed(60.0)
    assert j.state is JobState.QUEUED
    assert j.remaining_useful == 100.0  # from scratch
    assert j.kill_count == 1
    assert j.wasted_time == pytest.approx(60.0)
    assert j.suspended_mask == 0  # kills do not pin processors


def test_mark_killed_requires_running():
    j = make_job()
    j.mark_submitted(0.0)
    with pytest.raises(ValueError, match="cannot kill"):
        j.mark_killed(5.0)


def test_killed_job_can_restart_anywhere():
    j = make_job(submit=0.0, run=100.0, procs=2)
    j.mark_submitted(0.0)
    j.mark_started(0.0, 0b11)
    j.mark_killed(50.0)
    j.mark_started(60.0, 0b110000)  # different processors: fine
    assert j.state is JobState.RUNNING
