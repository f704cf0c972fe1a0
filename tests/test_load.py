"""Load scaling (section VI's arrival-time division)."""

from __future__ import annotations

import pytest

from repro.workload.job import JobState
from repro.workload.load import scale_load
from tests.conftest import make_job


def test_submit_times_divided():
    jobs = [make_job(job_id=0, submit=0.0), make_job(job_id=1, submit=110.0)]
    scaled = scale_load(jobs, 1.1)
    assert scaled[0].submit_time == 0.0
    assert scaled[1].submit_time == pytest.approx(100.0)


def test_everything_else_unchanged():
    j = make_job(job_id=3, submit=50.0, run=200.0, procs=4, estimate=400.0, memory_mb=256)
    (s,) = scale_load([j], 2.0)
    assert (s.run_time, s.estimate, s.procs, s.memory_mb) == (200.0, 400.0, 4, 256)
    assert s.job_id == 3


def test_returns_fresh_copies():
    j = make_job(submit=100.0)
    j.mark_submitted(100.0)
    (s,) = scale_load([j], 1.0)
    assert s is not j
    assert s.state is JobState.PENDING


def test_order_preserved():
    jobs = [make_job(job_id=i, submit=10.0 * i) for i in range(5)]
    scaled = scale_load(jobs, 1.5)
    assert [j.job_id for j in scaled] == [0, 1, 2, 3, 4]
    submits = [j.submit_time for j in scaled]
    assert submits == sorted(submits)


def test_load_below_one_stretches():
    jobs = [make_job(submit=100.0)]
    (s,) = scale_load(jobs, 0.5)
    assert s.submit_time == 200.0


def test_identity_at_one():
    jobs = [make_job(submit=123.0)]
    (s,) = scale_load(jobs, 1.0)
    assert s.submit_time == 123.0


def test_rejects_nonpositive_factor():
    # NaN used to pass a `<= 0` test and fail later inside Job
    for factor in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            scale_load([make_job()], factor)


def test_wait_clock_anchored_at_scaled_submit():
    """The copied job's wait clock must start at the new submit time."""
    jobs = [make_job(submit=1000.0, run=100.0)]
    (s,) = scale_load(jobs, 2.0)
    s.mark_submitted(500.0)
    assert s.waited(600.0) == pytest.approx(100.0)
