"""Metrics: bounded slowdown, aggregation, utilisation cross-checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.aggregate import (
    CategoryStats,
    MetricSummary,
    category_shares,
    overall_stats,
    per_category_stats,
    per_category_worst,
    split_by_estimate_quality,
)
from repro.metrics.slowdown import (
    BOUNDED_SLOWDOWN_THRESHOLD,
    bounded_slowdown,
    turnaround_time,
    wait_time,
    xfactor_final,
)
from repro.metrics.utilization import busy_area_from_jobs, utilization_from_jobs
from repro.workload.categories import (
    classify_four_way,
    classify_sixteen_way,
    estimate_quality,
)
from tests.conftest import make_job


def finished_job(
    job_id=0, submit=0.0, start=0.0, run=100.0, procs=1, estimate=None
):
    j = make_job(job_id=job_id, submit=submit, run=run, procs=procs, estimate=estimate)
    j.mark_submitted(submit)
    j.mark_started(start, (1 << procs) - 1)
    j.mark_finished(start + run)
    return j


# ----------------------------------------------------------------------
# per-job metrics
# ----------------------------------------------------------------------
def test_turnaround_is_finish_minus_submit():
    j = finished_job(submit=10.0, start=50.0, run=100.0)
    assert turnaround_time(j) == pytest.approx(140.0)


def test_wait_time_identity():
    j = finished_job(submit=0.0, start=30.0, run=100.0)
    assert wait_time(j) == pytest.approx(30.0)
    assert wait_time(j) + j.run_time + j.total_overhead == pytest.approx(
        turnaround_time(j)
    )


def test_bounded_slowdown_no_wait_is_one():
    j = finished_job(start=0.0, run=100.0)
    assert bounded_slowdown(j) == 1.0


def test_bounded_slowdown_with_wait():
    j = finished_job(submit=0.0, start=100.0, run=100.0)
    assert bounded_slowdown(j) == pytest.approx(2.0)


def test_bounded_slowdown_threshold_limits_short_jobs():
    """Eq. 1's raison d'etre: a 1-second job waiting 60 s is slowed by
    6.1x (threshold 10), not 61x."""
    j = finished_job(submit=0.0, start=60.0, run=1.0)
    assert bounded_slowdown(j) == pytest.approx(61.0 / 10.0)


def test_bounded_slowdown_never_below_one():
    j = finished_job(start=0.0, run=5.0)  # turnaround 5 < threshold 10
    assert bounded_slowdown(j) == 1.0


def test_bounded_slowdown_custom_threshold():
    j = finished_job(submit=0.0, start=60.0, run=1.0)
    assert bounded_slowdown(j, threshold=1.0) == pytest.approx(61.0)
    with pytest.raises(ValueError):
        bounded_slowdown(j, threshold=0.0)


def test_bounded_slowdown_rejects_nan_threshold():
    """``max(run_time, nan)`` is ``run_time``, so a NaN threshold was
    silently ignored: 20.0 for this job, against 10.0 by default."""
    j = finished_job(submit=0.0, start=95.0, run=5.0)
    assert bounded_slowdown(j) == 10.0
    with pytest.raises(ValueError, match="threshold must be positive"):
        bounded_slowdown(j, threshold=float("nan"))


def test_default_threshold_is_ten_seconds():
    assert BOUNDED_SLOWDOWN_THRESHOLD == 10.0


def test_metrics_require_finished_job():
    j = make_job()
    for fn in (turnaround_time, wait_time, bounded_slowdown, xfactor_final):
        with pytest.raises(ValueError, match="not finished"):
            fn(j)


def test_xfactor_final_unbounded():
    j = finished_job(submit=0.0, start=60.0, run=1.0)
    assert xfactor_final(j) == pytest.approx(61.0)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_metric_summary_of_values():
    s = MetricSummary.of([1.0, 2.0, 3.0])
    assert s.count == 3
    assert s.mean == pytest.approx(2.0)
    assert s.worst == 3.0
    assert s.total == 6.0


def test_metric_summary_empty():
    s = MetricSummary.of([])
    assert s.count == 0
    assert s.mean == 0.0


def test_per_category_stats_buckets():
    jobs = [
        finished_job(job_id=0, run=60.0, procs=1),  # VS Seq
        finished_job(job_id=1, run=60.0, procs=1),  # VS Seq
        finished_job(job_id=2, run=7200.0, procs=16),  # L W
    ]
    stats = per_category_stats(jobs)
    assert stats[("VS", "Seq")].count == 2
    assert stats[("L", "W")].count == 1
    assert set(stats) == {("VS", "Seq"), ("L", "W")}


def test_per_category_with_four_way_classifier():
    jobs = [finished_job(job_id=0, run=60.0, procs=1)]
    stats = per_category_stats(jobs, classifier=classify_four_way)
    assert set(stats) == {("S", "N")}


def test_quality_filter():
    well = finished_job(job_id=0, run=100.0, estimate=150.0)
    badly = finished_job(job_id=1, run=100.0, estimate=500.0)
    stats_w = per_category_stats([well, badly], quality="well")
    stats_b = per_category_stats([well, badly], quality="badly")
    assert sum(s.count for s in stats_w.values()) == 1
    assert sum(s.count for s in stats_b.values()) == 1
    with pytest.raises(ValueError):
        per_category_stats([well], quality="meh")


def test_per_category_worst():
    a = finished_job(job_id=0, submit=0.0, start=0.0, run=100.0)
    b = finished_job(job_id=1, submit=0.0, start=300.0, run=100.0)
    worst = per_category_worst([a, b])
    sd, tat = worst[("VS", "Seq")]
    assert sd == pytest.approx(4.0)
    assert tat == pytest.approx(400.0)


def test_overall_stats_covers_all():
    jobs = [finished_job(job_id=i, run=100.0 * (i + 1)) for i in range(4)]
    o = overall_stats(jobs)
    assert o.count == 4
    assert o.category == ("ALL", "ALL")


@pytest.mark.parametrize("finish_time", [None, 50.0])
def test_fold_rejects_unfinished_job(finish_time):
    """Unfinished: a state other than FINISHED, or no finish time."""
    unfinished = make_job(job_id=1)
    unfinished.finish_time = finish_time
    jobs = [finished_job(job_id=0), unfinished]
    with pytest.raises(ValueError, match="job 1 has not finished"):
        per_category_stats(jobs)
    with pytest.raises(ValueError, match="job 1 has not finished"):
        overall_stats(jobs)


# ----------------------------------------------------------------------
# the one-pass fold equals the per-job metric functions, bit for bit
# ----------------------------------------------------------------------
def reference_stats(category, bucket):
    """One bucket summarised through the per-job functions, metric by metric."""
    return CategoryStats(
        category=category,
        slowdown=MetricSummary.of([bounded_slowdown(j) for j in bucket]),
        turnaround=MetricSummary.of([turnaround_time(j) for j in bucket]),
        wait=MetricSummary.of([wait_time(j) for j in bucket]),
    )


def reference_per_category(jobs, classifier, quality):
    if quality is not None:
        jobs = [j for j in jobs if estimate_quality(j) == quality]
    buckets = {}
    for j in jobs:
        buckets.setdefault(classifier(j), []).append(j)
    return {c: reference_stats(c, b) for c, b in buckets.items()}


@st.composite
def finished_jobs(draw):
    """Finished jobs with arbitrary waits, estimates and overhead.

    Run times straddle eq. 1's 10 s threshold and every Table I bound;
    times are arbitrary floats, so rounding differs job to job.
    """
    times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    jobs = []
    for i in range(draw(st.integers(min_value=0, max_value=40))):
        run = draw(st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
        submit = draw(times)
        start = submit + draw(times)
        overhead = draw(st.one_of(st.just(0.0), times))
        j = make_job(
            job_id=i,
            submit=submit,
            run=run,
            procs=draw(st.integers(min_value=1, max_value=128)),
            estimate=run * draw(st.floats(min_value=0.1, max_value=10.0)),
        )
        j.mark_submitted(submit)
        j.mark_started(start, (1 << j.procs) - 1)
        j.mark_finished(start + run + overhead)
        j.total_overhead = overhead
        jobs.append(j)
    return jobs


@settings(max_examples=200, deadline=None)
@given(
    jobs=finished_jobs(),
    classifier=st.sampled_from([classify_sixteen_way, classify_four_way]),
    quality=st.sampled_from([None, "well", "badly"]),
)
def test_fold_equals_per_job_reference(jobs, classifier, quality):
    got = per_category_stats(jobs, classifier=classifier, quality=quality)
    want = reference_per_category(jobs, classifier, quality)
    assert list(got.items()) == list(want.items())
    assert overall_stats(jobs) == reference_stats(("ALL", "ALL"), jobs)


def test_split_by_estimate_quality():
    well = finished_job(job_id=0, run=100.0, estimate=120.0)
    badly = finished_job(job_id=1, run=100.0, estimate=900.0)
    ws, bs = split_by_estimate_quality([well, badly])
    assert ws == [well]
    assert bs == [badly]


def test_category_shares_sum_to_one():
    jobs = [
        finished_job(job_id=0, run=60.0, procs=1),
        finished_job(job_id=1, run=60.0, procs=1),
        finished_job(job_id=2, run=7200.0, procs=16),
        finished_job(job_id=3, run=60.0, procs=64),
    ]
    shares = category_shares(jobs)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares[("VS", "Seq")] == pytest.approx(0.5)


def test_category_shares_empty():
    assert category_shares([]) == {}


# ----------------------------------------------------------------------
# utilisation
# ----------------------------------------------------------------------
def test_busy_area_counts_overhead():
    j = finished_job(run=100.0, procs=4)
    j.total_overhead = 10.0
    assert busy_area_from_jobs([j]) == pytest.approx(4 * 110.0)


def test_utilization_from_jobs():
    j = finished_job(run=100.0, procs=4)
    assert utilization_from_jobs([j], n_procs=8, makespan=100.0) == pytest.approx(0.5)
    assert utilization_from_jobs([j], n_procs=8, makespan=0.0) == 0.0


def test_driver_integral_equals_job_areas(ctc_trace_small):
    """Cross-validation of the two utilisation paths on a real run."""
    from repro.schedulers.easy import EasyBackfillScheduler
    from repro.workload.archive import CTC
    from tests.conftest import run_sim

    result = run_sim(
        [j.copy_static() for j in ctc_trace_small],
        EasyBackfillScheduler(),
        n_procs=CTC.n_procs,
    )
    assert result.busy_proc_seconds == pytest.approx(
        busy_area_from_jobs(result.jobs), rel=1e-9
    )
