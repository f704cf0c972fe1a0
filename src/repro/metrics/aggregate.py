"""Aggregation of per-job metrics into the paper's tables and figures.

Everything the paper reports is one of:

* an **average** (slowdown or turnaround) over a job category;
* a **worst case** (max) over a category (Figs 11-18);
* a **count/share** per category (Tables II, III, VII, VIII);
* the same, restricted to well/badly estimated jobs (Figs 19-30).

:func:`per_category_stats` computes all of it: it buckets the jobs once,
then folds slowdown, turnaround and wait in one pass over each bucket.
Callers pick the classifier (16-way or 4-way) and optionally an
estimate-quality filter.  Numbers come back in plain dataclasses so
report rendering and tests stay independent of numpy dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.metrics.slowdown import BOUNDED_SLOWDOWN_THRESHOLD
from repro.workload.categories import (
    classify_four_way,
    classify_sixteen_way,
    estimate_quality,
)
from repro.workload.job import Job, JobState

Classifier = Callable[[Job], tuple[str, str]]


@dataclass(frozen=True)
class MetricSummary:
    """Summary statistics of one metric over one job population."""

    count: int
    mean: float
    worst: float
    total: float

    @staticmethod
    def of(values: list[float]) -> "MetricSummary":
        if not values:
            return MetricSummary(count=0, mean=0.0, worst=0.0, total=0.0)
        total = float(sum(values))
        return MetricSummary(
            count=len(values),
            mean=total / len(values),
            worst=float(max(values)),
            total=total,
        )


@dataclass(frozen=True)
class CategoryStats:
    """Both paper metrics for one category."""

    category: tuple[str, str]
    slowdown: MetricSummary
    turnaround: MetricSummary
    wait: MetricSummary

    @property
    def count(self) -> int:
        return self.slowdown.count


def _collect(
    jobs: Iterable[Job], classifier: Classifier
) -> dict[tuple[str, str], list[Job]]:
    buckets: dict[tuple[str, str], list[Job]] = {}
    for job in jobs:
        buckets.setdefault(classifier(job), []).append(job)
    return buckets


def _fold(category: tuple[str, str], bucket: list[Job]) -> CategoryStats:
    """All three metrics of *bucket* in one pass over its jobs.

    Each job is checked once and its turnaround computed once; the
    values are the exact float expressions of
    :mod:`repro.metrics.slowdown` (``bounded_slowdown``,
    ``turnaround_time``, ``wait_time``), and the lists go to
    :meth:`MetricSummary.of`, whose ``sum()`` fixes the rounding of
    every total.
    """
    slowdowns: list[float] = []
    turnarounds: list[float] = []
    waits: list[float] = []
    finished = JobState.FINISHED
    for job in bucket:
        finish = job.finish_time
        if job.state is not finished or finish is None:
            raise ValueError(f"job {job.job_id} has not finished; metrics undefined")
        turnaround = finish - job.submit_time
        run_time = job.run_time
        slowdowns.append(max(turnaround / max(run_time, BOUNDED_SLOWDOWN_THRESHOLD), 1.0))
        turnarounds.append(turnaround)
        waits.append(turnaround - run_time - job.total_overhead)
    return CategoryStats(
        category=category,
        slowdown=MetricSummary.of(slowdowns),
        turnaround=MetricSummary.of(turnarounds),
        wait=MetricSummary.of(waits),
    )


def per_category_stats(
    jobs: Iterable[Job],
    classifier: Classifier = classify_sixteen_way,
    quality: str | None = None,
) -> dict[tuple[str, str], CategoryStats]:
    """Per-category metric summaries.

    Parameters
    ----------
    jobs:
        Finished jobs (a :class:`SimulationResult`'s ``jobs`` list).
    classifier:
        :func:`classify_sixteen_way` (default) or
        :func:`classify_four_way` -- or any custom bucketing.
    quality:
        ``"well"``/``"badly"`` restricts to that estimation-quality
        group (section V); ``None`` uses every job.
    """
    if quality is not None:
        if quality not in ("well", "badly"):
            raise ValueError(f"quality must be 'well', 'badly' or None, got {quality!r}")
        jobs = [j for j in jobs if estimate_quality(j) == quality]
    return {
        category: _fold(category, bucket)
        for category, bucket in _collect(jobs, classifier).items()
    }


def per_category_worst(
    jobs: Iterable[Job],
    classifier: Classifier = classify_sixteen_way,
) -> dict[tuple[str, str], tuple[float, float]]:
    """(worst slowdown, worst turnaround) per category (Figs 11-18)."""
    stats = per_category_stats(jobs, classifier)
    return {c: (s.slowdown.worst, s.turnaround.worst) for c, s in stats.items()}


def overall_stats(jobs: Iterable[Job]) -> CategoryStats:
    """Whole-trace summary (the paper's 'overall slowdown was 3.58' numbers)."""
    return _fold(("ALL", "ALL"), list(jobs))


def split_by_estimate_quality(
    jobs: Iterable[Job],
) -> tuple[list[Job], list[Job]]:
    """(well estimated, badly estimated) partitions of *jobs* (section V)."""
    well: list[Job] = []
    badly: list[Job] = []
    for job in jobs:
        (well if estimate_quality(job) == "well" else badly).append(job)
    return well, badly


def category_shares(
    jobs: Iterable[Job], classifier: Classifier = classify_sixteen_way
) -> dict[tuple[str, str], float]:
    """Fraction of jobs per category (Tables II/III/VII/VIII)."""
    buckets = _collect(jobs, classifier)
    total = sum(len(b) for b in buckets.values())
    if total == 0:
        return {}
    return {c: len(b) / total for c, b in buckets.items()}
