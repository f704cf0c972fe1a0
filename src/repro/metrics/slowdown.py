"""Per-job metrics: bounded slowdown, turnaround, wait.

The paper's two headline metrics (section II-B):

* **turnaround time** -- completion minus submission;
* **bounded slowdown** (eq. 1)::

      max( (wait + run_time) / max(run_time, 10), 1 )

  The 10-second threshold keeps sub-second jobs from dominating averages.

Under preemption a job's "wait" is every second it was neither finished
nor making progress: queueing before the first start, suspended periods,
and overhead seconds all count.  That makes ``wait + run_time`` equal to
the turnaround exactly, so we compute bounded slowdown as
``max(turnaround / max(run_time, threshold), 1)`` -- identical to eq. 1
for non-preemptive schedules and its natural generalisation for
preemptive ones.
"""

from __future__ import annotations

from repro.workload.job import Job, JobState

#: Eq. 1's threshold (seconds) limiting the influence of very short jobs.
BOUNDED_SLOWDOWN_THRESHOLD = 10.0


def _require_finished(job: Job) -> None:
    if job.state is not JobState.FINISHED or job.finish_time is None:
        raise ValueError(f"job {job.job_id} has not finished; metrics undefined")


def turnaround_time(job: Job) -> float:
    """Completion minus submission, seconds."""
    _require_finished(job)
    assert job.finish_time is not None
    return job.finish_time - job.submit_time


def wait_time(job: Job) -> float:
    """Total non-running time: queueing + suspended periods.

    Overhead seconds are spent *on processors* and therefore show up in
    turnaround but not here; ``wait + run_time + total_overhead ==
    turnaround`` holds for every finished job (asserted in tests).
    """
    _require_finished(job)
    return turnaround_time(job) - job.run_time - job.total_overhead


def bounded_slowdown(
    job: Job, threshold: float = BOUNDED_SLOWDOWN_THRESHOLD
) -> float:
    """Eq. 1's bounded slowdown of a finished job (>= 1 always)."""
    _require_finished(job)
    if not threshold > 0:  # also rejects NaN
        raise ValueError(f"threshold must be positive, got {threshold}")
    denom = max(job.run_time, threshold)
    return max(turnaround_time(job) / denom, 1.0)


def xfactor_final(job: Job) -> float:
    """The job's final expansion factor, ``turnaround / run_time``.

    Unbounded version of the slowdown, used in SS theory discussions.
    """
    _require_finished(job)
    return turnaround_time(job) / job.run_time
