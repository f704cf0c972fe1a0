"""Load scaling (section VI).

The paper varies offered load by "dividing the arrival times of the jobs
by suitable constants, keeping their run time the same as in the original
trace": a load factor of 1.1 compresses every submit time by 1.1x, which
raises the arrival rate (and hence offered load) by 10% without touching
the job mix.

:func:`scale_load` applies exactly that transformation to a job list.
"""

from __future__ import annotations

from repro.workload.job import Job
from repro.workload.pipeline import LoadScaleStage


def scale_load(jobs: list[Job], load_factor: float) -> list[Job]:
    """Return fresh copies of *jobs* with submit times divided by *load_factor*.

    Parameters
    ----------
    jobs:
        The base trace.  The originals are not modified, so they stay
        reusable.
    load_factor:
        > 0.  Values above 1 increase load; 1.0 returns an unscaled copy;
        values below 1 thin the load (useful for sanity sweeps).

    Notes
    -----
    Run times, estimates, widths and memory are untouched, matching the
    paper's methodology.  Relative ordering of arrivals is preserved.
    The list form of :class:`~repro.workload.pipeline.LoadScaleStage`,
    which holds the transformation and the check on *load_factor*.
    """
    return list(LoadScaleStage(load_factor).apply(iter(jobs)))
