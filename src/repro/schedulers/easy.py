"""Aggressive (EASY) backfilling -- the paper's **NS** baseline.

Section II-A-2: jobs are kept in arrival order; the first job that
cannot start receives the *only* reservation, at the earliest time
enough processors are forecast free.  Any later queued job may jump
ahead provided it does not delay that reserved head job, i.e. it either

* terminates (by its estimate) before the head's reservation starts, or
* uses only processors the head will not need at its start time.

Both conditions are captured uniformly by planning against an
:class:`~repro.schedulers.profiles.AvailabilityProfile` that contains
the running jobs *and* the head's reservation: a queued job may backfill
iff the profile admits it starting now for its full estimated duration.

With accurate estimates this is exactly EASY; with over-estimates, jobs
finish early and the next event re-plans, recovering the released time
(the paper's section V setting).
"""

from __future__ import annotations

from repro.schedulers.policy import (
    FifoOrder,
    HeadReservation,
    NoPreemption,
    PolicyKernel,
    ProfileBackfill,
)


def EasyBackfillScheduler() -> PolicyKernel:
    """EASY/aggressive backfilling over user estimates.

    The composition: FIFO queue, single head reservation (claimed and
    announced), profile-admission backfill, no preemption.
    """
    return PolicyKernel(
        scheme_id="easy",
        display_name="EASY",
        queue=FifoOrder(),
        reservation=HeadReservation(),
        backfill=ProfileBackfill(),
        preemption=NoPreemption(),
    )
