"""Conservative backfilling.

Section II-A-1: *every* job receives a reservation (start-time
guarantee) when it is submitted, at the earliest profile anchor that
fits it; a job may backfill only if doing so delays no previously
queued job.  When a running job terminates earlier than its estimate,
the schedule is *compressed*: reservations are released one by one in
order of increasing guaranteed start time and each job is re-anchored
against the updated profile -- it can only move earlier (in the worst
case it reclaims exactly its old slot).

Implementation: reservations are kept as ``job_id -> anchor`` and the
planning profile is rebuilt from live state on each pass.  Rebuilding is
O((R + Q)^2) in running + queued jobs, which is entirely adequate at
paper scale and immune to the incremental-update drift bugs that plague
long-lived profile structures.
"""

from __future__ import annotations

from repro.schedulers.policy import (
    FifoOrder,
    NoBackfill,
    NoPreemption,
    PerJobReservations,
    PolicyKernel,
)


def ConservativeBackfillScheduler() -> PolicyKernel:
    """Per-job reservations with compression on early completion.

    The composition: FIFO queue and :class:`PerJobReservations`, which
    serves arrivals and completions itself (anchoring and compression
    *are* the scheme) -- the backfill pass never runs.  The guarantees
    are readable through ``reservation.guaranteed_start(job)``.
    """
    return PolicyKernel(
        scheme_id="conservative",
        display_name="CONS",
        queue=FifoOrder(),
        reservation=PerJobReservations(),
        backfill=NoBackfill(),
        preemption=NoPreemption(),
    )
