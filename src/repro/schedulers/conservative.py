"""Conservative backfilling.

Section II-A-1: *every* job receives a reservation (start-time
guarantee) when it is submitted, at the earliest profile anchor that
fits it; a job may backfill only if doing so delays no previously
queued job.  When a running job terminates earlier than its estimate,
the schedule is *compressed*: reservations are released one by one in
order of increasing guaranteed start time and each job is re-anchored
against the updated profile -- it can only move earlier (in the worst
case it reclaims exactly its old slot).

Implementation: reservations are kept as ``job_id -> anchor``.  A
compression rebuilds the planning profile from the running jobs and
re-anchors every queued job.  An arrival anchors on the profile the last
compression or arrival left behind and claims only the new job, but only
when that profile provably equals a rebuild from live state float for
float (nothing else happened since, no anchor lies in the past, and
every running job's release is stored exactly); otherwise it rebuilds.
DESIGN.md section 7 gives the argument, and a Hypothesis differential in
``tests/test_properties.py`` compares the kept profile with a rebuild at
every arrival that reuses it.
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
