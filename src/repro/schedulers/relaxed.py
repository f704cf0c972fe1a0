"""Relaxed backfilling (Ward, Mahood & West -- the paper's ref [10]).

EASY backfilling refuses any backfill that would delay the reserved
head job *at all*; relaxed backfilling trades a bounded head delay for
utilisation: a queued job may backfill if doing so postpones the head's
start by at most ``relaxation x`` the head's estimated run time.  At
``relaxation = 0`` this degenerates to EASY; small positive values
(the original paper studies ~0.5) recover most of the utilisation lost
to pessimistic user estimates.

Implementation: like EASY, the head gets the single reservation; each
backfill candidate is evaluated on a *cloned* profile -- claim the
candidate now, re-anchor the head, accept if the new anchor is within
the allowance, otherwise discard the clone.  O(Q x profile) per pass,
same complexity class as the EASY planner.

Included as a substrate extension: the reproduction's ablations use it
to show the paper's conclusions do not hinge on the exact
non-preemptive baseline chosen.
"""

from __future__ import annotations

from repro.schedulers.policy import (
    FifoOrder,
    HeadReservation,
    NoPreemption,
    PolicyKernel,
    RelaxedBackfill,
)


def RelaxedBackfillScheduler(relaxation: float = 0.5) -> PolicyKernel:
    """Backfilling with a bounded head-delay allowance.

    The composition: FIFO queue, a head reservation that is *planned
    but neither claimed nor announced* (the anchor is an internal
    allowance, re-derived per candidate), relaxed what-if admission,
    no preemption.

    Parameters
    ----------
    relaxation:
        Fraction of the head job's estimate by which its reserved start
        may slip to admit a backfill.  0 reproduces EASY exactly; inf is
        legal and admits any job that fits now; NaN is refused.
    """
    return PolicyKernel(
        scheme_id="relaxed",
        display_name=f"RELAXED(r={relaxation:g})",
        queue=FifoOrder(),
        reservation=HeadReservation(claim_head=False, announce=False),
        backfill=RelaxedBackfill(relaxation=relaxation),
        preemption=NoPreemption(),
    )
