"""Speculative backfilling (Perkovic & Keleher -- the paper's ref [29]).

Section V discusses this scheme when dissecting slowdown metrics: "a
job is given a free timeslot to execute in, even if that slot is
considerably smaller than the requested wall-clock limit".  Jobs whose
real run time is far below their estimate (the aborted-job pathology)
complete inside the hole and skip the queue entirely; jobs that
outlive the hole are killed at its end and requeued **from scratch**
(no checkpoint -- the wasted occupancy is the price of the gamble).

Implementation: EASY backfilling as the base; when a queued job cannot
backfill conventionally, it may *speculate* into the hole in front of
the head's reservation.  The gamble is a bounded **test run**: the job
gets at most ``speculation_window`` seconds (default 15 minutes) -- if
it completes within the window it was an aborting/over-estimated job
and the speculation won; otherwise it is killed with bounded waste
(window x width processor-seconds).  Unbounded gambles (run until the
hole closes) lose more than they win on realistic mixes, because most
badly *estimated* jobs are not badly *behaved* -- their actual run
times exceed any plausible hole; the bounded window is what makes the
scheme profitable, and matches the test-run flavour of the original.
``max_kills`` bounds per-job thrash; kills never revoke the job's FIFO
position, so conventional service still makes progress.

This scheduler exists to reproduce the paper's section V argument that
speculative backfilling's headline slowdown gains come from badly
estimated jobs, not from normal ones -- the ablation bench measures
exactly that split.
"""

from __future__ import annotations

from repro.schedulers.policy import (
    FifoOrder,
    HeadReservation,
    NoPreemption,
    PolicyKernel,
    SpeculativeBackfill,
)


def SpeculativeBackfillScheduler(
    speculation_window: float = 900.0, max_kills: int = 2
) -> PolicyKernel:
    """EASY plus bounded test-run speculation into pre-reservation holes.

    The composition: EASY's queue and reservation, with the backfill
    rule swapped for :class:`SpeculativeBackfill` (which also asks the
    kernel to re-run the pass after every speculative kill).

    Parameters
    ----------
    speculation_window:
        Length of a test run, seconds (default 900; positive and
        finite).  A speculating job is killed after this long; a hole
        shorter than the window is not gambled on.
    max_kills:
        Maximum lost speculations per job before it must wait for
        conventional service (finite, >= 0).
    """
    return PolicyKernel(
        scheme_id="speculative",
        display_name="SPEC-BF",
        queue=FifoOrder(),
        reservation=HeadReservation(),
        backfill=SpeculativeBackfill(
            speculation_window=speculation_window, max_kills=max_kills
        ),
        preemption=NoPreemption(),
    )
