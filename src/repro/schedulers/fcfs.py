"""First-come-first-served scheduling.

The strawman of section II: jobs start strictly in arrival order; if the
head of the queue does not fit, everything behind it waits, however many
processors sit idle.  Included as the fragmentation baseline against
which backfilling's utilisation gain is measured (and as the simplest
possible correctness reference for the driver).
"""

from __future__ import annotations

from repro.schedulers.policy import (
    FifoOrder,
    NoBackfill,
    NoPreemption,
    NoReservations,
    PolicyKernel,
)


def FCFSScheduler() -> PolicyKernel:
    """Strict arrival-order dispatch, no backfilling.

    The degenerate composition: FIFO queue and nothing else -- no
    reservation means the service pass stops at the first blocked head.
    """
    return PolicyKernel(
        scheme_id="fcfs",
        display_name="FCFS",
        queue=FifoOrder(),
        reservation=NoReservations(),
        backfill=NoBackfill(),
        preemption=NoPreemption(),
    )
