"""Hybrid guarantee + preemption schemes unlocked by the policy kernel.

The paper leaves open how selective preemption interacts with
start-time guarantees: SS deliberately reserves nothing (section IV-A
argues the xfactor priority alone prevents starvation), while the
non-preemptive baselines buy predictability with reservations.  The
policy decomposition makes the cross products expressible:

* **ss-easy** -- SS's suspension sweep with an EASY-style head
  reservation the sweep must honor.  Each suspension sweep plans the
  queue head's earliest start against the running jobs (announced as a
  ``reservation`` decision record, exactly like EASY's) and then
  refuses to *suspend victims* for any other job that would still be
  running at that anchor (denial cause ``reservation_guard``).  Greedy
  starts onto free processors are untouched: the guard constrains
  preemption, not admission, so the scheme trades a little of SS's
  aggression for an EASY-grade guarantee that the most-delayed job's
  forecast start cannot be pushed back by preemption churn.
* **tss-conservative** -- conservative backfilling's per-job
  guarantees with TSS's category-limited preemption sweep layered on
  top.  Arrivals and completions anchor and compress exactly as in
  CONS; every ``preemption_interval`` the sweep additionally serves
  the queue by suspending victims under the category limits.  Jobs the
  sweep starts or suspends drop out of / re-enter the anchor table at
  the next compression (anchors are filtered against the live queue),
  so the guarantees stay self-consistent -- they are forecasts, as in
  CONS, not contracts.

Both are ordinary entries of the scheme table: constructible from
``config()`` mappings, cacheable, traceable, and grid-runnable.
"""

from __future__ import annotations

from repro.core.priorities import PreemptionCriteria
from repro.core.tss import CategoryLimits
from repro.schedulers.policy import (
    GreedyBackfill,
    HeadReservation,
    PerJobReservations,
    PolicyKernel,
    SuspensionPriorityOrder,
    SweepPreemption,
)


def SuspensionWithHeadGuarantee(
    suspension_factor: float = 2.0,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> PolicyKernel:
    """``ss-easy``: the SS sweep honoring an EASY head reservation."""
    return PolicyKernel(
        scheme_id="ss-easy",
        display_name=f"SS+EASY(SF={suspension_factor:g})",
        queue=SuspensionPriorityOrder(),
        reservation=HeadReservation(),
        backfill=GreedyBackfill(),
        preemption=SweepPreemption(
            PreemptionCriteria(
                suspension_factor=suspension_factor, width_rule=width_rule
            ),
            preemption_interval=preemption_interval,
        ),
    )


def TunableSuspensionWithGuarantees(
    suspension_factor: float = 2.0,
    limits: CategoryLimits | None = None,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> PolicyKernel:
    """``tss-conservative``: per-job guarantees + category-limited sweep."""
    limits = limits if limits is not None else CategoryLimits(online=True)
    mode = "online" if limits.online else "calibrated"
    return PolicyKernel(
        scheme_id="tss-conservative",
        display_name=f"TSS+CONS(SF={suspension_factor:g},{mode})",
        queue=SuspensionPriorityOrder(),
        reservation=PerJobReservations(),
        backfill=GreedyBackfill(),
        preemption=SweepPreemption(
            PreemptionCriteria(
                suspension_factor=suspension_factor, width_rule=width_rule
            ),
            preemption_interval=preemption_interval,
            limits=limits,
        ),
    )
