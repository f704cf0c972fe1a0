"""The Selective Suspension (SS) scheduler -- section IV.

Policy summary
--------------

* **No reservations.**  Start-time guarantees are meaningless when a
  started job can be suspended again, and the xfactor priority already
  rules out starvation: any waiting job's priority grows without bound,
  so it eventually clears the SF threshold against *some* victim
  (section IV-B).  Queued jobs simply start greedily whenever they fit
  on free processors, highest priority first.
* **Preemption sweep.**  Every ``preemption_interval`` seconds (60 s in
  the paper) the scheduler walks the idle queue in descending suspension
  priority and, for each job that does not fit, tries to assemble enough
  processors by suspending running jobs that clear the SF threshold --
  walking victims in ascending priority, then actually suspending the
  *widest* candidates first and stopping as soon as the count is met
  (the paper's ``suspend_jobs_1``).
* **Half-width rule.**  A fresh idle job may only suspend victims at
  most twice its own width, so sequential jobs cannot chip away at very
  wide jobs (section IV-B).
* **Local re-entry.**  A previously suspended job needs *exactly* its
  original processors back.  Every running job overlapping that set must
  clear the SF threshold or the resume fails this sweep; the half-width
  rule is waived here, otherwise a narrow squatter could pin a wide job
  forever (section IV-C, ``suspend_jobs_2``).

The sweep engine itself lives in
:class:`repro.schedulers.policy.SweepPreemption`; this module's
:func:`SelectiveSuspensionScheduler` is the declarative composition
(suspension-priority queue, no reservations, greedy fills, sweep
preemption).  The engine's criteria, placement and pinned-processor
view are reached through the kernel's ``preemption`` attribute.  The
TSS refinement (per-category preemption limits) is the same
composition with a ``limits`` table.
"""

from __future__ import annotations

from repro.core.priorities import PreemptionCriteria
from repro.schedulers.policy import (
    GreedyBackfill,
    NoReservations,
    PolicyKernel,
    SuspensionPriorityOrder,
    SweepPreemption,
)


def SelectiveSuspensionScheduler(
    suspension_factor: float = 2.0,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> PolicyKernel:
    """SS: xfactor-thresholded preemptive backfilling (section IV).

    Parameters
    ----------
    suspension_factor:
        The SF threshold, >= 1; the paper evaluates 1.5, 2 and 5.  SF =
        inf is legal and never suspends; NaN is refused.
    preemption_interval:
        Seconds between preemption sweeps (paper: 60).
    width_rule:
        Enable the half-width restriction for fresh starts (paper: on;
        exposed for the ablation bench).
    """
    return PolicyKernel(
        scheme_id="ss",
        display_name=f"SS(SF={suspension_factor:g})",
        queue=SuspensionPriorityOrder(),
        reservation=NoReservations(),
        backfill=GreedyBackfill(),
        preemption=SweepPreemption(
            PreemptionCriteria(
                suspension_factor=suspension_factor, width_rule=width_rule
            ),
            preemption_interval=preemption_interval,
        ),
    )
