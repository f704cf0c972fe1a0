"""The paper's contribution: selective preemption schemes.

* :mod:`repro.core.priorities` -- the
  :class:`~repro.core.priorities.PreemptionCriteria` threshold logic
  over the xfactor of eq. 2 (:meth:`~repro.workload.job.Job.xfactor`).
* :mod:`repro.core.selective_suspension` -- the **SS** scheduler
  (section IV): SF-thresholded preemption, half-width rule, local
  (same-processors) resume, backfilling without reservations, periodic
  preemption sweep.
* :mod:`repro.core.tss` -- **TSS** (section IV-E): per-category
  preemption limits at 1.5x the category's average slowdown.
* :mod:`repro.core.immediate_service` -- the **IS** comparator (Chiang &
  Vernon): immediate 10-minute timeslices by suspending the running jobs
  with the lowest instantaneous xfactor.
* :mod:`repro.core.overhead` -- the disk-swap suspension-overhead model
  (section V-A).
"""

from repro.core.priorities import PreemptionCriteria
from repro.core.overhead import DiskSwapOverheadModel, FixedOverheadModel
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import (
    CategoryLimits,
    TunableSelectiveSuspensionScheduler,
    limits_from_result,
)
from repro.core.immediate_service import ImmediateServiceScheduler

__all__ = [
    "CategoryLimits",
    "DiskSwapOverheadModel",
    "FixedOverheadModel",
    "ImmediateServiceScheduler",
    "PreemptionCriteria",
    "SelectiveSuspensionScheduler",
    "TunableSelectiveSuspensionScheduler",
    "limits_from_result",
]
