"""The Immediate Service (IS) comparator -- Chiang & Vernon.

The paper compares SS against "immediate service": every arriving job is
given an immediate timeslice of 10 minutes, suspending one or more
running jobs if needed; victims are the running jobs with the lowest
*instantaneous xfactor*, ``(wait + accrued run) / accrued run`` -- the
jobs that have already received the most service relative to their wait.

The published description is a sketch, so this implementation pins down
the unstated details (each choice documented in DESIGN.md section 3):

* a job that has just (re)started is **protected** for the timeslice
  (10 minutes): it cannot be suspended during that window, which is what
  "given a timeslice" must mean for the guarantee to exist;
* on arrival, if free processors do not cover the request, unprotected
  victims are suspended in ascending instantaneous-xfactor order until
  they do; if even that is insufficient the job waits in the queue;
* suspended and still-waiting jobs receive service at every sweep
  (completions and the periodic timer): a waiting job may preempt
  unprotected victims whose instantaneous xfactor is *strictly below*
  its own.  A running job's instantaneous xfactor decays toward 1 as it
  accumulates service while a waiter's grows, so every waiter eventually
  qualifies -- IS keeps the no-starvation property without reservations;
* re-entry is local: a suspended job needs its original processors, and
  every unprotected squatter on them must qualify as a victim.

This reproduces the behaviour the paper reports: excellent slowdowns
for very short jobs (they always get their slice), severe degradation
for long and very wide jobs, and poor overall utilisation under load
(suspended wide jobs wait long for their exact processor sets while the
machine churns timeslices).
"""

from __future__ import annotations

from repro.schedulers.policy import (
    InstantaneousPriorityOrder,
    NoBackfill,
    NoReservations,
    PolicyKernel,
    TimeslicePreemption,
)

#: The immediate-service timeslice (and protection window), seconds.
DEFAULT_TIMESLICE = 600.0


def ImmediateServiceScheduler(
    timeslice: float = DEFAULT_TIMESLICE,
    sweep_interval: float = 60.0,
) -> PolicyKernel:
    """IS: immediate 10-minute timeslices, lowest-instantaneous-xfactor victims.

    The timeslice engine lives in
    :class:`repro.schedulers.policy.TimeslicePreemption`; this function
    is the composition (instantaneous-priority queue, no reservations,
    no backfill -- service *is* the preemption engine).
    """
    return PolicyKernel(
        scheme_id="is",
        display_name="IS",
        queue=InstantaneousPriorityOrder(),
        reservation=NoReservations(),
        backfill=NoBackfill(),
        preemption=TimeslicePreemption(
            timeslice=timeslice, sweep_interval=sweep_interval
        ),
    )
