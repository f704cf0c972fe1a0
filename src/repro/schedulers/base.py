"""The scheduler interface.

A scheduler is a policy object driven by the simulation driver
(:class:`~repro.sim.driver.SchedulingSimulation`).  The driver owns all
*mechanism* -- job state transitions, processor accounting, finish
events, metrics.  The scheduler owns all *policy*: which queued job to
start, when, and (for preemptive schemes) which running jobs to suspend.

Contract
--------

* The driver calls :meth:`Scheduler.on_arrival` after a job joined the
  queue, :meth:`Scheduler.on_finish` after a job's processors were
  released, and :meth:`Scheduler.on_timer` on each periodic tick (only
  if :attr:`Scheduler.timer_interval` is not ``None``).
* Ticks are skipped, not dispatched, when nothing is traced and they
  fall before both :meth:`Scheduler.quiet_until` (less one interval)
  and the next arrival, finish or kill.  The driver asks the
  bound right after each of these hooks and after each tick, so a
  scheduler whose bound is valid sees the same schedule either way;
  skipped ticks still count in ``events_dispatched``.
* Inside a hook the scheduler may call ``self.driver.start_job(job)``
  and ``self.driver.suspend_job(job)``; both take effect immediately
  (processors move synchronously), so the scheduler can chain decisions
  within one hook.
* The driver's ``queued`` list is in arrival order (suspended jobs
  re-enter at the tail).  Schedulers must not mutate it; they select
  jobs and the driver updates the list inside ``start_job``.
* Schedulers never touch :class:`~repro.workload.job.Job` lifecycle
  methods directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.driver import SchedulingSimulation
    from repro.workload.job import Job


class Scheduler(ABC):
    """Base class for all scheduling policies."""

    #: Human-readable policy name for reports.
    name: str = "base"

    #: Stable machine-readable scheme id; the key of the scheme table in
    #: :mod:`repro.schedulers.registry`, which rebuilds the policy from
    #: its :meth:`config`.  Concrete schedulers must override it.
    scheme_id: str = "base"

    #: If not ``None``, the driver fires :meth:`on_timer` every this many
    #: seconds while work remains.  The paper's preemptive schemes use a
    #: 60 s preemption sweep (section IV-B).
    timer_interval: float | None = None

    def __init__(self) -> None:
        self.driver: "SchedulingSimulation | None" = None

    # ------------------------------------------------------------------
    # driver wiring
    # ------------------------------------------------------------------
    def bind(self, driver: "SchedulingSimulation") -> None:
        """Attach to a driver; called at the start of every run."""
        self.driver = driver

    def on_begin(self) -> None:
        """Hook called once at simulation start (after binding)."""

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def on_arrival(self, job: "Job") -> None:
        """A job was submitted and queued."""

    @abstractmethod
    def on_finish(self, job: "Job") -> None:
        """A job finished; its processors are already free."""

    def on_timer(self) -> None:
        """Periodic tick; only fired when :attr:`timer_interval` is set."""

    def quiet_until(self) -> float:
        """Right after any hook (:meth:`on_arrival`, :meth:`on_finish`,
        :meth:`on_kill` or :meth:`on_timer`): a time before which no tick
        can change anything, if no other event comes first.

        It must read only the current state, whichever hook left it.  An
        untraced driver does not schedule the ticks before then, but
        keeps the last one as a float margin.  The default,
        ``-inf``, keeps every tick.
        """
        return -inf

    def on_kill(self, job: "Job") -> None:
        """A speculative run of *job* hit its deadline and was requeued.

        Only fired for schedulers that call ``driver.start_speculative``.
        """

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line description for report headers."""
        return self.name

    def config(self) -> dict[str, object]:
        """The policy's full configuration as a JSON-serialisable mapping.

        Contract: the mapping **completely determines scheduling
        behaviour** -- two scheduler instances with equal configs must
        produce identical schedules over any workload.  It always
        contains a ``"scheme"`` key (:attr:`scheme_id`) and only
        JSON-stable values (numbers, strings, bools, lists, dicts with
        string keys).  Every other key is a keyword argument of the
        class's constructor, which is how one generic rebuild serves
        every scheme.

        Two consumers rely on this:

        * the on-disk result cache (:mod:`repro.experiments.cache`)
          folds it into the cell fingerprint, so any behavioural knob a
          subclass adds **must** appear here or cached results go stale
          silently;
        * the grid executor (:mod:`repro.experiments.parallel`) ships
          it to whichever process runs the cell, where
          :func:`repro.schedulers.registry.scheduler_from_config`
          rebuilds a fresh instance (scheduler objects hold run state
          and do not pickle).
        """
        return {"scheme": self.scheme_id}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
