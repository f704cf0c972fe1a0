"""Gang scheduling (Ousterhout-matrix time slicing).

Section II names gang scheduling as the classic preemptive alternative
to backfilling for rigid jobs: the machine's time is divided into
*slots* (rows of the Ousterhout matrix); each job is placed into one
slot on a fixed set of processors, and the scheduler rotates through
slots every *quantum*, context-switching all jobs of the outgoing slot
and resuming all jobs of the incoming one in one coordinated gang
switch.  Jobs in the same slot run truly in parallel; jobs in different
slots time-share the machine.

This implementation is the straightforward matrix variant:

* admission is first-fit: a job joins the first slot with enough free
  columns (processor ids unused by that slot) and takes the lowest of
  them, else opens a new slot;
* each job keeps the same processor columns for its whole life, so
  suspension/resume is automatically local (the paper's constraint);
* rotation is strictly round-robin over non-empty slots; no
  alternative-slot backfilling of mid-quantum holes (documented
  simplification -- production gang schedulers fill those with
  "alternative scheduling");
* a single occupied slot short-circuits rotation (no churn when the
  machine is not oversubscribed).

Included as an extension baseline: it shows what *indiscriminate*
(time-driven) preemption does to the same workloads, against which the
paper's *selective* (priority-driven) preemption can be judged.  Each
gang switch pays the suspension-overhead model's price like any other
suspension, which is exactly why coarse quanta are mandatory.
"""

from __future__ import annotations

from math import inf

from repro.cluster.bitset import take_lowest
from repro.schedulers.base import Scheduler
from repro.workload.job import Job, JobState


class _Slot:
    """One row of the Ousterhout matrix."""

    __slots__ = ("jobs", "columns")

    def __init__(self) -> None:
        #: members of the slot (running or suspended, never finished)
        self.jobs: list[Job] = []
        #: job_id -> bitmask of the processor columns assigned within
        #: this slot
        self.columns: dict[int, int] = {}

    def used(self) -> int:
        out = 0
        # repro-lint: disable=RPR001 -- mask-union fold: result is order-insensitive
        for cols in self.columns.values():
            out |= cols
        return out


class GangScheduler(Scheduler):
    """Round-robin gang scheduling with first-fit slot admission.

    Parameters
    ----------
    quantum:
        Seconds between gang switches; the classic trade-off knob
        (responsiveness vs context-switch amortisation).  Also the
        timer interval, so it must be positive and finite.
    """

    name = "GANG"
    scheme_id = "gang"

    def config(self) -> dict[str, object]:
        return {"scheme": self.scheme_id, "quantum": self.quantum}

    def __init__(self, quantum: float = 600.0) -> None:
        super().__init__()
        if not 0 < quantum < inf:  # also rejects NaN
            raise ValueError(f"'quantum' must be positive and finite, got {quantum!r}")
        self.quantum = float(quantum)
        self.timer_interval = float(quantum)
        self._slots: list[_Slot] = []
        self._active = 0
        #: earliest time the active slot may be switched out: the
        #: quantum is a quantum of *service*, so it extends past any
        #: suspend/restart overhead the slot's jobs had to pay first
        #: (otherwise overhead > quantum livelocks the rotation)
        self._slot_protected_until = 0.0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_begin(self) -> None:
        self._slots = []
        self._active = 0
        self._slot_protected_until = 0.0

    def on_arrival(self, job: Job) -> None:
        self._admit(job)
        self._dispatch_active()

    def on_finish(self, job: Job) -> None:
        self._evict(job)
        self._dispatch_active()

    def on_timer(self) -> None:
        self._rotate()

    # ------------------------------------------------------------------
    # matrix management
    # ------------------------------------------------------------------
    def _admit(self, job: Job) -> None:
        """First-fit the job into a slot; assign its columns for life."""
        driver = self.driver
        assert driver is not None
        full = (1 << driver.cluster.n_procs) - 1
        for slot in self._slots:
            cols = take_lowest(full & ~slot.used(), job.procs)
            if cols.bit_count() == job.procs:
                slot.jobs.append(job)
                slot.columns[job.job_id] = cols
                return
        slot = _Slot()
        slot.jobs.append(job)
        slot.columns[job.job_id] = (1 << job.procs) - 1
        self._slots.append(slot)

    def _evict(self, job: Job) -> None:
        for i, slot in enumerate(self._slots):
            if job.job_id in slot.columns:
                slot.jobs.remove(job)
                del slot.columns[job.job_id]
                if not slot.jobs:
                    del self._slots[i]
                    if self._active >= len(self._slots):
                        self._active = 0
                return

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch_active(self) -> None:
        """Start every queued member of the active slot whose columns are free."""
        driver = self.driver
        assert driver is not None
        if not self._slots:
            return
        slot = self._slots[self._active % len(self._slots)]
        for job in list(slot.jobs):
            if job.state is not JobState.QUEUED:
                continue
            cols = job.suspended_mask or slot.columns[job.job_id]
            if driver.cluster.can_allocate_mask(cols):
                pending = job.pending_overhead
                driver.start_job(job, procs=cols)
                self._slot_protected_until = max(
                    self._slot_protected_until, driver.now + pending + self.quantum
                )

    def _rotate(self) -> None:
        """Gang switch: park the active slot, wake the next one."""
        driver = self.driver
        assert driver is not None
        if len(self._slots) <= 1:
            self._dispatch_active()
            return
        if driver.now < self._slot_protected_until:
            return  # the active slot has not had its quantum of service yet
        outgoing = self._slots[self._active % len(self._slots)]
        for job in list(outgoing.jobs):
            if job.state is JobState.RUNNING:
                driver.suspend_job(job)
        self._active = (self._active + 1) % len(self._slots)
        self._dispatch_active()

    def describe(self) -> str:
        return f"GANG, quantum {self.quantum:g}s, {len(self._slots)} slots"
