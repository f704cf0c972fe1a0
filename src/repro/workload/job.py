"""The job lifecycle object.

A :class:`Job` is a *rigid* parallel job: it needs exactly ``procs``
processors for ``run_time`` seconds of useful work.  The scheduler sees
only the user's ``estimate``; the simulator knows the truth.

Clock separation
----------------

The paper's suspension priority (the xfactor, eq. 2) is

    xfactor = (wait time + estimated run time) / estimated run time

where *wait time* accrues **only while the job is not running** -- "the
suspension priority of a task remains constant when the task executes and
increases when the task waits" (section IV-A).  :class:`Job` therefore
maintains two clocks:

* :meth:`Job.waited` -- total queued + suspended time up to ``now``;
* :meth:`Job.accrued` -- total useful run time up to ``now``.

Both are integrals over state intervals, updated lazily from the
timestamps of the last state change, so they are exact regardless of how
often the simulator samples them.

Overhead accounting
-------------------

Suspension/restart overhead (section V-A of the paper) is charged to the
*suspended* job: each suspend/resume cycle adds ``pending_overhead``
seconds that the job must spend on the processors before its remaining
useful work completes.  Overhead time is *not* useful work: it extends
occupancy (and therefore turnaround) without advancing :meth:`accrued`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

_INF = float("inf")


class JobState(Enum):
    """Lifecycle states of a job."""

    #: Known to the workload, not yet submitted (before its arrival event).
    PENDING = "pending"
    #: Submitted and waiting in the queue (never run, or between runs
    #: after being suspended -- see :attr:`Job.suspended_mask`).
    QUEUED = "queued"
    #: Holding processors and making progress (or paying overhead).
    RUNNING = "running"
    #: Completed all useful work; terminal.
    FINISHED = "finished"


@dataclass(eq=False)  # identity semantics: a job is a stateful entity
class Job:
    """One rigid parallel job.

    Static fields come from the trace; dynamic fields change only in the
    ``mark_*`` moves the simulation driver makes.  User code should
    treat a finished job as immutable and read results through
    :mod:`repro.metrics`.

    Parameters
    ----------
    job_id:
        Unique nonnegative id (SWF job number or generator index).
    submit_time:
        Arrival time, seconds from trace start (finite, >= 0).
    run_time:
        Actual useful run time, seconds (finite, > 0).
    estimate:
        User-estimated run time, seconds (finite, > 0); schedulers plan
        with this.
        Clamped to at least ``run_time``'s floor of 1 s by the loaders.
    procs:
        Number of processors requested (rigid; an ``int`` >= 1).
    memory_mb:
        Resident set per processor in MB; drives the suspension-overhead
        model.  ``0`` means "unknown" (overhead model substitutes its
        default distribution).
    """

    job_id: int
    submit_time: float
    run_time: float
    estimate: float
    procs: int
    memory_mb: float = 0.0
    user: int = -1

    # ------------------------------------------------------------------
    # dynamic state -- set by the ``mark_*`` moves
    # ------------------------------------------------------------------
    state: JobState = field(default=JobState.PENDING, repr=False)
    #: first time the job ever started running (None until then)
    first_start_time: float | None = field(default=None, repr=False)
    #: completion time (None until finished)
    finish_time: float | None = field(default=None, repr=False)
    #: bitmask of the processors held while RUNNING (bit ``p`` set =
    #: processor ``p``; see :mod:`repro.cluster.bitset`), 0 otherwise.
    #: The driver releases exactly this mask, so it always equals the
    #: cluster's record of the job.
    allocated_mask: int = field(default=0, repr=False)
    #: bitmask of the processors held at the last suspension; a resume
    #: must reacquire exactly this set (local preemption).  0 if never
    #: suspended, currently running, killed, or suspended on a
    #: migratable machine.
    suspended_mask: int = field(default=0, repr=False)
    #: number of times the job has been suspended
    suspension_count: int = field(default=0, repr=False)
    #: number of times a speculative run of the job was killed
    kill_count: int = field(default=0, repr=False)
    #: processor-time wasted by killed speculative runs (seconds of
    #: occupancy that produced no retained progress)
    wasted_time: float = field(default=0.0, repr=False)
    #: overhead seconds still to be paid on the processors (suspend cost
    #: of past suspensions plus resume cost), excluded from useful work.
    #: Overhead is paid *first* after a resume (the image must be read
    #: back from disk before progress), so a re-suspension during the
    #: overhead window does zero useful work.
    pending_overhead: float = field(default=0.0, repr=False)
    #: total overhead seconds actually paid over the job's lifetime
    total_overhead: float = field(default=0.0, repr=False)
    #: useful work still to do, seconds (initialised to ``run_time``,
    #: decremented by useful running time only)
    remaining_useful: float = field(default=-1.0, repr=False)
    #: guard for lazily cancelled finish events; bumped on every
    #: suspend/resume so stale events can be recognised
    epoch: int = field(default=0, repr=False)
    #: when the current run period began
    last_dispatch_time: float = field(default=-1.0, repr=False)
    #: estimate-based completion time of the current run period, used by
    #: backfilling profiles (meaningless unless RUNNING)
    expected_end: float = field(default=float("inf"), repr=False)

    # lazy clock integrals
    _wait_accrued: float = field(default=0.0, repr=False)
    _run_accrued: float = field(default=0.0, repr=False)
    _clock_mark: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError(f"job_id must be nonnegative, got {self.job_id}")
        # ``not 0 < x < _INF`` also rejects NaN and inf, without a call
        if not 0 < self.run_time < _INF:
            raise ValueError(f"job {self.job_id}: run_time must be finite and > 0")
        # ``type() is int`` also rejects NaN, inf, 2.5, 3.0 and True
        if type(self.procs) is not int or self.procs < 1:
            raise ValueError(
                f"job {self.job_id}: procs must be an int >= 1, got {self.procs!r}"
            )
        if not 0 < self.estimate < _INF:
            raise ValueError(f"job {self.job_id}: estimate must be finite and > 0")
        if not 0 <= self.submit_time < _INF:
            raise ValueError(f"job {self.job_id}: submit time must be finite and >= 0")
        self._clock_mark = self.submit_time
        if self.remaining_useful < 0:
            self.remaining_useful = self.run_time

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def _advance_clocks(self, now: float) -> None:
        """Fold the interval since the last state change into the clocks
        (the driver's clock never moves backwards)."""
        dt = now - self._clock_mark
        if self.state is JobState.QUEUED:
            self._wait_accrued += dt
        elif self.state is JobState.RUNNING:
            self._run_accrued += dt
        self._clock_mark = now

    def waited(self, now: float) -> float:
        """Total non-running time accumulated up to *now* (seconds)."""
        extra = 0.0
        if self.state is JobState.QUEUED:
            extra = max(now - self._clock_mark, 0.0)
        return self._wait_accrued + extra

    def accrued(self, now: float) -> float:
        """Total occupancy time accumulated up to *now* (seconds).

        Includes overhead seconds; useful progress is
        ``min(accrued - total_overhead_paid, run_time)`` but the driver
        tracks completion through scheduled finish events, so callers
        normally only need this for the instantaneous xfactor.
        """
        extra = 0.0
        if self.state is JobState.RUNNING:
            extra = max(now - self._clock_mark, 0.0)
        return self._run_accrued + extra

    @property
    def useful_done(self) -> float:
        """Useful work completed so far (seconds); excludes overhead."""
        return self.run_time - self.remaining_useful

    def remaining_estimate(self) -> float:
        """Scheduler-visible remaining occupancy, from the user estimate.

        ``max(estimate - useful_done, 1) + pending_overhead`` -- what a
        backfilling profile should budget for this job if (re)started now.
        The 1 s floor keeps profiles sane when a job outlives its
        estimate (possible with real, under-estimated traces).  Such a
        job is always planned to need one more second, and
        ``AvailabilityProfile`` floors a running one's release the
        same way, so plans made at different times differ: an anchor
        re-planned at every sweep -- the ``ss-easy`` sweep guard -- can
        move between two events, which is why ``ss-easy`` never skips a
        timer sweep.
        """
        rem = max(self.estimate - self.useful_done, 1.0)
        return rem + self.pending_overhead

    # ------------------------------------------------------------------
    # state transitions (driver-only API)
    #
    # Each move books every field it changes.  The driver checks each
    # precondition (state, width, resume set) once, before calling, so
    # the moves do not check again.
    # ------------------------------------------------------------------
    def mark_submitted(self, now: float) -> None:
        """PENDING -> QUEUED at arrival (a pending job accrues nothing)."""
        self._clock_mark = now
        self.state = JobState.QUEUED

    def mark_started(self, now: float, mask: int) -> float:
        """QUEUED -> RUNNING on the processors in bitmask *mask*.

        Returns the run's occupancy: the useful work left plus the
        overhead still to pay, which is when the run finishes.
        """
        self._advance_clocks(now)
        self.state = JobState.RUNNING
        self.allocated_mask = mask
        self.suspended_mask = 0
        if self.first_start_time is None:
            self.first_start_time = now
        self.last_dispatch_time = now
        self.expected_end = now + self.remaining_estimate()
        return max(self.remaining_useful + self.pending_overhead, 0.0)

    def mark_suspended(self, now: float, overhead: float, pinned: bool = True) -> None:
        """RUNNING -> QUEUED, remembering the processor set for resume.

        The run period pays pending overhead first; the rest of it is
        useful work.  *overhead* (the suspend plus resume cost) is added
        to the overhead the next run pays.  With ``pinned=False`` (a
        migratable machine) the job may restart anywhere, so it keeps no
        processor set.
        """
        ran = now - self.last_dispatch_time
        paid = min(ran, self.pending_overhead)
        self.total_overhead += paid
        self.pending_overhead -= paid
        self.remaining_useful = max(self.remaining_useful - (ran - paid), 0.0)
        self.pending_overhead += overhead
        self._advance_clocks(now)
        self.state = JobState.QUEUED
        if pinned:
            self.suspended_mask = self.allocated_mask
        self.allocated_mask = 0
        self.suspension_count += 1
        self.epoch += 1

    def mark_killed(self, now: float) -> float:
        """RUNNING -> QUEUED with all progress discarded; returns the
        run period's occupancy, now wasted.

        Models *speculative* execution (Perkovic & Keleher): a job run
        in a hole shorter than its estimate is killed when the hole
        closes and must later restart **from scratch** -- no checkpoint
        is taken, so unlike :meth:`mark_suspended` nothing pins it to
        its processors and ``remaining_useful`` resets to the full run
        time.  The wasted occupancy stays in the run clock (the machine
        really was busy), so the xfactor still treats it as service.
        """
        wasted = now - self.last_dispatch_time
        self._advance_clocks(now)
        self.wasted_time += wasted
        self.state = JobState.QUEUED
        self.allocated_mask = 0
        self.suspended_mask = 0
        self.remaining_useful = self.run_time
        self.pending_overhead = 0.0
        self.kill_count += 1
        self.epoch += 1
        return wasted

    def mark_finished(self, now: float) -> None:
        """RUNNING -> FINISHED, with all work and overhead paid; terminal."""
        self.total_overhead += self.pending_overhead
        self.pending_overhead = 0.0
        self.remaining_useful = 0.0
        self._advance_clocks(now)
        self.state = JobState.FINISHED
        self.allocated_mask = 0
        self.finish_time = now
        self.epoch += 1

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def was_suspended(self) -> bool:
        """Whether the job has ever been suspended."""
        return self.suspension_count > 0

    def turnaround(self) -> float:
        """Finish minus submit; only valid once finished."""
        if self.finish_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time

    def xfactor(self, now: float) -> float:
        """The paper's suspension priority (eq. 2).

        ``(wait time + estimated run time) / estimated run time`` -- grows
        while the job waits, constant while it runs, and >= 1 always.
        The wait is :meth:`waited`'s float, read here without the call.
        """
        wait = self._wait_accrued
        if self.state is JobState.QUEUED:
            wait += max(now - self._clock_mark, 0.0)
        return (wait + self.estimate) / self.estimate

    def instantaneous_xfactor(self, now: float) -> float:
        """The IS scheme's priority (Chiang & Vernon).

        ``(wait + total accrued run) / total accrued run``.  Diverges for
        jobs that have not yet run; the IS scheduler treats never-run jobs
        as maximally entitled, so this returns ``inf`` when accrued is 0.
        """
        acc = self._run_accrued
        wait = self._wait_accrued
        # the floats of accrued() and waited(), read without the calls
        if self.state is JobState.RUNNING:
            acc += max(now - self._clock_mark, 0.0)
        elif self.state is JobState.QUEUED:
            wait += max(now - self._clock_mark, 0.0)
        if acc <= 0.0:
            return _INF
        return (wait + acc) / acc

    def copy_static(self) -> "Job":
        """Fresh Job with the same static fields and pristine state.

        Simulations mutate jobs; replicating an experiment with a second
        scheduler requires a clean copy of the trace.
        """
        return Job(
            job_id=self.job_id,
            submit_time=self.submit_time,
            run_time=self.run_time,
            estimate=self.estimate,
            procs=self.procs,
            memory_mb=self.memory_mb,
            user=self.user,
        )


def fresh_copies(jobs: list[Job]) -> list[Job]:
    """Clean, unsimulated copies of *jobs* (see :meth:`Job.copy_static`)."""
    return [j.copy_static() for j in jobs]
