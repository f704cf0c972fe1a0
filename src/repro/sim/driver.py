"""The job-scheduling simulation driver.

:class:`SchedulingSimulation` binds together a cluster, a scheduler
policy and a workload, and owns every piece of *mechanism*:

* the event calendar, the clock and the dispatch loop;
* arrival / finish / timer / kill event handling;
* job state transitions and the wait/run clock bookkeeping;
* processor allocation and release (through the cluster);
* suspension-overhead charging (pay-on-resume model, see below);
* utilisation accounting and the finished-job record.

Schedulers (policy) interact with the driver exclusively through
:meth:`start_job` and :meth:`suspend_job` -- see
:mod:`repro.schedulers.base` for the contract.

Event calendar
--------------

A run needs four kinds of event (:class:`EventKind`): arrivals,
finishes, the scheduler's periodic tick (the paper's once-a-minute
preemption routine, section IV-B) and speculative kills.  The calendar
is one binary heap of ``(time, kind, seq, event)`` entries, so events
dispatch in a fixed, documented order:

* ``time`` -- simulation time in seconds;
* ``kind`` -- at equal times finishes dispatch before arrivals, which
  dispatch before ticks, which dispatch before kills.  Processors freed
  at *t* are visible when the arrival at *t* is handled, a sweep at *t*
  sees the post-arrival queue, and a job finishing exactly at its
  speculation deadline is not killed;
* ``seq`` -- an insertion counter: FIFO among the remaining ties.

:meth:`SchedulingSimulation._post` is the one way in; it refuses NaN
and times before the clock.  Cancellation is lazy: suspending a job
sets its pending finish event's ``cancelled`` flag, and the loop drops
the entry when it reaches the top.  Per-job *epochs* are a second guard,
so a stale finish or kill never acts on a job that was suspended and
resumed since the event was posted.

Overhead model
--------------

Suspension overhead (paper section V-A) is charged to the suspended job
as *pending overhead*: at suspension we add the cost of writing the
job's memory image to disk plus the cost of reading it back, and the job
pays that time at the start of its next run period, before any useful
progress.  Consequences, all intentional:

* turnaround and slowdown of suspended jobs inflate by the overhead;
* the preempting job starts immediately (we do not model the victim's
  write-back blocking its processors -- the paper's conclusion that
  overhead barely affects SS is insensitive to this, and we verify that
  with an ablation that doubles the charge);
* a job re-suspended while still paying overhead has made zero useful
  progress, so repeated thrashing is maximally punished, which is the
  conservative direction for evaluating a preemptive scheme.

Determinism
-----------

The calendar orders every pair of events, and the driver adds no
randomness.  Two runs over the same workload and policy produce
identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Any, Protocol

from repro.cluster.machine import Cluster
from repro.obs.events import Tracer
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder
    from repro.schedulers.base import Scheduler

#: events one run may dispatch, skipped timer ticks included; passing
#: it means a logic error (a timer storm or a livelocked scheduler)
MAX_EVENTS = 50_000_000


class SimulationError(RuntimeError):
    """Raised when the simulation violates one of its own invariants."""


class EventKind(IntEnum):
    """The kinds of calendar event; the value is the dispatch order of
    events at equal times (smaller first)."""

    #: A running job completed its work (or its overhead-inflated work).
    JOB_FINISH = 0
    #: A job entered the system and joined the wait queue.
    JOB_ARRIVAL = 1
    #: The scheduler's periodic tick (e.g. the 60 s preemption sweep).
    TIMER = 2
    #: Deadline of a speculative run (kill-and-requeue); last, so a
    #: finish at the same instant wins (the job made it).
    JOB_KILL = 3


@dataclass(slots=True, eq=False)
class Event:
    """A posted event: its time, the job it concerns (``None`` for a
    tick), the job's epoch when posted, and the lazy-cancellation flag."""

    time: float
    payload: Any = None
    epoch: int = 0
    cancelled: bool = False


def _budget_exhausted() -> SimulationError:
    return SimulationError(
        f"event budget exhausted ({MAX_EVENTS} events); "
        "likely a timer storm or a livelocked scheduler"
    )


class SuspensionOverheadModel(Protocol):
    """Anything that can price a suspend/resume cycle for a job."""

    def suspend_resume_cost(self, job: Job) -> float:
        """Total overhead seconds charged for one suspension of *job*."""
        ...


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    All derived metrics (slowdowns, per-category tables, ...) are
    computed by :mod:`repro.metrics` from the finished jobs here.
    """

    #: all jobs, finished, in completion order
    jobs: list[Job]
    #: machine size
    n_procs: int
    #: scheduler policy name
    scheduler: str
    #: integral of busy processors over time (processor-seconds)
    busy_proc_seconds: float
    #: time of the last completion (trace starts at its first submit)
    makespan: float
    #: total suspension operations performed
    total_suspensions: int
    #: events dispatched (diagnostics), counting the timer ticks an
    #: untraced run skipped as dispatched, so traced and untraced runs
    #: report the same number
    events_dispatched: int = 0
    #: speculative runs killed at their deadline (speculative backfilling)
    total_kills: int = 0
    #: time of the last job arrival
    last_arrival: float = 0.0
    #: busy processor-seconds accumulated up to the last arrival
    busy_in_arrival_window: float = 0.0
    #: whether the arrival window was actually recorded (the last arrival
    #: event was dispatched).  ``False`` for results built by hand or for
    #: runs aborted before the final arrival; distinguishes "no window"
    #: from "window closed at t = 0" (a burst trace), which
    #: ``last_arrival == 0`` alone cannot.
    arrival_window_closed: bool = False

    @property
    def utilization(self) -> float:
        """Overall system utilisation in [0, 1] (busy / capacity).

        Computed over the whole schedule, including the drain tail after
        the last arrival.  For load studies on finite traces prefer
        :attr:`steady_utilization` -- see its docstring.
        """
        if self.makespan <= 0:
            return 0.0
        return self.busy_proc_seconds / (self.n_procs * self.makespan)

    @property
    def steady_utilization(self) -> float:
        """Utilisation over the arrival window only.

        A finite trace ends with a drain: after the last submission the
        queue empties and the machine winds down, which depresses the
        whole-run ratio by an amount that scales with (drain length /
        trace length).  The paper's traces span months, so its "overall
        system utilization" is effectively the steady-state value; our
        shorter synthetic traces make the tail artefact significant --
        especially for preemptive schemes, whose suspended long jobs
        serialise during the drain.  This metric reproduces what the
        paper measured (see EXPERIMENTS.md, Figs 35/38).

        Falls back to whole-run :attr:`utilization` only when the window
        was never recorded (:attr:`arrival_window_closed` is false).  A
        window that *closed at t = 0* -- every arrival in one burst at
        trace start -- has zero length, so no steady-state utilisation
        exists and this returns 0.0 rather than silently substituting
        the drain-tail-depressed whole-run figure.
        """
        if not self.arrival_window_closed:
            return self.utilization
        if self.last_arrival <= 0:
            return 0.0
        return self.busy_in_arrival_window / (self.n_procs * self.last_arrival)


class SchedulingSimulation:
    """Drives one scheduler policy over one workload on one cluster.

    Parameters
    ----------
    cluster:
        The machine; must be fresh (all processors free).
    scheduler:
        The policy object; bound to this driver for the run.
    overhead_model:
        Optional suspension-overhead pricing; ``None`` means free
        suspension (the paper's sections III-IV assumption).
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving
        the run's event stream.  ``None`` (or a recorder whose
        ``enabled`` flag is false, e.g. the shared
        :data:`~repro.obs.recorder.NULL_RECORDER`) disables tracing
        entirely: :attr:`tracer` stays ``None`` and every emission site
        reduces to a single ``is not None`` check -- the
        zero-overhead-when-off contract (``tools/bench_gate.py``
        requires a null-recorder run to make exactly the untraced run's
        calls).  Tracing never changes the
        schedule: traced and untraced runs start, suspend and finish
        the same jobs at the same times.  Untraced runs leave out the
        timer ticks that cannot act (DESIGN.md section 6).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: "Scheduler",
        overhead_model: SuspensionOverheadModel | None = None,
        migratable: bool = False,
        recorder: "TraceRecorder | None" = None,
    ) -> None:
        if cluster.busy_count:
            raise ValueError("cluster must start empty")
        self.cluster = cluster
        self.scheduler = scheduler
        self.overhead_model = overhead_model
        #: the recorder handed in at construction (``None`` if untraced)
        self.recorder = recorder
        #: emission facade; ``None`` unless a recorder with
        #: ``enabled=True`` was supplied (the single guard every
        #: emission site checks)
        self.tracer: Tracer | None = (
            Tracer(recorder) if recorder is not None and recorder.enabled else None
        )
        #: Parsons & Sevcik's *migratable* model: a suspended job may
        #: restart on any processors.  The paper's machines do not
        #: support migration (local restart is the defining constraint);
        #: this switch exists to quantify that constraint's cost in the
        #: ablation benches.
        self.migratable = migratable
        #: current simulation time: the time of the event being
        #: dispatched, or of the last one.  Only :meth:`run`'s loop sets
        #: it, so reading the clock costs no call.
        self.now = 0.0
        #: events dispatched so far, the timer ticks an untraced run
        #: skipped included
        self.dispatched = 0
        # the event calendar: a heap of (time, kind, seq, event)
        self._calendar: list[tuple[float, int, int, Event]] = []
        self._seq = count()

        self._queued: dict[int, Job] = {}
        # keyed by job_id, insertion-ordered by dispatch time: iteration
        # order is part of the schedule, so hash order must never be
        self._running: dict[int, Job] = {}
        self._finished: list[Job] = []
        self._finish_events: dict[int, Event] = {}
        #: the timer tick waiting in the calendar, if any
        self._tick: Event | None = None
        self._arrivals_pending = 0
        #: job state changes so far: arrivals, starts, suspensions,
        #: finishes and kills, whichever policy caused them.  A policy may
        #: keep what it derived from the state until this moves.
        self.transitions = 0
        self.total_suspensions = 0
        self.total_kills = 0

        # utilisation integral
        self._busy_seconds = 0.0
        self._busy_mark = 0.0
        self._window_busy = 0.0
        self._window_end = 0.0
        self._window_closed = False

    # ------------------------------------------------------------------
    # read-only views for schedulers & tests
    # ------------------------------------------------------------------
    def queued_jobs(self) -> list[Job]:
        """Queued jobs in queue-entry order (arrivals and re-queues)."""
        # repro-lint: disable=RPR001 -- int-keyed dict filled in event order; insertion order IS the queue discipline
        return list(self._queued.values())

    def running_jobs(self) -> list[Job]:
        """Currently running jobs in dispatch order (oldest first)."""
        # repro-lint: disable=RPR001 -- int-keyed dict filled at dispatch; insertion order is deterministic by construction
        return list(self._running.values())

    def running_job(self, job_id: int) -> Job | None:
        """The running job with *job_id*, or ``None`` -- O(1) lookup so
        schedulers can resolve processor owners without scanning."""
        return self._running.get(job_id)

    # ------------------------------------------------------------------
    # scheduler services
    # ------------------------------------------------------------------
    def can_start(self, job: Job) -> bool:
        """Whether *job* could start right now on free processors."""
        if job.suspended_mask:
            return self.cluster.can_allocate_mask(job.suspended_mask)
        return self.cluster.can_allocate(job.procs)

    def start_job(
        self,
        job: Job,
        procs: int | None = None,
        via: str | None = None,
    ) -> int:
        """(Re)start a queued job immediately; returns its processor mask.

        Processor sets are bitmasks (bit ``p`` set = processor ``p``).
        Resumed jobs receive exactly their original processor set (local
        preemption).  For fresh starts, the mask *procs* lets the
        scheduler place the job explicitly (the SS pseudocode schedules a
        preemptor on its victims' processors so they unpin when it
        finishes); otherwise the cluster takes the lowest free ids.
        The job records the mask as :attr:`Job.allocated_mask`.  Raises
        on any precondition violation -- a scheduler asking to start an
        unstartable job is a policy bug worth crashing on.

        *via* is a trace-only annotation of the dispatch path
        (``"backfill"``, ``"speculative"``, ``None`` for a plain start);
        it has no scheduling effect and is ignored when tracing is off.
        """
        if job.job_id not in self._queued:
            raise SimulationError(f"start_job: job {job.job_id} is not queued")
        now = self.now
        pinned = job.suspended_mask
        self._account_busy()  # close the interval at the old busy level
        if pinned:
            if procs is not None and procs != pinned:
                raise SimulationError(
                    f"start_job: job {job.job_id} must resume on its "
                    "original processors"
                )
            procs = self.cluster.allocate_mask(pinned, job.job_id)
        elif procs is not None:
            width = procs.bit_count()
            if width != job.procs:
                raise SimulationError(
                    f"start_job: job {job.job_id} given {width} "
                    f"processors, requests {job.procs}"
                )
            procs = self.cluster.allocate_mask(procs, job.job_id)
        else:
            procs = self.cluster.allocate(job.procs, job.job_id)
        occupancy = job.mark_started(now, procs)
        self._finish_events[job.job_id] = self._post(
            now + occupancy, EventKind.JOB_FINISH, job, job.epoch
        )
        del self._queued[job.job_id]
        self._running[job.job_id] = job
        self.transitions += 1
        if self.tracer is not None:
            resumed = bool(pinned) or (self.migratable and job.was_suspended)
            self.tracer.dispatch(now, job, procs, resumed, via)
        return procs

    def suspend_job(self, job: Job, preemptor: int | None = None) -> None:
        """Suspend a running job; it re-enters the queue tail.

        Charges the overhead model's suspend+resume cost as pending
        overhead (paid at the next dispatch, before useful progress).

        *preemptor* is a trace-only annotation: the id of the idle job
        on whose behalf this victim is being suspended (``None`` when
        unknown).  It has no scheduling effect.
        """
        if job.job_id not in self._running:
            raise SimulationError(f"suspend_job: job {job.job_id} is not running")
        overhead = 0.0
        if self.overhead_model is not None:
            overhead = self.overhead_model.suspend_resume_cost(job)
        released = self._release(job)
        job.mark_suspended(self.now, overhead, pinned=not self.migratable)
        self._queued[job.job_id] = job
        self.total_suspensions += 1
        if self.tracer is not None:
            self.tracer.suspend(self.now, job, released, preemptor, overhead)

    def start_speculative(
        self, job: Job, deadline: float, procs: int | None = None
    ) -> int:
        """Start *job* now, to be killed-and-requeued at *deadline*.

        Speculative backfilling (Perkovic & Keleher): the job gets a
        hole shorter than its estimate; if it completes within the hole
        (finish fires before the deadline) the speculation won, else
        the kill event discards its progress and requeues it.  Only
        fresh (never-suspended) jobs may speculate -- killing a job
        that holds a checkpoint would silently drop the checkpoint.
        """
        if job.suspended_mask:
            raise SimulationError(
                f"start_speculative: job {job.job_id} holds a suspension "
                "checkpoint and cannot be run speculatively"
            )
        if not deadline > self.now:  # also refuses NaN
            raise SimulationError("start_speculative: deadline not in the future")
        got = self.start_job(job, procs=procs, via="speculative")
        self._post(deadline, EventKind.JOB_KILL, job, job.epoch)
        return got

    # ------------------------------------------------------------------
    # the event calendar
    # ------------------------------------------------------------------
    def _post(
        self, time: float, kind: EventKind, payload: Any = None, epoch: int = 0
    ) -> Event:
        """Put an event for *payload* in the calendar at *time* and return
        it; setting its ``cancelled`` flag withdraws it."""
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(f"cannot post an event at t={time}: now is {self.now}")
        event = Event(time, payload, epoch)
        heappush(self._calendar, (time, kind, next(self._seq), event))
        return event

    def _head(self) -> Event | None:
        """The next live event, or ``None``; drops cancelled entries off
        the top of the calendar on the way."""
        calendar = self._calendar
        while calendar and calendar[0][3].cancelled:
            heappop(calendar)
        return calendar[0][3] if calendar else None

    # ------------------------------------------------------------------
    # event handlers (the loop in :meth:`run` has set :attr:`now`)
    # ------------------------------------------------------------------
    def _handle_kill(self, event: Event) -> None:
        job: Job = event.payload
        if event.epoch != job.epoch or job.state is not JobState.RUNNING:
            # the speculation won (finished) or was re-dispatched: nothing
            # changed, so the pending tick stays where it is
            return
        released = self._release(job)
        wasted = job.mark_killed(self.now)
        self._queued[job.job_id] = job
        self.total_kills += 1
        if self.tracer is not None:
            self.tracer.kill(self.now, job, released, wasted)
        self.scheduler.on_kill(job)
        self._replace_tick()

    def _handle_arrival(self, event: Event) -> None:
        now = self.now
        job: Job = event.payload
        self._arrivals_pending -= 1
        if self._arrivals_pending == 0:
            # snapshot the busy integral at the end of the arrival
            # window, before this arrival's scheduling side effects
            self._account_busy()
            self._window_busy = self._busy_seconds
            self._window_end = now
            self._window_closed = True
        job.mark_submitted(now)
        self._queued[job.job_id] = job
        self.transitions += 1
        if self.tracer is not None:
            self.tracer.arrival(now, job)
        self.scheduler.on_arrival(job)
        self._replace_tick()

    def _handle_finish(self, event: Event) -> None:
        job: Job = event.payload
        if event.epoch != job.epoch or job.state is not JobState.RUNNING:
            # stale: the job was suspended after this was posted
            return
        del self._finish_events[job.job_id]  # dispatched, so not cancelled
        self._release(job)
        job.mark_finished(self.now)
        self._finished.append(job)
        if self.tracer is not None:
            self.tracer.finish(self.now, job)
        self.scheduler.on_finish(job)
        self._replace_tick()

    def _handle_timer(self, event: Event) -> None:
        self._tick = None
        if self._work_remains():
            self.scheduler.on_timer()
            interval = self.scheduler.timer_interval
            if interval and self._work_remains():
                self._place_tick(self.now + interval, interval)

    def _replace_tick(self) -> None:
        """Right after an arrival, finish or kill: move the pending tick
        past the ticks the scheduler's new bound proves idle.

        Leaves it alone while another event comes first (that event
        re-places it in turn) or no work remains, and asks the bound
        before touching the calendar: a scheduler without one (``-inf``)
        causes no churn.
        """
        tick = self._tick
        interval = self.scheduler.timer_interval
        if tick is None or interval is None or self.tracer is not None:
            return
        if self._head() is not tick or not self._work_remains():
            return
        bound = self.scheduler.quiet_until() - interval
        if bound > tick.time:
            tick.cancelled = True
            self._place_tick(tick.time, interval, bound)

    def _place_tick(
        self, tick: float, interval: float, bound: float | None = None
    ) -> None:
        """Put the pending timer tick in the calendar, at chain tick
        *tick* or a later one.

        Untraced runs move it to the first tick of the chain at or after
        both *bound* (``scheduler.quiet_until() - interval``, asked here
        unless given) and the next calendar event: handlers run only at
        events, so each tick before both would be a pass the scheduler's
        bound proves idle.  The jumped ticks count in :attr:`dispatched`,
        under the same :data:`MAX_EVENTS` budget.  Keeping the last tick
        before the bound absorbs float error in it.  Tick times advance
        by repeated addition, so every tick placed is the float the
        every-tick chain would reach.
        """
        if self.tracer is None:
            head = self._head()
            if head is not None and tick < head.time:
                if bound is None:
                    bound = self.scheduler.quiet_until() - interval
                horizon = min(bound, head.time)
                skipped = 0
                while tick < horizon:
                    tick += interval
                    skipped += 1
                self.dispatched += skipped
                if self.dispatched > MAX_EVENTS:
                    raise _budget_exhausted()
        self._tick = self._post(tick, EventKind.TIMER)

    def _work_remains(self) -> bool:
        return bool(self._queued or self._running or self._arrivals_pending > 0)

    def _release(self, job: Job) -> int:
        """Take a running job off the machine, for a suspension, kill or
        finish: withdraw its pending finish event, close the busy
        interval at the old level and free its processors.  Returns the
        freed mask.
        """
        finish = self._finish_events.pop(job.job_id, None)
        if finish is not None:
            finish.cancelled = True
        self._account_busy()
        mask = job.allocated_mask
        self.cluster.release(mask, job.job_id)
        del self._running[job.job_id]
        self.transitions += 1
        return mask

    def _account_busy(self) -> None:
        now = self.now
        self._busy_seconds += self.cluster.busy_count * (now - self._busy_mark)
        self._busy_mark = now

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, jobs: list[Job]) -> SimulationResult:
        """Simulate *jobs* to completion and return the result record.

        *jobs* must be fresh (unsimulated), each job id listed once; each
        becomes an arrival event.  Raises :class:`SimulationError` when
        any job fails to finish -- starvation or a scheduler deadlock.

        The loop here is the one dispatch path: it pops the calendar,
        skips cancelled entries, sets :attr:`now`, counts the event
        against :data:`MAX_EVENTS` and calls the handler for its kind.
        No other Python call is made per event.
        """
        if not jobs:
            raise ValueError("empty workload")
        listed: set[int] = set()
        for job in jobs:
            if job.state is not JobState.PENDING:
                raise ValueError(
                    f"job {job.job_id} is {job.state.value}, need a fresh copy "
                    "(use repro.workload.job.fresh_copies)"
                )
            # the books are keyed by job id: a second arrival of an id
            # would submit a job that is already in the system
            if job.job_id in listed:
                raise ValueError(f"job {job.job_id} is listed twice")
            listed.add(job.job_id)
        self.scheduler.bind(self)
        if self.tracer is not None:
            self.tracer.run_begin(
                self.now,
                self.scheduler.name,
                self.scheduler.config(),
                self.cluster.n_procs,
                len(jobs),
            )
        self.scheduler.on_begin()
        self._arrivals_pending = len(jobs)
        for job in jobs:
            self._post(job.submit_time, EventKind.JOB_ARRIVAL, job)
        interval = self.scheduler.timer_interval
        if interval:
            self._place_tick(min(j.submit_time for j in jobs) + interval, interval)

        calendar = self._calendar
        # indexed by EventKind
        handlers = (
            self._handle_finish,
            self._handle_arrival,
            self._handle_timer,
            self._handle_kill,
        )
        budget = MAX_EVENTS
        while calendar:
            time, kind, _, event = heappop(calendar)
            if event.cancelled:
                continue
            self.now = time
            self.dispatched += 1
            if self.dispatched > budget:
                raise _budget_exhausted()
            handlers[kind](event)
        self._account_busy()

        if len(self._finished) != len(jobs):
            unfinished = sorted(
                {j.job_id for j in jobs} - {j.job_id for j in self._finished}
            )
            raise SimulationError(
                f"{len(unfinished)} job(s) never finished "
                f"(first few ids: {unfinished[:10]}) -- scheduler "
                f"{self.scheduler.name!r} starved or deadlocked them"
            )
        makespan = max((j.finish_time or 0.0) for j in self._finished) if self._finished else 0.0
        if self.tracer is not None:
            self.tracer.run_end(
                self.now,
                finished=len(self._finished),
                total_suspensions=self.total_suspensions,
                total_kills=self.total_kills,
                busy_proc_seconds=self._busy_seconds,
                makespan=makespan,
                events_dispatched=self.dispatched,
            )
        return SimulationResult(
            jobs=list(self._finished),
            n_procs=self.cluster.n_procs,
            scheduler=self.scheduler.name,
            busy_proc_seconds=self._busy_seconds,
            makespan=makespan,
            total_suspensions=self.total_suspensions,
            events_dispatched=self.dispatched,
            total_kills=self.total_kills,
            last_arrival=self._window_end,
            busy_in_arrival_window=self._window_busy,
            arrival_window_closed=self._window_closed,
        )
