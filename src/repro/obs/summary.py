"""Trace replay: rebuild a run from its event stream alone.

One generator, :func:`replay_events`, walks an event stream (dicts from
:func:`~repro.obs.recorder.read_trace` or
:meth:`~repro.obs.recorder.InMemoryRecorder.dicts`) and pairs every
release with the dispatch it ends.  It yields each event with the
:class:`OccupancyInterval` that event closed and raises ``ValueError``
on a structurally broken stream.  Two folds sit on it:

* :func:`summarize_trace` -- per-job suspension counts, occupancy and
  bounded slowdown; run totals (dispatches, suspensions, kills,
  finishes, backfill fills, preemption grants, denials and per-victim
  rejections by cause); the busy-processor integral, makespan,
  utilisation and mean bounded slowdown; and one :class:`StateSample`
  of queue and machine per instant at which a lifecycle event happened;
* :func:`repro.analysis.timeline.occupancy_intervals` -- the closed
  intervals, sorted by start.

The replay shares no code with the driver's own accounting, so it
serves as a second independent witness next to :mod:`repro.sim.audit`:
if the driver's totals and the replayed trace agree, either both are
right or the same bug corrupted two disjoint bookkeeping paths.  The
consistency tests (``tests/test_obs.py``) assert exactly this
agreement for SS, TSS, IS and NS runs, and the ``run_end`` trailer the
driver writes is cross-checked field by field
(:attr:`TraceSummary.matches_run_end`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.counters import GridCounters

#: Eq. 1's bounded-slowdown threshold, restated here on purpose: the
#: replay must not import the metrics package it is meant to witness.
_SLOWDOWN_THRESHOLD = 10.0

#: Event types that put a job onto processors / take it off them.
_DISPATCH_TYPES = ("start", "backfill_start", "resume")
_RELEASE_TYPES = ("suspend", "kill", "finish")
#: Lifecycle event types: each must name its job by an int id.
_JOB_TYPES = ("arrival", *_DISPATCH_TYPES, *_RELEASE_TYPES)


@dataclass(frozen=True)
class OccupancyInterval:
    """One contiguous run period of one job.

    ``end_type`` is the release event that closed the interval:
    ``"finish"``, ``"suspend"`` or ``"kill"``.  ``via`` is the dispatch
    annotation of the period's start (``"backfill"``, ``"speculative"``
    or ``None``) and ``resumed`` whether it began as a resume.
    """

    job_id: int
    start: float
    end: float
    width: int
    end_type: str
    via: str | None = None
    resumed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def area(self) -> float:
        """Processor-seconds of occupancy (width x duration)."""
        return self.width * self.duration


@dataclass(frozen=True)
class StateSample:
    """Queue and machine after the last lifecycle event of one instant.

    ``queued_suspended`` counts a job from its ``suspend`` to its next
    dispatch, ``queued_fresh`` from its ``arrival`` or ``kill`` to its
    next dispatch.  ``free_procs`` is ``run_begin``'s ``n_procs`` less
    ``busy_procs``.
    """

    time: float
    running: int
    queued_fresh: int
    queued_suspended: int
    busy_procs: int
    free_procs: int

    @property
    def queued(self) -> int:
        return self.queued_fresh + self.queued_suspended


def replay_events(
    events: Iterable[Mapping[str, Any]],
) -> Iterator[tuple[Mapping[str, Any], OccupancyInterval | None]]:
    """Yield ``(event, closed)`` for each of *events*, in stream order.

    *closed* is the :class:`OccupancyInterval` that a ``suspend``,
    ``kill`` or ``finish`` ended, and ``None`` for every other event.
    Raises ``ValueError`` on a structurally broken stream: a lifecycle
    event whose job id is missing or not an int, a dispatch of a job
    already on processors, a release of a job that is not, or a stream
    that ends with jobs still on processors.  A trace that does not
    replay is evidence of a bug, not something to paper over.
    """
    active: dict[int, tuple[float, int, str | None, bool]] = {}
    for ev in events:
        etype = ev.get("type")
        closed: OccupancyInterval | None = None
        if etype in _JOB_TYPES:
            t = float(ev.get("t", 0.0))
            jid = ev.get("job")
            if not isinstance(jid, int) or isinstance(jid, bool):
                raise ValueError(f"{etype} event at t={t} has job id {jid!r}, not an int")
            if etype in _DISPATCH_TYPES:
                if jid in active:
                    raise ValueError(f"job {jid} dispatched twice without release (t={t})")
                active[jid] = (t, int(ev.get("width", 0)), ev.get("via"), etype == "resume")
            elif etype in _RELEASE_TYPES:
                period = active.pop(jid, None)
                if period is None:
                    raise ValueError(f"{etype} for job {jid} which is not running (t={t})")
                t0, width, via, resumed = period
                closed = OccupancyInterval(jid, t0, t, width, str(etype), via, resumed)
        yield ev, closed
    if active:
        raise ValueError(
            f"trace ended with {len(active)} job(s) still on processors: "
            f"{sorted(active)[:10]}"
        )


@dataclass
class JobTraceStats:
    """Everything the replay knows about one job."""

    job_id: int
    submit: float = 0.0
    run_time: float = 0.0
    estimate: float = 0.0
    procs: int = 0
    finish: float | None = None
    suspensions: int = 0
    kills: int = 0
    dispatches: int = 0
    #: processor-seconds of occupancy reconstructed from this job's
    #: dispatch/release intervals (includes overhead and wasted time)
    busy: float = 0.0

    @property
    def turnaround(self) -> float | None:
        return None if self.finish is None else self.finish - self.submit

    @property
    def slowdown(self) -> float | None:
        """Bounded slowdown (eq. 1) recomputed from trace timestamps."""
        ta = self.turnaround
        if ta is None:
            return None
        return max(ta / max(self.run_time, _SLOWDOWN_THRESHOLD), 1.0)


@dataclass
class TraceSummary:
    """The replayed run, plus the cross-check against ``run_end``."""

    schema: int = 0
    scheduler: str = "?"
    n_procs: int = 0
    n_jobs: int = 0
    events: int = 0
    #: fresh dispatches (``start`` and ``backfill_start`` events)
    starts: int = 0
    #: dispatches of suspended jobs (``resume`` events)
    resumes: int = 0
    finished: int = 0
    suspensions: int = 0
    kills: int = 0
    #: ``backfill_start`` events only (a subset of :attr:`starts`)
    backfill_fills: int = 0
    decisions: int = 0
    #: ``preempt`` and ``timeslice_grant`` decisions
    preempt_grants: int = 0
    #: ``preempt_denied`` decisions by their one primary ``cause``
    preempt_denials: dict[str, int] = field(default_factory=dict)
    #: non-``candidate`` verdicts across every decision's ``victims``
    #: list, by verdict (one denial may reject several victims)
    victim_rejections: dict[str, int] = field(default_factory=dict)
    makespan: float = 0.0
    busy_proc_seconds: float = 0.0
    per_job: dict[int, JobTraceStats] = field(default_factory=dict)
    #: one sample per instant at which a lifecycle event happened, in
    #: time order, taken after that instant's last event
    states: list[StateSample] = field(default_factory=list)
    #: the raw ``run_end`` trailer, if the trace has one
    run_end: dict[str, Any] | None = None

    @property
    def utilization(self) -> float:
        """busy / (P x makespan), replayed -- driver-free."""
        if self.n_procs <= 0 or self.makespan <= 0:
            return 0.0
        return self.busy_proc_seconds / (self.n_procs * self.makespan)

    @property
    def mean_slowdown(self) -> float:
        """Mean bounded slowdown over finished jobs, in finish order."""
        values = [
            s.slowdown
            for s in sorted(self.per_job.values(), key=lambda s: (s.finish or 0.0))
            if s.slowdown is not None
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)

    @property
    def matches_run_end(self) -> bool | None:
        """Replay vs the driver's ``run_end`` claims (None: no trailer).

        True when suspension count, kill count, finished-job count,
        makespan and the busy integral all agree (floats to a 1e-6
        relative tolerance) -- the "second witness" verdict.
        """
        trailer = self.run_end
        if trailer is None:
            return None

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= max(1e-6, 1e-9 * max(abs(a), abs(b)))

        return (
            self.suspensions == trailer.get("total_suspensions")
            and self.kills == trailer.get("total_kills")
            and self.finished == trailer.get("finished")
            and close(self.makespan, float(trailer.get("makespan", 0.0)))
            and close(
                self.busy_proc_seconds,
                float(trailer.get("busy_proc_seconds", 0.0)),
            )
        )


def summarize_trace(events: Iterable[Mapping[str, Any]]) -> TraceSummary:
    """Fold :func:`replay_events` over *events* into a :class:`TraceSummary`.

    Raises ``ValueError`` on structurally broken streams (see
    :func:`replay_events`) and on a schema newer than this reader.
    """
    s = TraceSummary()
    fresh: set[int] = set()  # queued jobs that arrived or were killed
    suspended: set[int] = set()  # queued jobs that were suspended
    running = busy = 0

    for ev, closed in replay_events(events):
        s.events += 1
        etype = ev.get("type")
        if etype == "decision":
            s.decisions += 1
            action = ev.get("action")
            if action in ("preempt", "timeslice_grant"):
                s.preempt_grants += 1
            elif action == "preempt_denied":
                cause = str(ev.get("cause", "insufficient"))
                s.preempt_denials[cause] = s.preempt_denials.get(cause, 0) + 1
            for v in ev.get("victims", ()):
                verdict = v.get("verdict")
                if verdict and verdict != "candidate":
                    key = str(verdict)
                    s.victim_rejections[key] = s.victim_rejections.get(key, 0) + 1
            continue
        if etype == "run_begin":
            schema = int(ev.get("schema", 0))
            if schema > 1:
                raise ValueError(f"trace schema {schema} is newer than this reader")
            s.schema = schema
            s.scheduler = str(ev.get("scheduler", "?"))
            s.n_procs = int(ev.get("n_procs", 0))
            s.n_jobs = int(ev.get("n_jobs", 0))
            continue
        if etype == "run_end":
            s.run_end = {k: v for k, v in ev.items() if k not in ("t", "type", "job")}
            continue
        if etype not in _JOB_TYPES:
            continue

        t = float(ev.get("t", 0.0))
        jid: int = ev["job"]
        job = s.per_job.get(jid)
        if etype == "arrival":
            s.per_job[jid] = JobTraceStats(
                job_id=jid,
                submit=t,
                run_time=float(ev.get("run_time", 0.0)),
                estimate=float(ev.get("estimate", 0.0)),
                procs=int(ev.get("procs", 0)),
            )
            fresh.add(jid)
        elif closed is None:  # a dispatch
            fresh.discard(jid)
            suspended.discard(jid)
            running += 1
            busy += int(ev.get("width", 0))
            if etype == "resume":
                s.resumes += 1
            else:
                s.starts += 1
                if etype == "backfill_start":
                    s.backfill_fills += 1
            if job is not None:
                job.dispatches += 1
        else:  # a release
            running -= 1
            busy -= closed.width
            s.busy_proc_seconds += closed.area
            if job is not None:
                job.busy += closed.area
            if etype == "suspend":
                s.suspensions += 1
                suspended.add(jid)
                if job is not None:
                    job.suspensions += 1
            elif etype == "kill":
                s.kills += 1
                fresh.add(jid)
                if job is not None:
                    job.kills += 1
            else:  # finish
                s.finished += 1
                s.makespan = max(s.makespan, t)
                if job is not None:
                    job.finish = t

        state = StateSample(t, running, len(fresh), len(suspended), busy, s.n_procs - busy)
        # events arrive in time order, so >= means "same instant"
        if s.states and s.states[-1].time >= t:
            s.states[-1] = state
        else:
            s.states.append(state)
    return s


def format_summary(s: TraceSummary) -> str:
    """Human-readable rendering shared by ``repro-sched trace``.

    ``trace record`` and ``trace summarize`` both print this block, so
    byte-equality of their output *is* the round-trip check.
    """
    lines = [
        f"trace summary: {s.scheduler} on {s.n_procs} processors",
        f"  events             {s.events}",
        f"  jobs               {s.finished} finished / {s.n_jobs} submitted",
        f"  suspensions        {s.suspensions}",
        f"  kills              {s.kills}",
        f"  backfill fills     {s.backfill_fills}",
        f"  decisions          {s.decisions} "
        f"({s.preempt_grants} preemptions granted)",
    ]
    if s.preempt_denials:
        causes = ", ".join(
            f"{cause}={n}" for cause, n in sorted(s.preempt_denials.items())
        )
        lines.append(f"  denials by cause   {causes}")
    lines += [
        f"  makespan           {s.makespan:.6f} s",
        f"  busy integral      {s.busy_proc_seconds:.6f} proc-s",
        f"  utilization        {s.utilization:.9f}",
        f"  mean slowdown      {s.mean_slowdown:.9f}",
    ]
    verdict = s.matches_run_end
    if verdict is None:
        lines.append("  run_end check      (no trailer in trace)")
    else:
        lines.append(
            "  run_end check      "
            + ("consistent with driver totals" if verdict else "MISMATCH vs driver totals")
        )
    return "\n".join(lines)


def format_grid_counters(counters: GridCounters) -> str:
    """One-line report of what the grid's fault-recovery machinery did.

    Meant for the CLI / bench logs after a parallel grid: silent runs
    print nothing (callers gate on ``if counters:``), disturbed runs get
    an explicit record of every retry, timeout, pool respawn,
    degradation and cache quarantine.
    """
    fields = counters.as_dict()
    parts = " ".join(f"{name}={value}" for name, value in fields.items())
    return f"grid recovery: {parts}"
