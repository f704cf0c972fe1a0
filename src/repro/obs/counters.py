"""Per-run trace counters.

:class:`TraceCounters` is the cheap, always-consistent aggregate view
of a traced run: lifecycle tallies, preemption denials by cause, and a
compact queue-depth time series.  The :class:`~repro.obs.events.Tracer`
updates it as events are emitted, so the counters agree with the event
stream *by construction* -- any recorder implementation (null, memory,
JSONL, user-supplied) gets the same numbers for free.

The counters end up on
:attr:`repro.sim.driver.SimulationResult.counters` (``None`` for
untraced runs), which is what the consistency tests compare against
both the driver's own totals and an independent replay of the trace
(see :mod:`repro.obs.summary`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: Denial-cause vocabulary (the ``cause`` field of ``decision`` events
#: and the keys of :attr:`TraceCounters.preempt_denials`).
DENIAL_CAUSES = (
    "insufficient",  # eligible victims do not cover the request
    "sf_threshold",  # idle xfactor below SF x victim xfactor
    "width_rule",  # victim more than twice the idle job's width
    "category_limit",  # TSS: victim past its category's preemption limit
    "protected",  # IS: victim inside its timeslice protection window
    "priority",  # IS: victim's instantaneous xfactor not below idle's
    "reservation_guard",  # hybrids: job would overrun the head's anchor
)


@dataclass
class TraceCounters:
    """Aggregate counters over one traced run.

    All fields are derived purely from emitted trace events; see
    ``docs/TRACING.md`` for the exact mapping.
    """

    #: jobs that entered the queue
    arrivals: int = 0
    #: fresh dispatches (``start`` + ``backfill_start`` events)
    starts: int = 0
    #: dispatches of previously suspended jobs (``resume`` events)
    resumes: int = 0
    #: ``backfill_start`` events only (subset of :attr:`starts`)
    backfill_fills: int = 0
    #: ``suspend`` events
    suspensions: int = 0
    #: speculative runs killed at their deadline (``kill`` events)
    kills: int = 0
    #: ``finish`` events
    finishes: int = 0
    #: preemption decisions attempted (granted + denied)
    preempt_attempts: int = 0
    #: decisions that suspended at least one victim
    preempt_grants: int = 0
    #: denied decisions by primary cause (see :data:`DENIAL_CAUSES`)
    preempt_denials: dict[str, int] = field(default_factory=dict)
    #: per-victim rejections by cause, across all decisions (a single
    #: denied decision may reject several victims for several causes)
    victim_rejections: dict[str, int] = field(default_factory=dict)
    #: ``(time, queue length)`` samples, appended whenever the queue
    #: length changes (arrival, dispatch, suspension, kill)
    queue_depth: list[tuple[float, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def note_queue_depth(self, t: float, depth: int) -> None:
        """Record a queue-length change at time *t* (coalesces same-t)."""
        series = self.queue_depth
        if series and series[-1][0] == t:
            series[-1] = (t, depth)
        else:
            series.append((t, depth))

    def count_denial(self, cause: str) -> None:
        self.preempt_denials[cause] = self.preempt_denials.get(cause, 0) + 1

    def count_rejection(self, cause: str) -> None:
        self.victim_rejections[cause] = self.victim_rejections.get(cause, 0) + 1

    @property
    def max_queue_depth(self) -> int:
        """Largest queue length ever sampled (0 for an empty series)."""
        return max((d for _, d in self.queue_depth), default=0)


@dataclass
class GridCounters:
    """Fault-recovery tallies for one grid execution.

    Maintained by :func:`repro.experiments.parallel.run_grid` (not by
    the tracer -- these count *executor* events, which exist outside any
    single simulation) and surfaced on
    :attr:`repro.experiments.parallel.GridOutcome.counters` so summaries
    can report what the fault-tolerance machinery actually did.  The
    instance is falsy on an undisturbed run.
    """

    #: cells resubmitted after a failed attempt (crash or timeout)
    retries: int = 0
    #: attempts abandoned because they exceeded the per-cell timeout
    timeouts: int = 0
    #: process pools rebuilt (after ``BrokenProcessPool`` or a hung worker)
    pool_respawns: int = 0
    #: cells executed in-process after the pool was given up on
    degraded_cells: int = 0
    #: corrupt cache entries quarantined during the cache probe
    cache_quarantines: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def __bool__(self) -> bool:
        """True when any recovery machinery fired."""
        return any(asdict(self).values())
