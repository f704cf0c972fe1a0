"""The denial-cause vocabulary and the grid's fault-recovery tallies.

* :data:`DENIAL_CAUSES` -- the ``cause`` vocabulary of denied
  preemption decisions (and of non-candidate victim verdicts), which
  :func:`repro.obs.summary.summarize_trace` folds into its
  ``preempt_denials`` and ``victim_rejections`` counts;
* :class:`GridCounters` -- what a grid's fault-recovery machinery did.

A single simulation keeps no counters of its own: its counts and
states are folded from its trace by :mod:`repro.obs.summary`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: Denial-cause vocabulary (the ``cause`` field of ``decision`` events
#: and the keys of :attr:`repro.obs.summary.TraceSummary.preempt_denials`).
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
    #: corrupt cache entries quarantined during the cache lookup
    cache_quarantines: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def __bool__(self) -> bool:
        """True when any recovery machinery fired."""
        return any(asdict(self).values())
