"""Tunable Selective Suspension (TSS) -- section IV-E.

SS fixes the *average* slowdowns but can still let an unlucky long job
be suspended repeatedly, blowing up the worst case.  TSS bounds that
variance: each job carries a preemption *limit*, and once its priority
(xfactor) exceeds the limit the job can no longer be suspended.  The
paper sets the limit to ``1.5 x (average slowdown of the job's
category)``, so a job that has already waited past its category's norm
is protected from further disruption.

Where does "average slowdown of the category" come from?  The paper
does not say.  We support both defensible readings:

* **calibrated** (default): limits computed from a prior NS baseline run
  over the same trace (:func:`limits_from_result`) -- deterministic and
  closest to "the known behaviour of this workload";
* **online**: limits track the running average slowdown of jobs finished
  *so far in this run*, per category (:class:`CategoryLimits` with no
  table, ``online=True``); categories with no completions yet fall back
  to the overall running average, then to "no protection".

The ablation bench compares the two; they agree to within a few percent
on every reported metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.priorities import PreemptionCriteria
from repro.metrics.slowdown import bounded_slowdown
from repro.schedulers.policy import (
    GreedyBackfill,
    NoReservations,
    PolicyKernel,
    SuspensionPriorityOrder,
    SweepPreemption,
)
from repro.sim.driver import SimulationResult
from repro.workload.categories import SixteenWayCategory, classify_sixteen_way
from repro.workload.job import Job


@dataclass
class CategoryLimits:
    """Per-category preemption limits for TSS.

    Parameters
    ----------
    table:
        category -> limit on the job xfactor; above it, no preemption.
        Missing categories mean "never protected" unless online mode
        supplies a value.
    online:
        If true, the table is updated as jobs finish: the limit becomes
        ``margin x`` the category's running average bounded slowdown.
        An online table starts empty (a given one is rejected, since
        :meth:`to_config` cannot carry it) and :meth:`reset` empties it
        again at every run start.
    margin:
        The paper's 1.5 multiplier.
    """

    table: dict[SixteenWayCategory, float] = field(default_factory=dict)
    online: bool = False
    margin: float = 1.5

    # online accumulators
    _sums: dict[SixteenWayCategory, float] = field(default_factory=dict)
    _counts: dict[SixteenWayCategory, int] = field(default_factory=dict)
    _overall_sum: float = 0.0
    _overall_count: int = 0

    def __post_init__(self) -> None:
        if self.online and self.table:
            raise ValueError("online limits learn their table; pass table or online, not both")
        # canonical types, so ``to_config()`` emits 2.0 for a margin of 2
        self.margin = float(self.margin)
        self.table = {cat: float(limit) for cat, limit in sorted(self.table.items())}

    def limit_for(self, job: Job) -> float:
        """The xfactor ceiling protecting *job* from preemption."""
        cat = classify_sixteen_way(job)
        if cat in self.table:
            return self.table[cat]
        if self.online and self._overall_count:
            return self.margin * (self._overall_sum / self._overall_count)
        return float("inf")  # no information: never protected

    def to_config(self) -> dict[str, object]:
        """JSON-stable description (see :meth:`Scheduler.config`).

        Online limits serialise *without* their accumulated table: the
        table is run state, rebuilt from scratch every simulation, so
        two online-mode schedulers with equal margins behave
        identically on any workload.
        """
        if self.online:
            return {"mode": "online", "margin": self.margin}
        return {
            "mode": "calibrated",
            "margin": self.margin,
            "table": {
                f"{run}|{width}": limit
                for (run, width), limit in sorted(self.table.items())
            },
        }

    @classmethod
    def from_config(cls, config: object) -> "CategoryLimits":
        """Rebuild limits from :meth:`to_config` output.

        Raises :class:`ValueError` on anything :meth:`to_config` cannot
        emit: a non-mapping, an unknown mode or key, a malformed table.
        """
        if not isinstance(config, Mapping):
            raise ValueError(f"expected a mapping, got {config!r}")
        mode = config.get("mode", "calibrated")
        if mode not in ("online", "calibrated"):
            raise ValueError(f"unknown mode {mode!r}")
        allowed = ("mode", "margin") if mode == "online" else ("mode", "margin", "table")
        for key in config:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} for mode {mode!r}")
        margin = float(config.get("margin", 1.5))
        if mode == "online":
            return cls(online=True, margin=margin)
        raw = config.get("table", {})
        if not isinstance(raw, Mapping):
            raise ValueError(f"table must be a mapping, got {raw!r}")
        table: dict[SixteenWayCategory, float] = {}
        for key, limit in sorted(raw.items()):
            run, sep, width = str(key).partition("|")
            if not sep:
                raise ValueError(f"table key {key!r} is not 'run|width'")
            table[(run, width)] = float(limit)
        return cls(table=table, margin=margin)

    def reset(self) -> None:
        """Forget the online averages learned so far (no-op otherwise)."""
        if not self.online:
            return
        self.table.clear()
        self._sums.clear()
        self._counts.clear()
        self._overall_sum = 0.0
        self._overall_count = 0

    def observe(self, job: Job) -> None:
        """Fold a finished job into the online averages (no-op otherwise)."""
        if not self.online:
            return
        sd = bounded_slowdown(job)
        cat = classify_sixteen_way(job)
        self._sums[cat] = self._sums.get(cat, 0.0) + sd
        self._counts[cat] = self._counts.get(cat, 0) + 1
        self._overall_sum += sd
        self._overall_count += 1
        self.table[cat] = self.margin * (self._sums[cat] / self._counts[cat])


def limits_from_result(
    baseline: SimulationResult, margin: float = 1.5
) -> CategoryLimits:
    """Calibrated limits: ``margin x`` per-category average slowdown of *baseline*.

    The baseline is normally an NS (EASY backfilling) run over the same
    trace -- the scheme's "known behaviour of this workload".
    """
    sums: dict[SixteenWayCategory, float] = {}
    counts: dict[SixteenWayCategory, int] = {}
    for job in baseline.jobs:
        cat = classify_sixteen_way(job)
        sums[cat] = sums.get(cat, 0.0) + bounded_slowdown(job)
        counts[cat] = counts.get(cat, 0) + 1
    table = {cat: margin * sums[cat] / counts[cat] for cat in sums}
    return CategoryLimits(table=table, margin=margin)


def TunableSelectiveSuspensionScheduler(
    suspension_factor: float = 2.0,
    limits: CategoryLimits | None = None,
    preemption_interval: float = 60.0,
    width_rule: bool = True,
) -> PolicyKernel:
    """TSS: SS plus per-category preemption limits (section IV-E).

    The same composition as SS, with the sweep engine's ``limits``
    parameter carrying the category table -- what used to be the
    ``victim_preemptable`` subclass override.  :class:`CategoryLimits`
    satisfies the :class:`repro.schedulers.policy.PreemptionLimits`
    protocol structurally.  Without *limits*, the limits are online.
    """
    limits = limits if limits is not None else CategoryLimits(online=True)
    mode = "online" if limits.online else "calibrated"
    return PolicyKernel(
        scheme_id="tss",
        display_name=f"TSS(SF={suspension_factor:g},{mode})",
        queue=SuspensionPriorityOrder(),
        reservation=NoReservations(),
        backfill=GreedyBackfill(),
        preemption=SweepPreemption(
            PreemptionCriteria(
                suspension_factor=suspension_factor, width_rule=width_rule
            ),
            preemption_interval=preemption_interval,
            limits=limits,
        ),
    )
