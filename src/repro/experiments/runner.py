"""Running policies over workloads.

:func:`simulate` is the one-call public entry point: fresh cluster,
fresh job copies, one scheduler, one result.  :func:`compare_schemes`
reproduces the paper's standard comparison -- NS (EASY backfilling), IS,
and SS at several suspension factors, or TSS variants -- over a single
trace, reusing a calibration run where TSS needs one.  It runs through
the grid executor (:func:`repro.experiments.parallel.run_grid`):
serially in-process by default, or over a process pool, a result cache
and per-scheme decision traces on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.cluster.machine import Cluster
from repro.core.immediate_service import ImmediateServiceScheduler
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import (
    TunableSelectiveSuspensionScheduler,
    limits_from_result,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.sim.driver import (
    SchedulingSimulation,
    SimulationResult,
    SuspensionOverheadModel,
)
from repro.workload.job import Job, fresh_copies

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import GridPolicy
    from repro.obs.counters import GridCounters
    from repro.obs.recorder import TraceRecorder

__all__ = [
    "SchemeSpec",
    "SuspensionOverheadModel",
    "compare_schemes",
    "hybrid_schemes",
    "simulate",
    "standard_schemes",
    "tuned_schemes",
]


def simulate(
    jobs: list[Job],
    scheduler: Scheduler,
    n_procs: int,
    overhead_model: SuspensionOverheadModel | None = None,
    copy_jobs: bool = True,
    migratable: bool = False,
    recorder: "TraceRecorder | None" = None,
) -> SimulationResult:
    """Run *scheduler* over *jobs* on an ``n_procs`` machine.

    Parameters
    ----------
    jobs:
        The workload.  Copied by default so the list stays reusable.
    scheduler:
        Any :class:`~repro.schedulers.base.Scheduler`; a given scheduler
        instance must not be reused across runs (it carries bindings).
    n_procs:
        Machine size; every job must fit (``procs <= n_procs``).
    overhead_model:
        Optional suspension-overhead pricing (e.g.
        :class:`~repro.core.overhead.DiskSwapOverheadModel`).
    copy_jobs:
        Set false to simulate the given objects in place (saves a copy
        when the caller already made one).
    migratable:
        Allow suspended jobs to restart on any processors (Parsons &
        Sevcik's migratable model; off in every paper experiment --
        local restart is the paper's defining constraint).
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving
        the run's decision-trace event stream (see ``docs/TRACING.md``).
        ``None`` (the default) keeps the run untraced at zero cost.
        The caller owns the recorder's lifecycle -- close a
        :class:`~repro.obs.recorder.JsonlRecorder` after the run (or
        use it as a context manager).
    """
    too_wide = [j.job_id for j in jobs if j.procs > n_procs]
    if too_wide:
        raise ValueError(
            f"jobs {too_wide[:5]} request more than {n_procs} processors "
            "and could never run; filter the trace first"
        )
    work = fresh_copies(jobs) if copy_jobs else jobs
    driver = SchedulingSimulation(
        cluster=Cluster(n_procs),
        scheduler=scheduler,
        overhead_model=overhead_model,
        migratable=migratable,
        recorder=recorder,
    )
    return driver.run(work)


@dataclass(frozen=True)
class SchemeSpec:
    """A named scheduler factory for comparison runs.

    Factories (not instances) because scheduler objects are single-use.
    """

    label: str
    factory: Callable[[], Scheduler]
    #: factory variant receiving the NS baseline result (calibrated TSS)
    factory_with_baseline: Callable[[SimulationResult], Scheduler] | None = None

    @property
    def needs_baseline(self) -> bool:
        """Whether :meth:`build` needs the NS baseline run."""
        return self.factory_with_baseline is not None

    def build(self, baseline: SimulationResult | None = None) -> Scheduler:
        """A fresh scheduler; calibrated specs draw their limits from
        *baseline*, the NS (EASY) run over the same trace."""
        if self.factory_with_baseline is None:
            return self.factory()
        if baseline is None:
            raise ValueError(f"scheme {self.label!r} needs an NS baseline run")
        return self.factory_with_baseline(baseline)


def standard_schemes(suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0)) -> list[SchemeSpec]:
    """The paper's section IV comparison set: SS at each SF, NS, IS."""
    specs = [
        SchemeSpec(
            label=f"SF = {sf:g}",
            factory=(lambda sf=sf: SelectiveSuspensionScheduler(suspension_factor=sf)),
        )
        for sf in suspension_factors
    ]
    specs.append(SchemeSpec(label="No Suspension", factory=EasyBackfillScheduler))
    specs.append(SchemeSpec(label="IS", factory=ImmediateServiceScheduler))
    return specs


def tuned_schemes(
    suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0),
) -> list[SchemeSpec]:
    """The section V comparison set: TSS (calibrated) at each SF, NS, IS."""
    specs = [
        SchemeSpec(
            label=f"SF = {sf:g} Tuned",
            factory=(lambda sf=sf: TunableSelectiveSuspensionScheduler(suspension_factor=sf)),
            factory_with_baseline=(
                lambda baseline, sf=sf: TunableSelectiveSuspensionScheduler(
                    suspension_factor=sf, limits=limits_from_result(baseline)
                )
            ),
        )
        for sf in suspension_factors
    ]
    specs.append(SchemeSpec(label="No Suspension", factory=EasyBackfillScheduler))
    specs.append(SchemeSpec(label="IS", factory=ImmediateServiceScheduler))
    return specs


def hybrid_schemes(suspension_factor: float = 2.0) -> list[SchemeSpec]:
    """The policy-kernel cross products next to their parents.

    Pairs each hybrid (``ss-easy``, ``tss-conservative``) with the pure
    schemes it composes, so one comparison run shows what the guarantee
    layer costs and what the preemption layer buys (see DESIGN.md
    section 12).
    """
    from repro.schedulers.hybrids import (
        SuspensionWithHeadGuarantee,
        TunableSuspensionWithGuarantees,
    )

    sf = suspension_factor
    return [
        SchemeSpec(
            label=f"SS (SF = {sf:g})",
            factory=(lambda: SelectiveSuspensionScheduler(suspension_factor=sf)),
        ),
        SchemeSpec(
            label=f"SS+EASY (SF = {sf:g})",
            factory=(lambda: SuspensionWithHeadGuarantee(suspension_factor=sf)),
        ),
        SchemeSpec(
            label=f"TSS+CONS (SF = {sf:g})",
            factory=(lambda: TunableSuspensionWithGuarantees(suspension_factor=sf)),
        ),
        SchemeSpec(label="No Suspension", factory=EasyBackfillScheduler),
    ]


#: grid key of the shared NS calibration run of calibrated-TSS specs
BASELINE_KEY = "__ns_baseline__"


def compare_schemes(
    jobs: list[Job],
    n_procs: int,
    schemes: list[SchemeSpec],
    overhead_model: SuspensionOverheadModel | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    trace_dir: str | Path | None = None,
    policy: GridPolicy | None = None,
    counters: GridCounters | None = None,
) -> dict[str, SimulationResult]:
    """Run every scheme over (fresh copies of) the same workload.

    Specs that need a baseline (calibrated TSS) receive limits
    calibrated from one shared NS (EASY) run over the same trace.  The
    baseline runs first (it is a dependency, and itself cacheable); the
    scheme cells then run through
    :func:`~repro.experiments.parallel.run_grid`.  Output is keyed by
    scheme label, in scheme order.

    By default every cell runs serially in-process.  The keyword-only
    arguments are the grid executor's (see ``run_grid``): *workers*
    fans the scheme cells out over a process pool, *cache* serves and
    stores results, *policy* sets timeouts and retries, and *counters*
    collects recovery tallies.  None of them changes a result.

    With *trace_dir*, every scheme cell also streams its JSONL decision
    trace to a per-label file under that directory (see
    :func:`~repro.experiments.parallel.trace_files_for_keys`).  Traced
    cells bypass the result cache: a cache hit would leave no trace.
    """
    # imported here: the grid executor imports this module for simulate()
    from repro.experiments.parallel import GridCell, run_grid, trace_files_for_keys

    def cell(key: str, scheduler: Scheduler, trace_path: str | None = None) -> GridCell:
        return GridCell(
            key=key,
            jobs=jobs,
            n_procs=n_procs,
            scheduler_config=scheduler.config(),
            overhead_model=overhead_model,
            trace_path=trace_path,
        )

    baseline: SimulationResult | None = None
    if any(s.needs_baseline for s in schemes):
        baseline = run_grid(
            [cell(BASELINE_KEY, EasyBackfillScheduler())],
            cache=cache,
            policy=policy,
            counters=counters,
        ).results[BASELINE_KEY]
    trace_paths = (
        trace_files_for_keys(trace_dir, [s.label for s in schemes])
        if trace_dir is not None
        else {}
    )
    cells = [cell(s.label, s.build(baseline), trace_paths.get(s.label)) for s in schemes]
    return run_grid(
        cells, workers=workers, cache=cache, policy=policy, counters=counters
    ).results
