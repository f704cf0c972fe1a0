"""Running policies over workloads.

:func:`simulate` is the one-call public entry point: fresh cluster,
fresh job copies, one scheduler, one result.  :func:`run_scheme_groups`
runs labelled scheme configs (:class:`SchemeSpec`) over workloads
through :func:`repro.experiments.parallel.run_grid`, each distinct cell
once; :func:`compare_schemes` is its one-workload form, e.g. the
paper's NS vs IS vs SS comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.cluster.machine import Cluster
from repro.core.immediate_service import ImmediateServiceScheduler
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import (
    TunableSelectiveSuspensionScheduler,
    limits_from_result,
)
from repro.experiments.cache import overhead_config
from repro.schedulers.base import Scheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.hybrids import SuspensionWithHeadGuarantee, TunableSuspensionWithGuarantees
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
    "NS_CONFIG",
    "SchemeGroup",
    "SchemeSpec",
    "SuspensionOverheadModel",
    "compare_schemes",
    "hybrid_schemes",
    "run_scheme_groups",
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
        Any :class:`~repro.schedulers.base.Scheduler`.  Each run binds
        it afresh, so one instance may drive several runs in turn.
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


#: the NS scheme (EASY backfilling), whose run calibrates TSS limits
NS_CONFIG: Mapping[str, object] = EasyBackfillScheduler().config()


@dataclass(frozen=True)
class SchemeSpec:
    """A labelled :meth:`Scheduler.config` for comparison runs.

    A *calibrated* spec (the paper's tuned TSS, section V) runs with its
    ``limits`` replaced by ``limits_from_result(ns).to_config()``, where
    ``ns`` is the NS run over the same workload, machine and overhead.
    """

    label: str
    config: Mapping[str, object]
    calibrated: bool = False

    def __post_init__(self) -> None:
        # perfbench/workloads.py passes scheduler factories here; drop
        # this adapter at the next benchmark change (ROADMAP item 8)
        if callable(self.config):
            object.__setattr__(self, "config", self.config().config())

    @property
    def needs_baseline(self) -> bool:
        """``calibrated``, as perfbench reads it; goes with the adapter."""
        return self.calibrated


def standard_schemes(suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0)) -> list[SchemeSpec]:
    """The paper's section IV comparison set: SS at each SF, NS, IS."""
    specs = [
        SchemeSpec(f"SF = {sf:g}", SelectiveSuspensionScheduler(suspension_factor=sf).config())
        for sf in suspension_factors
    ]
    specs.append(SchemeSpec("No Suspension", NS_CONFIG))
    specs.append(SchemeSpec("IS", ImmediateServiceScheduler().config()))
    return specs


def tuned_schemes(
    suspension_factors: tuple[float, ...] = (1.5, 2.0, 5.0),
) -> list[SchemeSpec]:
    """The section V comparison set: TSS (calibrated) at each SF, NS, IS."""
    specs = [
        SchemeSpec(
            f"SF = {sf:g} Tuned",
            TunableSelectiveSuspensionScheduler(suspension_factor=sf).config(),
            calibrated=True,
        )
        for sf in suspension_factors
    ]
    return specs + standard_schemes(())


def hybrid_schemes(suspension_factor: float = 2.0) -> list[SchemeSpec]:
    """The policy-kernel cross products next to their parents.

    Pairs each hybrid (``ss-easy``, ``tss-conservative``) with the pure
    schemes it composes, so one comparison run shows what the guarantee
    layer costs and what the preemption layer buys (see DESIGN.md
    section 12).
    """
    sf = suspension_factor
    return [
        SchemeSpec(f"SS (SF = {sf:g})", SelectiveSuspensionScheduler(sf).config()),
        SchemeSpec(f"SS+EASY (SF = {sf:g})", SuspensionWithHeadGuarantee(sf).config()),
        SchemeSpec(f"TSS+CONS (SF = {sf:g})", TunableSuspensionWithGuarantees(sf).config()),
        SchemeSpec("No Suspension", NS_CONFIG),
    ]


@dataclass(frozen=True)
class SchemeGroup:
    """Schemes to run over one workload on one machine."""

    jobs: list[Job]
    n_procs: int
    specs: Sequence[SchemeSpec]
    overhead_model: SuspensionOverheadModel | None = None
    #: scheme label -> JSONL decision-trace path (see docs/TRACING.md)
    trace_paths: Mapping[str, str] = field(default_factory=dict)


def run_scheme_groups(
    groups: Sequence[SchemeGroup],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
    counters: GridCounters | None = None,
) -> list[dict[str, SimulationResult]]:
    """Run every group's schemes, simulating each distinct cell once.

    Two :func:`~repro.experiments.parallel.run_grid` calls: every
    uncalibrated cell, plus an untraced NS cell for each group with a
    calibrated spec; then the calibrated cells, limited by their group's
    NS result.  Untraced cells with the same job list (by identity, so
    no workload is hashed here), machine, overhead model and scheduler
    (the built scheduler's ``config()``, however the spec spelt it) run
    once and share the result; traced cells never do, as they never
    come from the cache.  Returns one ``label -> result`` dict per
    group, in spec order.  The keyword-only arguments are the grid
    executor's; none of them changes a result.
    """
    # imported here: the grid executor imports this module for simulate()
    from repro.experiments.parallel import GridCell, run_grid

    results: dict[str, SimulationResult] = {}
    phase: list[GridCell] = []
    shared: dict[tuple[int, str], str] = {}

    def cell(group: SchemeGroup, config: Mapping[str, object], trace_path: str | None) -> str:
        key = str(len(results) + len(phase))
        built = GridCell(
            key, group.jobs, group.n_procs, config, group.overhead_model, trace_path=trace_path
        )
        if trace_path is None:
            machine = [group.n_procs, built.scheduler_config, overhead_config(group.overhead_model)]
            ident = (id(group.jobs), json.dumps(machine, sort_keys=True, default=str))
            if ident in shared:
                return shared[ident]
            shared[ident] = key
        phase.append(built)
        return key

    def run_phase() -> None:
        outcome = run_grid(phase, workers=workers, cache=cache, policy=policy, counters=counters)
        results.update(outcome.results)
        phase.clear()

    plans: list[tuple[SchemeGroup, dict[str, str], str | None]] = []
    for group in groups:
        labels = [s.label for s in group.specs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate scheme labels in one group: {labels}")
        keys = {
            s.label: cell(group, s.config, group.trace_paths.get(s.label))
            for s in group.specs
            if not s.calibrated
        }
        ns = cell(group, NS_CONFIG, None) if len(keys) < len(labels) else None
        plans.append((group, keys, ns))
    run_phase()
    for group, keys, ns in plans:
        if ns is not None:
            limits = limits_from_result(results[ns]).to_config()
            for s in group.specs:
                if s.calibrated:
                    config = {**s.config, "limits": limits}
                    keys[s.label] = cell(group, config, group.trace_paths.get(s.label))
    run_phase()
    return [{s.label: results[keys[s.label]] for s in group.specs} for group, keys, _ in plans]


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

    :func:`run_scheme_groups` with one group; output is keyed by scheme
    label, in scheme order.  By default every cell runs serially
    in-process: *workers* fans the cells out over a process pool, *cache*
    serves and stores results, *policy* sets timeouts and retries, and
    *counters* collects recovery tallies.  With *trace_dir*, every scheme
    cell also streams its JSONL decision trace to a per-label file under
    that directory (see
    :func:`~repro.experiments.parallel.trace_files_for_keys`); traced
    cells bypass the result cache.
    """
    from repro.experiments.parallel import trace_files_for_keys

    labels = [s.label for s in schemes]
    paths = {} if trace_dir is None else trace_files_for_keys(trace_dir, labels)
    group = SchemeGroup(jobs, n_procs, schemes, overhead_model, paths)
    return run_scheme_groups(
        [group], workers=workers, cache=cache, policy=policy, counters=counters
    )[0]
