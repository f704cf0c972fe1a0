"""One function per paper experiment.

Each function simulates what the corresponding table/figure needs and
returns an :class:`ExperimentOutput`: plain data (dicts keyed by scheme
and category) plus a rendered ASCII report.  The benchmark harness calls
these and prints the report, so regenerating any paper artefact is::

    from repro.experiments import paper
    print(paper.ss_average_metrics("CTC").report)

Experiment ids follow DESIGN.md section 4.  Default sizes (2500 jobs)
keep a full figure regeneration in seconds-to-minutes on a laptop while
leaving category populations large enough for stable averages; pass
``n_jobs`` to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.report import scheme_comparison_report
from repro.analysis.tables import category_grid_table, series_table
from repro.core.overhead import DiskSwapOverheadModel
from repro.core.theory import two_task_timeline
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridCell, GridPolicy, run_grid
from repro.experiments.runner import (
    compare_schemes,
    hybrid_schemes,
    simulate,
    standard_schemes,
    tuned_schemes,
)
from repro.metrics.aggregate import (
    category_shares,
    overall_stats,
    per_category_stats,
)
from repro.schedulers.easy import EasyBackfillScheduler
from repro.sim.driver import SimulationResult
from repro.workload.archive import get_preset
from repro.workload.categories import classify_four_way
from repro.workload.estimates import EstimateModel, InaccurateEstimates
from repro.workload.job import Job
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace

#: Default trace size for experiment regeneration.
DEFAULT_N_JOBS = 2500
#: Default workload seed (any fixed value; 7 matches EXPERIMENTS.md).
DEFAULT_SEED = 7


@dataclass
class ExperimentOutput:
    """The regenerated artefact for one paper table/figure group."""

    exp_id: str
    title: str
    trace: str
    #: experiment-specific payload; see each function's docstring
    data: dict[str, Any]
    report: str
    #: the raw simulation results, for further slicing
    results: dict[str, SimulationResult] = field(default_factory=dict)


def _trace(
    trace: str, n_jobs: int, seed: int, estimates: EstimateModel | None = None
) -> list[Job]:
    return generate_trace(trace, n_jobs=n_jobs, seed=seed, estimate_model=estimates)


def _mean_grids(
    results: dict[str, SimulationResult],
    metric: str,
    statistic: str = "mean",
    quality: str | None = None,
) -> dict[str, dict[tuple[str, str], float]]:
    out: dict[str, dict[tuple[str, str], float]] = {}
    for label, r in results.items():
        stats = per_category_stats(r.jobs, quality=quality)
        out[label] = {c: getattr(getattr(s, metric), statistic) for c, s in stats.items()}
    return out


# ----------------------------------------------------------------------
# Tables II / III / VII / VIII -- job distribution
# ----------------------------------------------------------------------
def job_distribution(
    trace: str = "CTC", n_jobs: int = DEFAULT_N_JOBS, seed: int = DEFAULT_SEED
) -> ExperimentOutput:
    """Tables II/III (16-way) and VII/VIII (4-way) category shares.

    ``data`` keys: ``"shares16"``, ``"shares4"`` (category -> fraction).
    """
    jobs = _trace(trace, n_jobs, seed)
    # shares read only static job fields, so fresh jobs classify as they are
    shares16 = category_shares(jobs)
    shares4 = category_shares(jobs, classify_four_way)
    report = "\n\n".join(
        [
            category_grid_table(
                {c: 100 * v for c, v in shares16.items()},
                title=f"{trace}: % of jobs per 16-way category (Tables II/III)",
                precision=1,
            ),
            category_grid_table(
                {c: 100 * v for c, v in shares4.items()},
                title=f"{trace}: % of jobs per 4-way category (Tables VII/VIII)",
                precision=1,
                four_way=True,
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="tables-2-3-7-8",
        title="Job distribution by category",
        trace=trace,
        data={"shares16": shares16, "shares4": shares4},
        report=report,
    )


# ----------------------------------------------------------------------
# Tables IV / V -- NS per-category slowdowns
# ----------------------------------------------------------------------
def ns_baseline_slowdowns(
    trace: str = "CTC", n_jobs: int = DEFAULT_N_JOBS, seed: int = DEFAULT_SEED
) -> ExperimentOutput:
    """Tables IV/V: average slowdown per category under NS backfilling.

    ``data`` keys: ``"grid"`` (category -> mean slowdown), ``"overall"``.
    """
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed)
    result = simulate(jobs, EasyBackfillScheduler(), preset.n_procs)
    stats = per_category_stats(result.jobs)
    grid = {c: s.slowdown.mean for c, s in stats.items()}
    overall = overall_stats(result.jobs).slowdown.mean
    report = "\n".join(
        [
            category_grid_table(
                grid,
                title=(
                    f"{trace}: mean bounded slowdown, NS scheme "
                    f"(Table {'IV' if trace == 'CTC' else 'V'})"
                ),
            ),
            f"overall: {overall:.2f}   utilization: {result.utilization:.3f}",
        ]
    )
    return ExperimentOutput(
        exp_id="tables-4-5",
        title="NS per-category average slowdown",
        trace=trace,
        data={"grid": grid, "overall": overall},
        report=report,
        results={"No Suspension": result},
    )


# ----------------------------------------------------------------------
# Figs 4-6 -- two-task alternation
# ----------------------------------------------------------------------
def two_task_figures(
    suspension_factors: tuple[float, ...] = (1.0, 1.5, 2.0),
) -> ExperimentOutput:
    """Figs 4-6: execution pattern of two equal tasks vs SF.

    ``data``: SF -> {semantics -> (suspension count, segment list)}.
    """
    data: dict[str, Any] = {}
    lines: list[str] = ["Two equal whole-machine tasks, L = 1 (Figs 4-6)"]
    for sf in suspension_factors:
        per_sem = {}
        for sem in ("frozen", "age"):
            # Fig 4's SF=1 pattern alternates at the sweep granularity;
            # L/10 makes that legible in the printed timeline.
            outcome = two_task_timeline(
                sf, semantics=sem, max_suspensions=40, min_interval=0.1
            )
            per_sem[sem] = outcome
            pattern = " ".join(
                f"T{seg.task}[{seg.start:.3f},{seg.end:.3f})"
                for seg in outcome.segments[:12]
            )
            more = " ..." if len(outcome.segments) > 12 else ""
            lines.append(
                f"SF={sf:<4g} {sem:<6s} suspensions={outcome.suspensions:<3d} {pattern}{more}"
            )
        data[f"SF={sf:g}"] = per_sem
    return ExperimentOutput(
        exp_id="figs-4-6",
        title="Two-task alternation vs suspension factor",
        trace="-",
        data=data,
        report="\n".join(lines),
    )


# ----------------------------------------------------------------------
# Figs 7-10 -- SS average slowdown / turnaround
# ----------------------------------------------------------------------
def ss_average_metrics(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 7-10: mean slowdown & turnaround per category, SS vs NS vs IS.

    ``data``: ``"slowdown"``/``"turnaround"`` -> scheme -> category -> mean.
    ``workers``/``cache`` fan the scheme cells out over a process pool
    and/or an on-disk result cache (see :mod:`repro.experiments.parallel`).
    """
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed)
    results = compare_schemes(
        jobs,
        preset.n_procs,
        standard_schemes(),
        workers=workers,
        cache=cache,
        policy=policy,
    )
    data = {
        "slowdown": _mean_grids(results, "slowdown"),
        "turnaround": _mean_grids(results, "turnaround"),
    }
    fig_sd = "7" if trace == "CTC" else "9"
    fig_tat = "8" if trace == "CTC" else "10"
    report = "\n\n".join(
        [
            scheme_comparison_report(
                f"{trace}: average slowdown, SS scheme (Fig {fig_sd})",
                results,
                metric="slowdown",
            ),
            scheme_comparison_report(
                f"{trace}: average turnaround, SS scheme (Fig {fig_tat})",
                results,
                metric="turnaround",
                statistic="mean",
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="figs-7-10",
        title="SS average metrics vs NS and IS",
        trace=trace,
        data=data,
        report=report,
        results=results,
    )


# ----------------------------------------------------------------------
# Hybrid guarantee + preemption schemes (beyond the paper; DESIGN.md §12)
# ----------------------------------------------------------------------
def hybrid_comparison(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Hybrids vs their parents: SS, SS+EASY, TSS+CONS, NS.

    An extension experiment (no paper figure): the policy kernel's
    guarantee + preemption cross products next to the pure schemes they
    compose, answering what the reservation layer costs SS and what the
    sweep buys CONS-style guarantees.  ``data`` mirrors
    :func:`ss_average_metrics`: ``"slowdown"``/``"turnaround"`` ->
    scheme -> category -> mean.
    """
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed)
    results = compare_schemes(
        jobs,
        preset.n_procs,
        hybrid_schemes(),
        workers=workers,
        cache=cache,
        policy=policy,
    )
    data = {
        "slowdown": _mean_grids(results, "slowdown"),
        "turnaround": _mean_grids(results, "turnaround"),
    }
    report = "\n\n".join(
        [
            scheme_comparison_report(
                f"{trace}: average slowdown, hybrid schemes (policy kernel)",
                results,
                metric="slowdown",
            ),
            scheme_comparison_report(
                f"{trace}: average turnaround, hybrid schemes (policy kernel)",
                results,
                metric="turnaround",
                statistic="mean",
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="hybrids",
        title="Hybrid guarantee+preemption schemes vs their parents",
        trace=trace,
        data=data,
        report=report,
        results=results,
    )


# ----------------------------------------------------------------------
# Figs 11/12/15/16 -- worst case under SS
# ----------------------------------------------------------------------
def ss_worst_case(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 11-12 (CTC) / 15-16 (SDSC): worst-case slowdown & turnaround.

    Schemes: SS(SF=2), NS, IS -- as in the paper's worst-case figures.
    """
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed)
    results = compare_schemes(
        jobs,
        preset.n_procs,
        standard_schemes(suspension_factors=(2.0,)),
        workers=workers,
        cache=cache,
        policy=policy,
    )
    data = {
        "slowdown": _mean_grids(results, "slowdown", statistic="worst"),
        "turnaround": _mean_grids(results, "turnaround", statistic="worst"),
    }
    figs = "11/12" if trace == "CTC" else "15/16"
    report = "\n\n".join(
        [
            scheme_comparison_report(
                f"{trace}: worst-case slowdown (Figs {figs})",
                results,
                metric="slowdown",
                statistic="worst",
            ),
            scheme_comparison_report(
                f"{trace}: worst-case turnaround (Figs {figs})",
                results,
                metric="turnaround",
                statistic="worst",
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="figs-11-12-15-16",
        title="SS worst-case metrics",
        trace=trace,
        data=data,
        report=report,
        results=results,
    )


# ----------------------------------------------------------------------
# Figs 13/14/17/18 -- TSS worst case
# ----------------------------------------------------------------------
def tss_worst_case(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 13-14 (CTC) / 17-18 (SDSC): TSS vs SS vs NS vs IS worst cases."""
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed)
    specs = standard_schemes(suspension_factors=(2.0,))
    specs[1:1] = [
        s for s in tuned_schemes(suspension_factors=(2.0,)) if "Tuned" in s.label
    ]
    results = compare_schemes(
        jobs, preset.n_procs, specs, workers=workers, cache=cache, policy=policy
    )
    data = {
        "slowdown": _mean_grids(results, "slowdown", statistic="worst"),
        "turnaround": _mean_grids(results, "turnaround", statistic="worst"),
    }
    figs = "13/14" if trace == "CTC" else "17/18"
    report = "\n\n".join(
        [
            scheme_comparison_report(
                f"{trace}: worst-case slowdown with TSS (Figs {figs})",
                results,
                metric="slowdown",
                statistic="worst",
            ),
            scheme_comparison_report(
                f"{trace}: worst-case turnaround with TSS (Figs {figs})",
                results,
                metric="turnaround",
                statistic="worst",
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="figs-13-14-17-18",
        title="TSS worst-case metrics",
        trace=trace,
        data=data,
        report=report,
        results=results,
    )


# ----------------------------------------------------------------------
# Figs 19-30 -- inaccurate estimates
# ----------------------------------------------------------------------
def estimate_impact(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    badly_fraction: float = 0.4,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 19-24 (CTC) / 25-30 (SDSC): inaccurate user estimates.

    TSS (tuned) at SF 1.5/2/5 vs NS vs IS; metrics reported for all
    jobs and for the well/badly estimated groups separately.

    ``data``: quality (``"all"``/``"well"``/``"badly"``) -> metric ->
    scheme -> category -> mean.
    """
    preset = get_preset(trace)
    jobs = _trace(
        trace, n_jobs, seed, estimates=InaccurateEstimates(badly_fraction=badly_fraction)
    )
    results = compare_schemes(
        jobs,
        preset.n_procs,
        tuned_schemes(),
        workers=workers,
        cache=cache,
        policy=policy,
    )
    data: dict[str, Any] = {}
    blocks: list[str] = []
    for quality in (None, "well", "badly"):
        qkey = quality or "all"
        data[qkey] = {
            "slowdown": _mean_grids(results, "slowdown", quality=quality),
            "turnaround": _mean_grids(results, "turnaround", quality=quality),
        }
        for metric in ("slowdown", "turnaround"):
            blocks.append(
                scheme_comparison_report(
                    f"{trace}: average {metric}, inaccurate estimates "
                    f"({qkey} jobs; Figs 19-30)",
                    results,
                    metric=metric,
                    quality=quality,
                )
            )
    return ExperimentOutput(
        exp_id="figs-19-30",
        title="Impact of user estimate inaccuracy",
        trace=trace,
        data=data,
        report="\n\n".join(blocks),
        results=results,
    )


# ----------------------------------------------------------------------
# Figs 31-34 -- suspension overhead
# ----------------------------------------------------------------------
def overhead_impact(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 31-34: SS with modelled suspend/restart overhead.

    Schemes: SF=2 tuned with overhead ("SF = 2 OH") and without, NS, IS
    (with overhead) -- ``data`` as in :func:`ss_average_metrics` plus
    overhead presence per scheme.
    """
    preset = get_preset(trace)
    jobs = _trace(trace, n_jobs, seed, estimates=InaccurateEstimates())
    overhead = DiskSwapOverheadModel()
    tuned = [s for s in tuned_schemes(suspension_factors=(2.0,)) if "Tuned" in s.label]
    free = compare_schemes(
        jobs, preset.n_procs, tuned, workers=workers, cache=cache, policy=policy
    )
    loaded = compare_schemes(
        jobs,
        preset.n_procs,
        [*tuned, *(s for s in standard_schemes(()) if s.label in ("No Suspension", "IS"))],
        overhead_model=overhead,
        workers=workers,
        cache=cache,
        policy=policy,
    )
    results = {
        "SF = 2": free["SF = 2 Tuned"],
        "SF = 2 OH": loaded["SF = 2 Tuned"],
        "No Suspension": loaded["No Suspension"],
        "IS": loaded["IS"],
    }
    data = {
        "slowdown": _mean_grids(results, "slowdown"),
        "turnaround": _mean_grids(results, "turnaround"),
    }
    figs = "31/32" if trace == "CTC" else "33/34"
    report = "\n\n".join(
        [
            scheme_comparison_report(
                f"{trace}: average slowdown with suspension overhead (Figs {figs})",
                results,
                metric="slowdown",
            ),
            scheme_comparison_report(
                f"{trace}: average turnaround with suspension overhead (Figs {figs})",
                results,
                metric="turnaround",
            ),
        ]
    )
    return ExperimentOutput(
        exp_id="figs-31-34",
        title="Suspension overhead impact",
        trace=trace,
        data=data,
        report=report,
        results=results,
    )


# ----------------------------------------------------------------------
# Figs 35-44 -- load variation
# ----------------------------------------------------------------------
def load_variation(
    trace: str = "CTC",
    loads: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 35-44: behaviour under scaled load.

    For each load factor and scheme (SS SF=2 tuned, NS, IS):

    * overall system utilisation (Figs 35/38) -- measured over the
      arrival window (:attr:`SimulationResult.steady_utilization`),
      which on finite traces is what the paper's months-long logs
      effectively report (see that property's docstring);
    * mean slowdown and turnaround per 4-way category (Figs 36-37/39-40);
    * the utilisation-vs-metric pairing (Figs 41-44) falls out of the
      same data (each load point contributes one (util, metric) pair).

    This is the widest grid in the module -- ``len(loads) x 3`` cells
    plus one NS calibration run per load -- so it fans the whole thing
    through :func:`~repro.experiments.parallel.run_grid` in two phases:
    the per-load NS baselines first (the tuned spec's limits depend on
    them), then every (scheme, load) cell at once.  With a *cache* the
    NS scheme cells hit the just-stored baseline fingerprints for free.
    Every cell of one load shares that load's scaled job list, so a
    pool's cell table carries each scaled list once.

    ``data``: ``"loads"``, ``"utilization"`` (scheme -> [..]),
    ``"slowdown"``/``"turnaround"`` (scheme -> category -> [..]).
    """
    preset = get_preset(trace)
    base = _trace(trace, n_jobs, seed)
    schemes = ["SF = 2 Tuned", "No Suspension", "IS"]
    specs = [s for s in tuned_schemes(suspension_factors=(2.0,)) if s.label in schemes]

    scaled = {load: scale_load(base, load) for load in loads}

    def _cell(key: str, load: float, scheduler_config: Mapping[str, object]) -> GridCell:
        return GridCell(
            key=key,
            jobs=scaled[load],
            n_procs=preset.n_procs,
            scheduler_config=scheduler_config,
        )

    # Phase 1: the NS baseline for each load (calibrates the tuned spec).
    baseline_cells = [
        _cell(f"NS@{load:g}", load, EasyBackfillScheduler().config()) for load in loads
    ]
    baselines = run_grid(
        baseline_cells, workers=workers, cache=cache, policy=policy
    ).results

    # Phase 2: every (scheme, load) cell in one fan-out.
    cells: list[GridCell] = []
    for load in loads:
        for spec in specs:
            scheduler = spec.build(baselines[f"NS@{load:g}"])
            cells.append(_cell(f"{spec.label}@{load:g}", load, scheduler.config()))
    grid = run_grid(cells, workers=workers, cache=cache, policy=policy).results

    utilization: dict[str, list[float]] = {s: [] for s in schemes}
    sd: dict[str, dict[tuple[str, str], list[float]]] = {s: {} for s in schemes}
    tat: dict[str, dict[tuple[str, str], list[float]]] = {s: {} for s in schemes}
    for load in loads:
        for label in schemes:
            r = grid[f"{label}@{load:g}"]
            utilization[label].append(r.steady_utilization)
            stats = per_category_stats(r.jobs, classifier=classify_four_way)
            for cat, s in stats.items():
                sd[label].setdefault(cat, []).append(s.slowdown.mean)
                tat[label].setdefault(cat, []).append(s.turnaround.mean)
    figs = "35-37, 41-42" if trace == "CTC" else "38-40, 43-44"
    blocks = [
        series_table(
            "load",
            list(loads),
            {s: [100 * u for u in utilization[s]] for s in schemes},
            title=f"{trace}: overall utilisation %% vs load (Figs {figs})",
            precision=1,
        )
    ]
    for cat in (("S", "N"), ("S", "W"), ("L", "N"), ("L", "W")):
        blocks.append(
            series_table(
                "load",
                list(loads),
                {s: sd[s].get(cat, [float('nan')] * len(loads)) for s in schemes},
                title=f"{trace}: mean slowdown vs load, category {cat[0]} {cat[1]}",
            )
        )
    return ExperimentOutput(
        exp_id="figs-35-44",
        title="Load variation study",
        trace=trace,
        data={
            "loads": list(loads),
            "utilization": utilization,
            "slowdown": sd,
            "turnaround": tat,
        },
        report="\n\n".join(blocks),
    )
