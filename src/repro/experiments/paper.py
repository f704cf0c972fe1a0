"""One entry per paper experiment.

Each simulating table or figure group is a :class:`Figure`: the scheme
groups it simulates (a :class:`Workload`, an optional overhead model
and :class:`~repro.experiments.runner.SchemeSpec` configs) plus a
renderer from their results to an :class:`ExperimentOutput` -- plain
data (dicts keyed by scheme and category) and an ASCII report.
:func:`run_figures` runs several figures as one grid, each distinct cell
once; its *workers*, *cache* and *policy* fan the cells out over a
process pool, an on-disk result cache and a fault policy (see
:mod:`repro.experiments.parallel`).  :data:`EXPERIMENTS` maps each
experiment id (DESIGN.md section 4) to its declaration, and each public
function runs one figure, so regenerating any paper artefact is::

    from repro.experiments import paper
    print(paper.ss_average_metrics("CTC").report)

Default sizes (2500 jobs) keep a full figure regeneration in
seconds-to-minutes on a laptop while leaving category populations large
enough for stable averages; pass ``n_jobs`` to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.analysis.report import scheme_comparison_report
from repro.analysis.tables import category_grid_table, series_table
from repro.core.overhead import DiskSwapOverheadModel
from repro.core.theory import two_task_timeline
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridPolicy
from repro.experiments.runner import (
    NS_CONFIG,
    SchemeGroup,
    SchemeSpec,
    hybrid_schemes,
    run_scheme_groups,
    standard_schemes,
    tuned_schemes,
)
from repro.metrics.aggregate import (
    category_shares,
    overall_stats,
    per_category_stats,
)
from repro.sim.driver import SimulationResult, SuspensionOverheadModel
from repro.workload.archive import get_preset
from repro.workload.categories import classify_four_way
from repro.workload.estimates import InaccurateEstimates
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


@dataclass(frozen=True)
class Workload:
    """A synthetic trace; equal declarations share one generated job list."""

    trace: str
    n_jobs: int
    seed: int
    #: ``None`` for accurate estimates, else the badly estimated share
    #: of :class:`~repro.workload.estimates.InaccurateEstimates`
    badly_fraction: float | None = None
    #: load factor of :func:`~repro.workload.load.scale_load`
    load: float = 1.0


@dataclass(frozen=True)
class Figure:
    """One experiment: its scheme groups, each a (workload, overhead
    model, specs) triple, and the renderer of their results, which
    receives one ``label -> result`` dict per group."""

    groups: Sequence[tuple[Workload, SuspensionOverheadModel | None, Sequence[SchemeSpec]]]
    render: Callable[[list[dict[str, SimulationResult]]], ExperimentOutput]


def run_figures(
    figures: Sequence[Figure],
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> list[ExperimentOutput]:
    """Run the union of *figures*' cells as one grid; render each figure.

    Equal :class:`Workload` declarations share one job list, so
    :func:`~repro.experiments.runner.run_scheme_groups` simulates each
    distinct cell once, across figures too.
    """
    lists: dict[Workload, list[Job]] = {}

    def jobs(w: Workload) -> list[Job]:
        if w not in lists and w.load != 1.0:
            lists[w] = scale_load(jobs(replace(w, load=1.0)), w.load)
        elif w not in lists:
            bad = w.badly_fraction
            estimates = None if bad is None else InaccurateEstimates(badly_fraction=bad)
            lists[w] = generate_trace(w.trace, w.n_jobs, w.seed, estimate_model=estimates)
        return lists[w]

    groups = [
        SchemeGroup(jobs(w), get_preset(w.trace).n_procs, specs, overhead)
        for figure in figures
        for w, overhead, specs in figure.groups
    ]
    results = iter(run_scheme_groups(groups, workers=workers, cache=cache, policy=policy))
    return [figure.render([next(results) for _ in figure.groups]) for figure in figures]


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


def _comparison(
    exp_id: str,
    title: str,
    trace: str,
    results: dict[str, SimulationResult],
    titles: Sequence[str],
    statistic: str = "mean",
    quality: str | None = None,
) -> ExperimentOutput:
    """Slowdown and turnaround per category and scheme, one block each;
    ``data``: ``"slowdown"``/``"turnaround"`` -> scheme -> category."""
    metrics = ("slowdown", "turnaround")
    return ExperimentOutput(
        exp_id=exp_id,
        title=title,
        trace=trace,
        data={m: _mean_grids(results, m, statistic, quality) for m in metrics},
        report="\n\n".join(
            scheme_comparison_report(t, results, m, statistic, quality)
            for t, m in zip(titles, metrics, strict=True)
        ),
        results=results,
    )


# ----------------------------------------------------------------------
# Tables II / III / VII / VIII -- job distribution
# ----------------------------------------------------------------------
def job_distribution(
    trace: str = "CTC", n_jobs: int = DEFAULT_N_JOBS, seed: int = DEFAULT_SEED
) -> ExperimentOutput:
    """Tables II/III (16-way) and VII/VIII (4-way) category shares.

    ``data`` keys: ``"shares16"``, ``"shares4"`` (category -> fraction).
    """
    jobs = generate_trace(trace, n_jobs=n_jobs, seed=seed)
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
def _tables_4_5(trace: str, n_jobs: int, seed: int) -> Figure:
    def render(groups: list[dict[str, SimulationResult]]) -> ExperimentOutput:
        result = groups[0]["No Suspension"]
        stats = per_category_stats(result.jobs)
        grid = {c: s.slowdown.mean for c, s in stats.items()}
        overall = overall_stats(result.jobs).slowdown.mean
        table = "IV" if trace == "CTC" else "V"
        title = f"{trace}: mean bounded slowdown, NS scheme (Table {table})"
        report = "\n".join(
            [
                category_grid_table(grid, title=title),
                f"overall: {overall:.2f}   utilization: {result.utilization:.3f}",
            ]
        )
        return ExperimentOutput(
            exp_id="tables-4-5",
            title="NS per-category average slowdown",
            trace=trace,
            data={"grid": grid, "overall": overall},
            report=report,
            results=groups[0],
        )

    ns = [SchemeSpec("No Suspension", NS_CONFIG)]
    return Figure([(Workload(trace, n_jobs, seed), None, ns)], render)


def ns_baseline_slowdowns(
    trace: str = "CTC", n_jobs: int = DEFAULT_N_JOBS, seed: int = DEFAULT_SEED
) -> ExperimentOutput:
    """Tables IV/V: average slowdown per category under NS backfilling.

    ``data`` keys: ``"grid"`` (category -> mean slowdown), ``"overall"``.
    """
    return run_figures([_tables_4_5(trace, n_jobs, seed)])[0]


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
def _figs_7_10(trace: str, n_jobs: int, seed: int) -> Figure:
    figs = ("7", "8") if trace == "CTC" else ("9", "10")
    titles = (
        f"{trace}: average slowdown, SS scheme (Fig {figs[0]})",
        f"{trace}: average turnaround, SS scheme (Fig {figs[1]})",
    )
    return Figure(
        [(Workload(trace, n_jobs, seed), None, standard_schemes())],
        lambda groups: _comparison(
            "figs-7-10", "SS average metrics vs NS and IS", trace, groups[0], titles
        ),
    )


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
    """
    return run_figures([_figs_7_10(trace, n_jobs, seed)], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Hybrid guarantee + preemption schemes (beyond the paper; DESIGN.md §12)
# ----------------------------------------------------------------------
def _hybrids(trace: str, n_jobs: int, seed: int) -> Figure:
    title = "Hybrid guarantee+preemption schemes vs their parents"
    titles = (
        f"{trace}: average slowdown, hybrid schemes (policy kernel)",
        f"{trace}: average turnaround, hybrid schemes (policy kernel)",
    )
    return Figure(
        [(Workload(trace, n_jobs, seed), None, hybrid_schemes())],
        lambda groups: _comparison("hybrids", title, trace, groups[0], titles),
    )


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
    return run_figures([_hybrids(trace, n_jobs, seed)], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Figs 11/12/15/16 -- worst case under SS
# ----------------------------------------------------------------------
def _figs_11_16(trace: str, n_jobs: int, seed: int) -> Figure:
    figs = "11/12" if trace == "CTC" else "15/16"
    titles = (
        f"{trace}: worst-case slowdown (Figs {figs})",
        f"{trace}: worst-case turnaround (Figs {figs})",
    )
    return Figure(
        [(Workload(trace, n_jobs, seed), None, standard_schemes(suspension_factors=(2.0,)))],
        lambda groups: _comparison(
            "figs-11-12-15-16", "SS worst-case metrics", trace, groups[0], titles, "worst"
        ),
    )


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
    return run_figures([_figs_11_16(trace, n_jobs, seed)], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Figs 13/14/17/18 -- TSS worst case
# ----------------------------------------------------------------------
def _figs_13_18(trace: str, n_jobs: int, seed: int) -> Figure:
    specs = standard_schemes(suspension_factors=(2.0,))
    specs[1:1] = [s for s in tuned_schemes(suspension_factors=(2.0,)) if s.calibrated]
    figs = "13/14" if trace == "CTC" else "17/18"
    titles = (
        f"{trace}: worst-case slowdown with TSS (Figs {figs})",
        f"{trace}: worst-case turnaround with TSS (Figs {figs})",
    )
    return Figure(
        [(Workload(trace, n_jobs, seed), None, specs)],
        lambda groups: _comparison(
            "figs-13-14-17-18", "TSS worst-case metrics", trace, groups[0], titles, "worst"
        ),
    )


def tss_worst_case(
    trace: str = "CTC",
    n_jobs: int = DEFAULT_N_JOBS,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
) -> ExperimentOutput:
    """Figs 13-14 (CTC) / 17-18 (SDSC): TSS vs SS vs NS vs IS worst cases."""
    return run_figures([_figs_13_18(trace, n_jobs, seed)], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Figs 19-30 -- inaccurate estimates
# ----------------------------------------------------------------------
def _figs_19_30(trace: str, n_jobs: int, seed: int, badly_fraction: float = 0.4) -> Figure:
    def render(groups: list[dict[str, SimulationResult]]) -> ExperimentOutput:
        parts = {
            quality or "all": _comparison(
                "figs-19-30",
                "Impact of user estimate inaccuracy",
                trace,
                groups[0],
                [
                    f"{trace}: average {metric}, inaccurate estimates "
                    f"({quality or 'all'} jobs; Figs 19-30)"
                    for metric in ("slowdown", "turnaround")
                ],
                quality=quality,
            )
            for quality in (None, "well", "badly")
        }
        return replace(
            parts["all"],
            data={q: part.data for q, part in parts.items()},
            report="\n\n".join(part.report for part in parts.values()),
        )

    workload = Workload(trace, n_jobs, seed, badly_fraction=badly_fraction)
    return Figure([(workload, None, tuned_schemes())], render)


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
    figure = _figs_19_30(trace, n_jobs, seed, badly_fraction)
    return run_figures([figure], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Figs 31-34 -- suspension overhead
# ----------------------------------------------------------------------
def _figs_31_34(trace: str, n_jobs: int, seed: int) -> Figure:
    def render(groups: list[dict[str, SimulationResult]]) -> ExperimentOutput:
        free, loaded = groups
        results = {
            "SF = 2": free["SF = 2 Tuned"],
            "SF = 2 OH": loaded["SF = 2 Tuned"],
            "No Suspension": loaded["No Suspension"],
            "IS": loaded["IS"],
        }
        figs = "31/32" if trace == "CTC" else "33/34"
        titles = (
            f"{trace}: average slowdown with suspension overhead (Figs {figs})",
            f"{trace}: average turnaround with suspension overhead (Figs {figs})",
        )
        return _comparison("figs-31-34", "Suspension overhead impact", trace, results, titles)

    workload = Workload(trace, n_jobs, seed, badly_fraction=0.4)
    tuned = [s for s in tuned_schemes(suspension_factors=(2.0,)) if s.calibrated]
    return Figure(
        [
            (workload, None, tuned),
            (workload, DiskSwapOverheadModel(), [*tuned, *standard_schemes(())]),
        ],
        render,
    )


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
    (with overhead) -- ``data`` as in :func:`ss_average_metrics`.
    """
    return run_figures([_figs_31_34(trace, n_jobs, seed)], workers, cache, policy)[0]


# ----------------------------------------------------------------------
# Figs 35-44 -- load variation
# ----------------------------------------------------------------------
def _figs_35_44(
    trace: str,
    n_jobs: int,
    seed: int,
    loads: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
) -> Figure:
    specs = tuned_schemes(suspension_factors=(2.0,))
    schemes = [s.label for s in specs]

    def render(groups: list[dict[str, SimulationResult]]) -> ExperimentOutput:
        utilization: dict[str, list[float]] = {s: [] for s in schemes}
        sd: dict[str, dict[tuple[str, str], list[float]]] = {s: {} for s in schemes}
        tat: dict[str, dict[tuple[str, str], list[float]]] = {s: {} for s in schemes}
        for results in groups:
            for label in schemes:
                r = results[label]
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

    return Figure(
        [(Workload(trace, n_jobs, seed, load=load), None, specs) for load in loads], render
    )


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

    One scheme group per load, ``len(loads) x 3`` cells in one grid; each
    load's NS cell also calibrates that load's tuned spec.

    ``data``: ``"loads"``, ``"utilization"`` (scheme -> [..]),
    ``"slowdown"``/``"turnaround"`` (scheme -> category -> [..]).
    """
    figure = _figs_35_44(trace, n_jobs, seed, loads)
    return run_figures([figure], workers, cache, policy)[0]


#: experiment id -> its cells and renderer, declared for (trace, n_jobs, seed)
EXPERIMENTS: dict[str, Callable[[str, int, int], Figure]] = {
    "distribution": lambda trace, n_jobs, seed: Figure(
        [], lambda _: job_distribution(trace, n_jobs, seed)
    ),
    "tables-4-5": _tables_4_5,
    "figs-4-6": lambda *_: Figure([], lambda _: two_task_figures()),
    "figs-7-10": _figs_7_10,
    "figs-11-16": _figs_11_16,
    "figs-13-18": _figs_13_18,
    "figs-19-30": _figs_19_30,
    "figs-31-34": _figs_31_34,
    "figs-35-44": _figs_35_44,
    "hybrids": _hybrids,
}
