"""Command-line interface: ``repro-sched`` (or ``python -m repro``).

Subcommands
-----------

``run``
    Simulate one scheduler over a synthetic or SWF trace and print the
    per-category report.
``compare``
    Run the paper's standard scheme set over one trace and print the
    comparison matrices.
``experiment``
    Regenerate a paper table/figure group by id (see ``--list``).
``trace``
    Decision traces (see ``docs/TRACING.md``): ``record`` a traced run
    to JSONL, ``summarize`` a trace by independent replay, ``filter``
    events by type/job, ``gantt`` an ASCII/CSV occupancy timeline.
``workload``
    Archive-log tooling over the streaming pipeline (see
    ``docs/WORKLOADS.md``): ``validate`` an SWF log with a one-pass
    anomaly report, ``stats`` for a constant-memory characterisation,
    ``replay`` a long log through the sharded grid executor.
``lint``
    repro-lint, the determinism & protocol-conformance static analyser
    (see ``docs/STATIC_ANALYSIS.md``); all arguments after ``lint`` are
    forwarded to :mod:`repro.lint.cli`.

Examples
--------

::

    repro-sched run --trace CTC --scheduler ss --sf 2 --jobs 2000
    repro-sched compare --trace SDSC --jobs 1500 --metric turnaround
    repro-sched experiment figs-7-10 --trace CTC
    repro-sched experiment --list
    repro-sched trace record --out run.jsonl --trace CTC --jobs 500 --scheduler ss
    repro-sched trace summarize run.jsonl
    repro-sched trace filter run.jsonl --type decision --job 42
    repro-sched trace gantt run.jsonl --max-jobs 30
    repro-sched workload validate CTC-SP2.swf
    repro-sched workload stats CTC-SP2.swf --load 1.3
    repro-sched workload replay CTC-SP2.swf --scheduler ss --sf 2 --window 24
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable

from repro.analysis.report import experiment_report, scheme_comparison_report
from repro.core.overhead import DiskSwapOverheadModel
from repro.experiments import paper
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import GridPolicy, resolve_workers
from repro.experiments.runner import compare_schemes, simulate, standard_schemes
from repro.obs import GridCounters, format_grid_counters
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import SCHEMES, known_schemes, scheduler_from_config
from repro.workload.archive import get_preset
from repro.workload.estimates import AccurateEstimates, InaccurateEstimates
from repro.workload.job import Job
from repro.workload.load import scale_load
from repro.workload.swf import jobs_from_swf_records, read_swf
from repro.workload.synthetic import generate_trace

#: experiment id -> (function, needs-trace)
EXPERIMENTS: dict[str, tuple[Callable[..., paper.ExperimentOutput], bool]] = {
    "distribution": (paper.job_distribution, True),
    "tables-4-5": (paper.ns_baseline_slowdowns, True),
    "figs-4-6": (paper.two_task_figures, False),
    "figs-7-10": (paper.ss_average_metrics, True),
    "figs-11-16": (paper.ss_worst_case, True),
    "figs-13-18": (paper.tss_worst_case, True),
    "figs-19-30": (paper.estimate_impact, True),
    "figs-31-34": (paper.overhead_impact, True),
    "figs-35-44": (paper.load_variation, True),
    "hybrids": (paper.hybrid_comparison, True),
}


#: CLI spellings of scheme ids
SCHEDULER_ALIASES = {
    "ns": "easy",
    "cons": "conservative",
    "spec": "speculative",
    "tss-cons": "tss-conservative",
}

_SCHEDULER_HELP = (
    f"scheme id ({' | '.join(known_schemes())}) "
    f"or alias ({', '.join(f'{a}={s}' for a, s in SCHEDULER_ALIASES.items())})"
)


def _build_scheduler(args: argparse.Namespace) -> Scheduler:
    """The ``--scheduler`` scheme; ``--sf`` sets its suspension factor."""
    kind = args.scheduler.lower()
    scheme = SCHEDULER_ALIASES.get(kind, kind)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheduler {args.scheduler!r}")
    config: dict[str, object] = {"scheme": scheme}
    if "suspension_factor" in inspect.signature(SCHEMES[scheme]).parameters:
        config["suspension_factor"] = args.sf
    return scheduler_from_config(config)


def _load_jobs(args: argparse.Namespace) -> tuple[list[Job], int]:
    """Returns (jobs, n_procs) from either --swf or the preset generator."""
    if getattr(args, "swf", None):
        preset = get_preset(args.trace)
        records = read_swf(args.swf)
        jobs = jobs_from_swf_records(records, max_procs=preset.n_procs)
        if args.jobs and args.jobs < len(jobs):
            jobs = jobs[: args.jobs]
        n_procs = preset.n_procs
    else:
        estimates = (
            InaccurateEstimates() if args.estimates == "inaccurate" else AccurateEstimates()
        )
        jobs = generate_trace(
            args.trace, n_jobs=args.jobs, seed=args.seed, estimate_model=estimates
        )
        n_procs = get_preset(args.trace).n_procs
    if args.load != 1.0:
        jobs = scale_load(jobs, args.load)
    return jobs, n_procs


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default="CTC", help="preset: CTC, SDSC or KTH")
    p.add_argument("--jobs", type=int, default=2000, help="number of jobs")
    p.add_argument("--seed", type=int, default=7, help="workload seed")
    p.add_argument("--load", type=float, default=1.0, help="load factor (section VI)")
    p.add_argument(
        "--estimates",
        choices=("accurate", "inaccurate"),
        default="accurate",
        help="user estimate model (section V)",
    )
    p.add_argument("--swf", help="path to a real SWF log (overrides the generator)")
    p.add_argument(
        "--overhead",
        action="store_true",
        help="enable the disk-swap suspension overhead model (section V-A)",
    )


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan independent simulations over N processes "
        "(0 = one per CPU; default: serial)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory; repeated runs "
        "with identical (trace, scheduler, overhead) cells skip simulation, "
        "and every finished cell is committed immediately (a killed run "
        "resumes where it stopped)",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare a grid cell hung after this many seconds on a worker "
        "and retry it on a fresh pool (default: wait forever)",
    )
    p.add_argument(
        "--cell-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a crashed or hung cell up to N times with exponential "
        "backoff before giving up (default: 0)",
    )


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    return ResultCache(args.cache_dir) if getattr(args, "cache_dir", None) else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Selective preemption strategies for parallel job scheduling "
        "(reproduction of Kettimuthu et al., ICPP 2002)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "command families:\n"
            "  run / compare / experiment   simulate and reproduce the paper\n"
            "  inspect / workload           characterise synthetic or archive traces\n"
            "  trace                        record and replay decision traces\n"
            "  lint                         determinism static analysis\n"
            "docs: README.md, docs/WORKLOADS.md, docs/TRACING.md, "
            "docs/STATIC_ANALYSIS.md"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scheduler over one trace")
    _add_trace_args(run)
    run.add_argument(
        "--scheduler",
        default="ss",
        help=_SCHEDULER_HELP,
    )
    run.add_argument("--sf", type=float, default=2.0, help="suspension factor")
    run.add_argument(
        "--metric", choices=("slowdown", "turnaround", "wait"), default="slowdown"
    )

    cmp_ = sub.add_parser("compare", help="paper's standard scheme comparison")
    _add_trace_args(cmp_)
    cmp_.add_argument(
        "--metric", choices=("slowdown", "turnaround", "wait"), default="slowdown"
    )
    cmp_.add_argument(
        "--statistic", choices=("mean", "worst"), default="mean"
    )
    _add_parallel_args(cmp_)
    cmp_.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="also record one JSONL decision trace per scheme into DIR "
        "(see docs/TRACING.md); works with --workers",
    )

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure group")
    exp.add_argument("exp_id", nargs="?", help="experiment id (see --list)")
    exp.add_argument("--list", action="store_true", help="list experiment ids")
    exp.add_argument("--trace", default="CTC")
    exp.add_argument("--jobs", type=int, default=paper.DEFAULT_N_JOBS)
    exp.add_argument("--seed", type=int, default=paper.DEFAULT_SEED)
    _add_parallel_args(exp)

    ins = sub.add_parser("inspect", help="characterise a workload (section III style)")
    _add_trace_args(ins)

    # listed for the command overview only: main() hands `lint ...` to
    # repro.lint.cli before this parser runs (try `lint --help`)
    sub.add_parser(
        "lint",
        help="repro-lint static analysis (determinism & protocol conformance)",
        add_help=False,
    )

    trc = sub.add_parser("trace", help="record / replay decision traces")
    trc_sub = trc.add_subparsers(dest="trace_cmd", required=True)

    rec = trc_sub.add_parser("record", help="run one traced simulation to JSONL")
    _add_trace_args(rec)
    rec.add_argument(
        "--scheduler",
        default="ss",
        help=_SCHEDULER_HELP,
    )
    rec.add_argument("--sf", type=float, default=2.0, help="suspension factor")
    rec.add_argument("--out", required=True, metavar="FILE", help="JSONL output path")

    summ = trc_sub.add_parser(
        "summarize", help="independently replay a trace and print its statistics"
    )
    summ.add_argument("file", help="JSONL trace file")

    filt = trc_sub.add_parser("filter", help="select events by type and/or job id")
    filt.add_argument("file", help="JSONL trace file")
    filt.add_argument(
        "--type",
        action="append",
        default=None,
        metavar="TYPE",
        help="keep only these event types (repeatable, comma-splittable)",
    )
    filt.add_argument(
        "--job",
        action="append",
        type=int,
        default=None,
        metavar="ID",
        help="keep only events about these job ids (repeatable)",
    )
    filt.add_argument("--out", default=None, metavar="FILE", help="write here instead of stdout")

    gnt = trc_sub.add_parser("gantt", help="ASCII Gantt chart / CSV timeline of a trace")
    gnt.add_argument("file", help="JSONL trace file")
    gnt.add_argument("--width", type=int, default=72, help="chart columns")
    gnt.add_argument(
        "--max-jobs", type=int, default=40, help="rows shown (ascending job id)"
    )
    gnt.add_argument(
        "--csv",
        action="store_true",
        help="emit the occupancy-interval CSV instead of the chart",
    )

    wl = sub.add_parser(
        "workload",
        help="archive-log tooling: validate / stats / replay over the streaming pipeline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "All three subcommands stream the log (constant memory, any length).\n"
            "examples:\n"
            "  repro-sched workload validate CTC-SP2.swf\n"
            "  repro-sched workload stats CTC-SP2.swf --load 1.3\n"
            "  repro-sched workload replay CTC-SP2.swf --scheduler ss --sf 2 \\\n"
            "      --window 24 --workers 0 --cache-dir results\n"
            "guide: docs/WORKLOADS.md"
        ),
    )
    wl_sub = wl.add_subparsers(dest="workload_cmd", required=True)

    def _add_workload_pipeline_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--procs",
            type=int,
            default=None,
            metavar="N",
            help="machine size (default: the log header's MaxProcs/MaxNodes)",
        )
        p.add_argument(
            "--load", type=float, default=1.0, help="load-scaling factor (section VI)"
        )
        p.add_argument(
            "--estimates",
            choices=("keep", "accurate", "inaccurate"),
            default="keep",
            help="replace the log's estimates with a model (default: keep the log's)",
        )
        p.add_argument("--seed", type=int, default=7, help="estimate-model seed")
        p.add_argument(
            "--skip-malformed",
            action="store_true",
            help="drop unparseable data lines instead of aborting",
        )

    val = wl_sub.add_parser(
        "validate", help="one-pass anomaly report over an SWF log (exit 1 if anomalous)"
    )
    val.add_argument("swf_file", help="path to the SWF log")
    val.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="machine size for the width check (default: from the header)",
    )

    wst = wl_sub.add_parser(
        "stats", help="constant-memory workload characterisation of an SWF log"
    )
    wst.add_argument("swf_file", help="path to the SWF log")
    _add_workload_pipeline_args(wst)

    rpl = wl_sub.add_parser(
        "replay",
        help="replay a long SWF log through the sharded crash-safe grid executor",
    )
    rpl.add_argument("swf_file", help="path to the SWF log")
    _add_workload_pipeline_args(rpl)
    rpl.add_argument(
        "--scheduler",
        default="easy",
        help=_SCHEDULER_HELP,
    )
    rpl.add_argument("--sf", type=float, default=2.0, help="suspension factor")
    rpl.add_argument(
        "--window",
        type=float,
        default=24.0,
        metavar="HOURS",
        help="shard window in hours; each window simulates independently (default: 24)",
    )
    rpl.add_argument(
        "--batch-size",
        type=int,
        default=32,
        metavar="N",
        help="shards in flight per executor batch (bounds memory; default: 32)",
    )
    rpl.add_argument(
        "--overhead",
        action="store_true",
        help="enable the disk-swap suspension overhead model (section V-A)",
    )
    rpl.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="record one JSONL decision trace per shard into DIR (see "
        "docs/TRACING.md); traced shards bypass the result cache",
    )
    _add_parallel_args(rpl)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args_list = list(sys.argv[1:] if argv is None else argv)
    if args_list and args_list[0] == "lint":
        # forwarded wholesale: the lint CLI owns its own argparse (its
        # option set must not be filtered through this parser; argparse
        # REMAINDER mangles leading options under subparsers)
        from repro.lint.cli import main as lint_main

        return lint_main(args_list[1:])
    parser = build_parser()
    args = parser.parse_args(args_list)
    if "cell_timeout" in args:  # a grid command: check its options up front
        try:
            resolve_workers(args.workers)
            args.policy = GridPolicy(
                cell_timeout=args.cell_timeout, cell_retries=args.cell_retries
            )
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "trace_cmd", None) == "gantt":
        for flag, value in (("--width", args.width), ("--max-jobs", args.max_jobs)):
            if value < 1:
                parser.error(f"{flag} must be at least 1, got {value}")
    try:  # build what the command runs now, so a bad value is a usage error
        if "sf" in args:
            args.built_scheduler = _build_scheduler(args)
        if "swf" in args:
            args.workload = _load_jobs(args)
    except (KeyError, OSError, ValueError) as exc:
        parser.error(str(exc.args[0] if isinstance(exc, KeyError) else exc))
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early -- not an error
        try:
            sys.stdout.close()
        except (OSError, ValueError):
            # close() flushing into the dead pipe, or a double-close --
            # the only failures a torn-down stdout can produce
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:

    if args.command == "run":
        jobs, n_procs = args.workload
        overhead = DiskSwapOverheadModel() if args.overhead else None
        result = simulate(jobs, args.built_scheduler, n_procs, overhead)
        print(
            experiment_report(
                f"{args.trace}: {result.scheduler}", result, metric=args.metric
            )
        )
        return 0

    if args.command == "trace":
        return _dispatch_trace(args)

    if args.command == "workload":
        return _dispatch_workload(args)

    if args.command == "compare":
        jobs, n_procs = args.workload
        overhead = DiskSwapOverheadModel() if args.overhead else None
        counters = GridCounters()
        results = compare_schemes(
            jobs,
            n_procs,
            standard_schemes(),
            overhead,
            workers=args.workers,
            cache=_cache_from_args(args),
            trace_dir=args.trace_dir,
            policy=args.policy,
            counters=counters,
        )
        if counters:
            print(format_grid_counters(counters), file=sys.stderr)
        print(
            scheme_comparison_report(
                f"{args.trace}: scheme comparison",
                results,
                metric=args.metric,
                statistic=args.statistic,
            )
        )
        return 0

    if args.command == "inspect":
        from repro.workload.stats import format_stats, workload_stats

        jobs, n_procs = args.workload
        print(format_stats(workload_stats(jobs), n_procs=n_procs))
        return 0

    if args.command == "experiment":
        if args.list or not args.exp_id:
            print("available experiments:")
            for key in EXPERIMENTS:
                print(f"  {key}")
            return 0 if args.list else 2
        if args.exp_id not in EXPERIMENTS:
            print(f"unknown experiment {args.exp_id!r}; try --list", file=sys.stderr)
            return 2
        fn, needs_trace = EXPERIMENTS[args.exp_id]
        if needs_trace:
            kwargs: dict[str, object] = {
                "trace": args.trace,
                "n_jobs": args.jobs,
                "seed": args.seed,
            }
            # grid-shaped experiments accept workers/cache; table-only
            # ones (single simulation) do not -- pass only what fits
            params = inspect.signature(fn).parameters
            if "workers" in params:
                kwargs["workers"] = args.workers
            if "cache" in params:
                kwargs["cache"] = _cache_from_args(args)
            if "policy" in params:
                kwargs["policy"] = args.policy
            out = fn(**kwargs)
        else:
            out = fn()
        print(out.report)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _dispatch_workload(args: argparse.Namespace) -> int:
    """The ``workload`` subcommand family (validate / stats / replay).

    Everything here streams: the log is parsed one record at a time
    (:mod:`repro.workload.swf`), transformed lazily
    (:mod:`repro.workload.pipeline`) and, for ``replay``, simulated in
    time-windowed shards through the crash-safe grid executor
    (:func:`repro.experiments.parallel.replay_sharded`) -- a months-long
    archive log never has to fit in memory.  See docs/WORKLOADS.md.
    """
    from repro.workload.pipeline import (
        EstimateStage,
        LoadScaleStage,
        WorkloadPipeline,
        open_workload,
    )
    from repro.workload.swf import format_scan_report, scan_swf

    if args.workload_cmd == "validate":
        header, report = scan_swf(args.swf_file, machine_procs=args.procs)
        if header.computer:
            print(f"log: {args.swf_file}   computer: {header.computer}")
        print(format_scan_report(report))
        return 0 if report.clean else 1

    # stats / replay share the pipeline construction
    def _pipeline() -> WorkloadPipeline:
        stages: list[LoadScaleStage | EstimateStage] = []
        if args.load != 1.0:
            stages.append(LoadScaleStage(args.load))
        if args.estimates != "keep":
            model = (
                InaccurateEstimates()
                if args.estimates == "inaccurate"
                else AccurateEstimates()
            )
            stages.append(EstimateStage(model, seed=args.seed))
        return WorkloadPipeline(stages)

    def _machine_procs() -> int:
        if args.procs is not None:
            return int(args.procs)
        header, _ = scan_swf(args.swf_file)
        procs = header.machine_procs()
        if procs is None:
            raise SystemExit(
                f"{args.swf_file}: no MaxProcs/MaxNodes in the header; pass --procs"
            )
        return procs

    on_malformed = "skip" if args.skip_malformed else "raise"
    pipeline = _pipeline()

    if args.workload_cmd == "stats":
        from repro.workload.stats import format_streaming_stats, stream_workload_stats

        n_procs = _machine_procs()
        stream = open_workload(
            args.swf_file, pipeline, max_procs=n_procs, on_malformed=on_malformed
        )
        summary = stream_workload_stats(stream)
        if pipeline.stages:
            print(f"pipeline: {pipeline.describe()}")
        print(format_streaming_stats(summary, n_procs=n_procs))
        return 0

    if args.workload_cmd == "replay":
        from repro.analysis.tables import category_grid_table
        from repro.experiments.parallel import replay_sharded
        from repro.metrics.aggregate import overall_stats, per_category_stats

        n_procs = _machine_procs()
        scheduler_config = args.built_scheduler.config()
        overhead = DiskSwapOverheadModel() if args.overhead else None
        counters = GridCounters()
        stream = open_workload(
            args.swf_file, pipeline, max_procs=n_procs, on_malformed=on_malformed
        )
        outcome = replay_sharded(
            stream,
            n_procs,
            scheduler_config,
            window=args.window * 3600.0,
            overhead_model=overhead,
            batch_size=args.batch_size,
            workers=args.workers,
            cache=_cache_from_args(args),
            policy=args.policy,
            counters=counters,
            provenance={"pipeline": pipeline.fingerprint(), "source": "swf"},
            trace_dir=args.trace_dir,
        )
        if counters:
            print(format_grid_counters(counters), file=sys.stderr)
        stats = overall_stats(outcome.jobs)
        print(
            f"shards: {outcome.shards} ({args.window:g} h windows)   "
            f"simulated: {outcome.executed}   cache hits: {outcome.cache_hits}"
        )
        print(
            f"jobs: {len(outcome.jobs)}   mean slowdown: {stats.slowdown.mean:.2f}   "
            f"mean turnaround: {stats.turnaround.mean:,.0f} s"
        )
        print(f"outcome fingerprint: {outcome.fingerprint()}")
        print()
        print(
            category_grid_table(
                {
                    cat: s.slowdown.mean
                    for cat, s in per_category_stats(outcome.jobs).items()
                },
                title="mean slowdown per category (Table I grid)",
                precision=2,
            )
        )
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _dispatch_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand family (record / summarize / filter / gantt)."""
    import json

    from repro.analysis.timeline import ascii_gantt, occupancy_intervals, timeline_csv
    from repro.obs import JsonlRecorder, format_summary, read_trace, summarize_trace

    if args.trace_cmd == "record":
        jobs, n_procs = args.workload
        overhead = DiskSwapOverheadModel() if args.overhead else None
        with JsonlRecorder(args.out) as rec:
            simulate(jobs, args.built_scheduler, n_procs, overhead, recorder=rec)
        # Print the *replayed* summary of the file just written: this is
        # the same block `trace summarize` prints, so the record/summarize
        # round-trip check is literal output equality.
        print(format_summary(summarize_trace(read_trace(args.out))))
        return 0

    if args.trace_cmd == "summarize":
        print(format_summary(summarize_trace(read_trace(args.file))))
        return 0

    if args.trace_cmd == "filter":
        types: set[str] | None = None
        if args.type:
            types = {t.strip() for spec in args.type for t in spec.split(",") if t.strip()}
        job_ids = set(args.job) if args.job else None
        out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        kept = 0
        try:
            for ev in read_trace(args.file):
                if types is not None and ev.get("type") not in types:
                    continue
                if job_ids is not None and ev.get("job") not in job_ids:
                    continue
                out_fh.write(json.dumps(ev, separators=(",", ":")))
                out_fh.write("\n")
                kept += 1
        finally:
            if args.out:
                out_fh.close()
        if args.out:
            print(f"{kept} event(s) -> {args.out}")
        return 0

    if args.trace_cmd == "gantt":
        events = list(read_trace(args.file))
        intervals = occupancy_intervals(events)
        if args.csv:
            sys.stdout.write(timeline_csv(intervals))
        else:
            arrivals = {
                ev["job"]: float(ev["t"])
                for ev in events
                if ev.get("type") == "arrival" and ev.get("job") is not None
            }
            print(
                ascii_gantt(
                    intervals,
                    width=args.width,
                    max_jobs=args.max_jobs,
                    arrivals=arrivals,
                )
            )
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
