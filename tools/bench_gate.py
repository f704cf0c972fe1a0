#!/usr/bin/env python3
"""Perf-regression gate: exact call counts over ``benchmarks/bench_micro.py``.

Every workload of :func:`benchmarks.bench_micro.workloads` -- the
availability profile, the cluster, EASY, SS and IS on the SDSC-400
trace (SS also with the null recorder), the per-category metric fold
over the EASY run, SS, TSS, conservative, relaxed and
``tss-conservative`` backfilling on the congested 700-job trace, and
the streaming SWF parse and convert -- runs under
:func:`~benchmarks.bench_micro.count_calls`, which counts the
Python-level calls it makes to each function under ``src/repro``.
Counts do not depend on the machine, the load or the hash seed, so they
are compared exactly; no clock-measured value gates anything.

``--write``
    Run everything and write the committed baseline
    (``tools/bench_baseline.json``): the Python version, every call
    count and the trace fingerprints.

``--check``
    Run everything, write the report to ``--out`` (a CI artifact),
    print each workload's call total next to the baseline's, and fail
    on any of:

    * a Python major.minor version other than the baseline's (counts
      may differ between versions; on 3.10, whose code objects carry no
      qualname, the keys do);
    * any call count that differs from the baseline's -- rises and
      falls are listed separately; a deliberate change re-mints the
      baseline with ``--write`` in the same commit;
    * a null-recorder SS run that makes other calls than the untraced
      run (the zero-overhead-when-off contract of docs/TRACING.md);
    * a trace fingerprint (SHA-256 of the schedule each SS workload, the
      IS workload and the two reservation workloads,
      ``conservative_congested700`` and
      ``tss_conservative_congested700``, produce) that differs from the
      baseline's -- a perf change that changes a schedule is rejected
      outright;
    * a streaming-ingestion peak RSS above 0.6x the eager reader's;
    * a pooled grid whose per-cell task pickles to more than a tenth of
      an inline cell, or whose pool cell table (the initializer's
      arguments, pickled once per ``spawn`` worker) pickles to more
      than two inline cells.

Both modes apply the last three checks.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "repro.bench_gate/v2"

#: the committed baseline ``--check`` compares against
BASELINE = REPO_ROOT / "tools" / "bench_baseline.json"

#: jobs in the generated log the peak-RSS ingestion gate streams
#: (the ISSUE's acceptance floor is >= 100k)
INGESTION_LOG_JOBS = 120_000

#: workload size / grid width of the dispatch bench
DISPATCH_JOBS = 120_000
DISPATCH_CELLS = 24

#: an inline cell's pickle must be at least this many times larger than
#: the task the grid executor submits per cell.  Byte counts are
#: deterministic, so this gate is machine-independent.
DISPATCH_REDUCTION_MIN = 10.0

#: the pool initializer's arguments -- the table of every cell -- may
#: pickle to at most this many inline cells.  Pickle writes a job list
#: shared by all cells once; a table that copied it per cell would
#: weigh DISPATCH_CELLS inline cells.
DISPATCH_TABLE_MAX_CELLS = 2.0

#: the streaming reader's peak RSS may be at most this fraction of the
#: eager reader's on the same log.  The eager path materialises every
#: SWFRecord and Job; the streaming path holds one of each, so its RSS
#: is the interpreter baseline -- in practice the ratio sits near 0.25.
#: Comparing two child processes on the same machine in the same run
#: makes the bound machine-independent, unlike an absolute RSS cap.
INGESTION_RSS_RATIO_MAX = 0.6

#: child measured for streaming ingestion: parse + convert the whole
#: log with the iterator API, count jobs, report peak RSS (ru_maxrss is
#: KB on Linux) and wall time
_INGEST_STREAM_CHILD = """
import json, resource, sys, time
from repro.workload.swf import stream_jobs, stream_swf
t0 = time.perf_counter()
n = sum(1 for _ in stream_jobs(stream_swf(sys.argv[1]), max_procs=128))
dt = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"jobs": n, "maxrss_kb": rss, "seconds": dt}))
"""

#: child measured for eager ingestion: same log, whole-list API
_INGEST_EAGER_CHILD = """
import json, resource, sys, time
from repro.workload.swf import jobs_from_swf_records, read_swf
t0 = time.perf_counter()
records = read_swf(sys.argv[1])
jobs = jobs_from_swf_records(records, max_procs=128)
dt = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"jobs": len(jobs), "maxrss_kb": rss, "seconds": dt}))
"""


def _run_ingest_child(code: str, log_path: Path) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(log_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"ingestion child failed:\n{proc.stderr[-2000:]}")
    result: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def ingestion_report() -> dict[str, Any]:
    """Measure streaming-vs-eager peak RSS on a generated >=100k-job log.

    Each reader runs in its own child process so ``ru_maxrss`` isolates
    exactly one strategy; the gate asserts the streaming reader's peak
    stays under :data:`INGESTION_RSS_RATIO_MAX` of the eager reader's --
    the O(chunk)-vs-O(log) memory claim of docs/WORKLOADS.md, enforced.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.workload.swf import write_synthetic_swf

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "ingest.swf"
        write_synthetic_swf(log, INGESTION_LOG_JOBS)
        streaming = _run_ingest_child(_INGEST_STREAM_CHILD, log)
        eager = _run_ingest_child(_INGEST_EAGER_CHILD, log)
    ratio = streaming["maxrss_kb"] / max(eager["maxrss_kb"], 1)
    return {
        "log_jobs": INGESTION_LOG_JOBS,
        "streaming": streaming,
        "eager": eager,
        "rss_ratio": ratio,
        "rss_ratio_max": INGESTION_RSS_RATIO_MAX,
    }


def check_ingestion(ingestion: dict[str, Any]) -> list[str]:
    """Gate violations of one :func:`ingestion_report` result (empty = pass)."""
    problems: list[str] = []
    streamed = ingestion["streaming"]["jobs"]
    if streamed != INGESTION_LOG_JOBS:
        problems.append(
            f"streaming reader returned {streamed} jobs, "
            f"expected {INGESTION_LOG_JOBS}"
        )
    if streamed != ingestion["eager"]["jobs"]:
        problems.append(
            f"streaming ({streamed}) and eager ({ingestion['eager']['jobs']}) "
            "readers disagree on job count"
        )
    if ingestion["rss_ratio"] > INGESTION_RSS_RATIO_MAX:
        problems.append(
            f"streaming peak RSS is {ingestion['rss_ratio']:.2f}x the eager "
            f"reader's (limit {INGESTION_RSS_RATIO_MAX}); the parser is no "
            "longer O(chunk) memory"
        )
    return problems


def dispatch_report() -> dict[str, Any]:
    """Measure what a pooled grid ships to its workers, in pickled bytes.

    Builds one deterministic 120k-job workload (plain arithmetic, no
    RNG) and a 24-cell scheduler sweep over it, then runs
    :func:`~repro.experiments.parallel.run_grid` with two workers
    against a stand-in for ``ProcessPoolExecutor`` that pickles what
    the executor hands the pool -- the initializer's arguments, and
    each submitted task -- and simulates nothing.  Both are compared
    with the pickle of one inline cell, which is what each task carried
    before cells reached workers through the pool initializer.
    Pickling times are recorded for the human; only byte counts gate.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from concurrent.futures import Future

    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.experiments import parallel
    from repro.workload.job import Job

    jobs = [
        Job(
            job_id=i,
            submit_time=float(i),
            run_time=300.0 + (i % 977),
            estimate=600.0 + (i % 977),
            procs=1 + (i % 64),
            memory_mb=float(i % 512),
            user=i % 100,
        )
        for i in range(DISPATCH_JOBS)
    ]
    cells = [
        parallel.GridCell(
            key=f"cell{k}",
            jobs=jobs,
            n_procs=128,
            scheduler_config=SelectiveSuspensionScheduler(1.0 + 0.25 * k).config(),
        )
        for k in range(DISPATCH_CELLS)
    ]

    t0 = time.perf_counter()
    inline_bytes = len(pickle.dumps(cells[0]))
    inline_seconds = time.perf_counter() - t0
    table: dict[str, float] = {}
    task_bytes: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers: int, initializer: Any, initargs: Any) -> None:
            t0 = time.perf_counter()
            table["bytes"] = len(pickle.dumps(initargs))
            table["seconds"] = time.perf_counter() - t0

        def submit(self, fn: Any, *args: Any) -> Future[str]:
            task_bytes.append(len(pickle.dumps((fn, args))))
            future: Future[str] = Future()
            future.set_result("not simulated")
            return future

        def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
            pass

    real_pool = parallel.ProcessPoolExecutor
    parallel.ProcessPoolExecutor = RecordingPool
    try:
        parallel.run_grid(cells, workers=2)
    finally:
        parallel.ProcessPoolExecutor = real_pool
    if len(task_bytes) != DISPATCH_CELLS:
        raise SystemExit(
            f"dispatch bench: the grid submitted {len(task_bytes)} tasks, "
            f"expected {DISPATCH_CELLS}"
        )

    task_bytes_per_cell = sum(task_bytes) / DISPATCH_CELLS
    return {
        "jobs": DISPATCH_JOBS,
        "cells": DISPATCH_CELLS,
        "inline_bytes_per_cell": inline_bytes,
        "task_bytes_per_cell": task_bytes_per_cell,
        "payload_reduction": inline_bytes / task_bytes_per_cell,
        "payload_reduction_min": DISPATCH_REDUCTION_MIN,
        "table_bytes": table["bytes"],
        "table_inline_cells": table["bytes"] / inline_bytes,
        "table_inline_cells_max": DISPATCH_TABLE_MAX_CELLS,
        "inline_pickle_seconds": inline_seconds,
        "table_pickle_seconds": table["seconds"],
    }


def check_dispatch(dispatch: dict[str, Any]) -> list[str]:
    """Gate violations of one :func:`dispatch_report` result (empty = pass)."""
    problems: list[str] = []
    reduction = dispatch.get("payload_reduction", 0.0)
    if reduction < DISPATCH_REDUCTION_MIN:
        problems.append(
            f"dispatch payload reduction {reduction:.1f}x fell below the "
            f"{DISPATCH_REDUCTION_MIN:.0f}x floor "
            f"({dispatch.get('inline_bytes_per_cell', 0):,.0f} B inline vs "
            f"{dispatch.get('task_bytes_per_cell', 0):,.0f} B per task)"
        )
    table_cells = dispatch.get("table_inline_cells", float("inf"))
    if table_cells > DISPATCH_TABLE_MAX_CELLS:
        problems.append(
            f"the pool cell table pickles to {table_cells:.2f} inline cells "
            f"(limit {DISPATCH_TABLE_MAX_CELLS:g}; "
            f"{dispatch.get('table_bytes', 0):,.0f} B); "
            "the shared workload is no longer written once"
        )
    return problems


def trace_fingerprints() -> dict[str, str]:
    """Machine-independent SHA-256 of each bench workload's schedule.

    Re-runs the optimised kernel on the exact workloads bench_micro
    times and hashes the externally observable per-job outcome
    (job id, first start, finish, suspension count).  Any divergence
    between two machines or two commits means the *schedule* changed,
    which a perf PR must never do.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.immediate_service import ImmediateServiceScheduler
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.schedulers.conservative import ConservativeBackfillScheduler
    from repro.schedulers.hybrids import TunableSuspensionWithGuarantees
    from repro.sim.driver import SchedulingSimulation
    from repro.cluster.machine import Cluster
    from repro.workload.load import scale_load
    from repro.workload.synthetic import generate_trace

    def run_signature(jobs: list[Any], scheduler: Any) -> str:
        driver = SchedulingSimulation(cluster=Cluster(128), scheduler=scheduler)
        result = driver.run(jobs)
        sig = [
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ]
        blob = json.dumps(sig, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def congested() -> list[Any]:
        return scale_load(generate_trace("SDSC", n_jobs=700, seed=5), 1.8)

    return {
        "ss_sdsc400": run_signature(
            generate_trace("SDSC", n_jobs=400, seed=3),
            SelectiveSuspensionScheduler(suspension_factor=2.0),
        ),
        "ss_congested700": run_signature(
            congested(), SelectiveSuspensionScheduler(suspension_factor=2.0)
        ),
        "is_sdsc400": run_signature(
            generate_trace("SDSC", n_jobs=400, seed=3), ImmediateServiceScheduler()
        ),
        "conservative_congested700": run_signature(
            congested(), ConservativeBackfillScheduler()
        ),
        "tss_conservative_congested700": run_signature(
            congested(), TunableSuspensionWithGuarantees(suspension_factor=2.0)
        ),
    }


def python_version() -> str:
    """The running interpreter's ``major.minor``; counts are per version."""
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def call_counts() -> dict[str, dict[str, int]]:
    """Workload name -> ``path:qualname`` -> calls, for every workload."""
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    from benchmarks.bench_micro import INGEST_LINES, count_calls, workloads
    from repro.workload.swf import write_synthetic_swf

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "ingest.swf"
        write_synthetic_swf(log, INGEST_LINES)
        return {name: count_calls(fn) for name, fn in workloads(log).items()}


def count_changes(
    base: dict[str, dict[str, int]], calls: dict[str, dict[str, int]]
) -> tuple[list[str], list[str]]:
    """Every count in *calls* that differs from *base*: (rises, falls)."""
    rises: list[str] = []
    falls: list[str] = []
    for workload in sorted(base.keys() | calls.keys()):
        old, new = base.get(workload, {}), calls.get(workload, {})
        for key in sorted(old.keys() | new.keys()):
            was, now = old.get(key, 0), new.get(key, 0)
            if was != now:
                line = f"{workload} {key}: {was:,} -> {now:,} ({now - was:+,})"
                (rises if now > was else falls).append(line)
    return rises, falls


def calls_line(
    name: str, counts: dict[str, int], base: dict[str, int] | None
) -> str:
    """One workload's call total, with the baseline's and the change
    when *base* (its baseline counts) is given."""
    total = sum(counts.values())
    line = f"  calls {name}: {total:,} to {len(counts)} functions"
    if base is not None:
        was = sum(base.values())
        line += f" (baseline {was:,}, {(total - was) / max(was, 1):+.1%})"
    return line


def _listed(title: str, lines: list[str]) -> list[str]:
    """*lines* under one problem heading, or nothing when empty."""
    if not lines:
        return []
    return [f"{title} ({len(lines)}):" + "".join(f"\n      {x}" for x in lines)]


def check_null_recorder(calls: dict[str, dict[str, int]]) -> list[str]:
    """The null-recorder SS run must make exactly the untraced run's calls."""
    rises, falls = count_changes(
        {"ss_sdsc400": calls["ss_sdsc400"]},
        {"ss_sdsc400": calls["ss_sdsc400_null_recorder"]},
    )
    return _listed("null recorder makes calls the untraced run does not", rises) + _listed(
        "null recorder skips calls the untraced run makes", falls
    )


def check_report(report: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """All gate violations of *report* against *baseline* (empty = pass)."""
    problems: list[str] = []

    for name, want in baseline.get("trace_fingerprints", {}).items():
        got = report["trace_fingerprints"].get(name)
        if got != want:
            problems.append(
                f"trace fingerprint {name!r} changed: {want} -> {got} "
                "(the schedule itself changed; a perf PR must not do that)"
            )

    rises, falls = count_changes(baseline["calls"], report["calls"])
    problems += _listed("call counts rose", rises)
    problems += _listed("call counts fell", falls)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write",
        action="store_true",
        help="run everything and write the baseline tools/bench_baseline.json",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="run everything and gate against the committed baseline",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "bench_report.json",
        help="report path (default: bench_report.json)",
    )
    args = parser.parse_args(argv)

    baseline: dict[str, Any] = {}
    if args.check:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        if baseline.get("schema") != SCHEMA:
            print(
                f"bench_gate: baseline schema {baseline.get('schema')!r} != {SCHEMA!r}; "
                "refusing to compare",
                file=sys.stderr,
            )
            return 1
        if baseline.get("python") != python_version():
            print(
                f"bench_gate: FAIL: the baseline was minted on Python "
                f"{baseline.get('python')} and this is Python {python_version()}; "
                "call counts may differ between versions, so run the gate on "
                f"Python {baseline.get('python')} or re-mint with --write",
                file=sys.stderr,
            )
            return 1

    report = {
        "schema": SCHEMA,
        "generated_utc": _dt.datetime.now(_dt.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "python": python_version(),
        "platform": platform.platform(),
        "calls": call_counts(),
        "trace_fingerprints": trace_fingerprints(),
        "ingestion": ingestion_report(),
        "dispatch": dispatch_report(),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"bench_gate: wrote {args.out}")
    for name, counts in report["calls"].items():
        print(calls_line(name, counts, baseline.get("calls", {}).get(name)))
    ing = report["ingestion"]
    print(
        f"  ingestion RSS ({ing['log_jobs']:,} jobs): streaming "
        f"{ing['streaming']['maxrss_kb'] / 1024:.0f} MB vs eager "
        f"{ing['eager']['maxrss_kb'] / 1024:.0f} MB "
        f"(ratio {ing['rss_ratio']:.2f}, limit {INGESTION_RSS_RATIO_MAX})"
    )
    dsp = report["dispatch"]
    print(
        f"  dispatch payload ({dsp['jobs']:,} jobs x {dsp['cells']} cells): "
        f"{dsp['inline_bytes_per_cell'] / 1e6:.1f} MB inline cell vs "
        f"{dsp['task_bytes_per_cell']:.0f} B per task "
        f"({dsp['payload_reduction']:,.0f}x, floor {DISPATCH_REDUCTION_MIN:.0f}x); "
        f"cell table {dsp['table_bytes'] / 1e6:.1f} MB "
        f"({dsp['table_inline_cells']:.2f} inline cells, "
        f"limit {DISPATCH_TABLE_MAX_CELLS:g})"
    )

    problems = check_report(report, baseline) if args.check else []
    problems += check_null_recorder(report["calls"])
    problems += check_ingestion(report["ingestion"])
    problems += check_dispatch(report["dispatch"])
    if problems:
        print("bench_gate: FAIL", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    if args.write:
        minted = {key: report[key] for key in ("schema", "python", "calls", "trace_fingerprints")}
        BASELINE.write_text(json.dumps(minted, indent=2, sort_keys=True) + "\n")
        print(f"bench_gate: baseline written to {BASELINE}")
        return 0
    print(f"bench_gate: PASS against {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
