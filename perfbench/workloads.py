"""The benchmark's workloads: inputs from a seed, one timed phase, checks.

Every workload runs serially in one process: one worker, no process
pool, no shared-memory plane, decision tracing off.  ``setup`` builds
the inputs (trace synthesis, load scaling, SWF writing); ``run`` times
the phase from inputs ready to merged per-category metrics; ``check``
verifies every output afterwards, outside the timed phase.

Synthetic inputs start from fixed calibrated base traces, and the seed
scales every interarrival gap by a factor drawn uniformly from
``[1 - ARRIVAL_JITTER, 1 + ARRIVAL_JITTER]``.  Each seed therefore
yields different arrival times and different schedules, while the job
mix and offered load stay those of the paper's calibration.  Schedules
near saturation are chaotic: the cost of one congested SS run, or of IS
on SDSC, follows the arrival draw.  Over eight seeds on a 2-vCPU VM,
the interquartile range of one 300-job congested SS+TSS run was 43% of
its median with a fresh trace per seed, 16.5% with 10% jitter and 7%
with 1% jitter.  Several short trace copies per input (``TraceSpec``)
average what is left.  The SWF replay log gets the same jitter on its
gaps.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np
import spans

from repro.analysis import report
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import TunableSelectiveSuspensionScheduler
from repro.experiments import cache, parallel, runner
from repro.experiments.runner import SchemeSpec
from repro.metrics import aggregate
from repro.schedulers.conservative import ConservativeBackfillScheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.relaxed import RelaxedBackfillScheduler
from repro.sim.audit import AuditError, audit_result
from repro.sim.driver import SimulationResult
from repro.workload import load, pipeline, swf, synthetic
from repro.workload.archive import get_preset
from repro.workload.estimates import InaccurateEstimates
from repro.workload.job import Job

#: base-trace seed of the calibration record in workload/archive.py
BASE_SEED = 7
#: half-width of the per-gap arrival scaling the seed draws
ARRIVAL_JITTER = 0.01


@dataclass
class PhaseOutput:
    """One timed phase: its clock and the raw outputs ``check`` verifies."""

    clock: spans.PhaseClock
    outputs: Any
    #: clock of the second, warm pass over the filled cache (replay only)
    warm: spans.PhaseClock | None = None
    #: ``experiments.*`` cache counters of the phase (replay only)
    cache_counts: dict[str, int] = field(default_factory=dict)


def jitter_submits(submits: list[float], seed: int, salt: int) -> np.ndarray:
    """Submit times with each interarrival gap scaled by the seed's draw."""
    rng = np.random.default_rng([seed, salt])
    times = np.array(submits)
    gaps = np.diff(times, prepend=times[0])
    gaps *= rng.uniform(1.0 - ARRIVAL_JITTER, 1.0 + ARRIVAL_JITTER, size=len(times))
    return np.cumsum(gaps)


def perturb_arrivals(jobs: list[Job], seed: int, salt: int) -> list[Job]:
    """Copies of *jobs* with each interarrival gap scaled by the seed's draw."""
    submits = jitter_submits([j.submit_time for j in jobs], seed, salt)
    return [
        Job(
            job_id=j.job_id,
            submit_time=float(t),
            run_time=j.run_time,
            estimate=j.estimate,
            procs=j.procs,
            memory_mb=j.memory_mb,
            user=j.user,
        )
        for j, t in zip(jobs, submits, strict=True)
    ]


def _check_cell(
    result: SimulationResult,
    n_jobs: int,
    preemptive: bool,
    merged: tuple[dict[Any, aggregate.CategoryStats], aggregate.CategoryStats],
) -> str | None:
    """The cell's outcome fingerprint, or ``None`` if any check fails."""
    try:
        audit_result(result, expect_preemption=None if preemptive else False)
    except AuditError as err:
        print(f"audit failed for {result.scheduler}: {err}", file=sys.stderr)
        return None
    per_category, overall = merged
    counted = sum(s.count for s in per_category.values())
    if not len(result.jobs) == counted == overall.count == n_jobs:
        print(f"{result.scheduler}: {counted} jobs in the metrics, want {n_jobs}", file=sys.stderr)
        return None
    return parallel.outcome_fingerprint(result.jobs)


def _digest(cells: dict[str, str | None]) -> str | None:
    """SHA-256 over ``key:fingerprint`` lines; ``None`` if any cell failed."""
    if None in cells.values():
        return None
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in cells.items()).encode()).hexdigest()


# ----------------------------------------------------------------------
# scheme grids over synthetic traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceSpec:
    """One synthetic input of a grid workload: *copies* independent traces.

    Copy *i* starts from base seed ``BASE_SEED + i``.  Several short
    traces average the cost of chaotic schedules (a congested SS run,
    IS on SDSC) where one long trace would not: the queue near
    saturation is a random walk, so its cost spreads more as the trace
    grows.
    """

    label: str
    preset: str
    n_jobs: int
    copies: int = 1
    load_factor: float = 1.0


@dataclass(frozen=True)
class Scheme:
    """One scheme cell: a metric-safe name, the spec, and whether it preempts."""

    name: str
    spec: SchemeSpec
    preemptive: bool


def _paper_schemes() -> list[Scheme]:
    """``standard_schemes()`` plus the calibrated TSS specs of ``tuned_schemes()``."""
    specs = runner.standard_schemes() + [s for s in runner.tuned_schemes() if s.needs_baseline]
    out = []
    for spec in specs:
        if spec.label == "No Suspension":
            out.append(Scheme("ns", spec, preemptive=False))
        elif spec.label == "IS":
            out.append(Scheme("is", spec, preemptive=True))
        else:
            sf = spec.label.split("=")[1].split()[0]
            kind = "tss" if spec.needs_baseline else "ss"
            out.append(Scheme(f"{kind}-sf{sf}", spec, preemptive=True))
    return out


class GridWorkload:
    """``compare_schemes`` over synthetic traces, then merged metrics.

    Inputs, outputs and fingerprints are per trace copy (``sdsc-2``);
    per-cell times sum over the copies of a trace (``sdsc.ss-sf2``).
    """

    def __init__(
        self, name: str, traces: list[TraceSpec], schemes: list[Scheme], with_report: bool
    ) -> None:
        self.name = name
        self.traces = traces
        self.schemes = schemes
        self.with_report = with_report
        self._calibrates = any(s.spec.needs_baseline for s in schemes)

    def _copies(self) -> list[tuple[TraceSpec, int]]:
        return [(t, i) for t in self.traces for i in range(t.copies)]

    def setup(self, seed: int, scratch: Path) -> dict[str, tuple[list[Job], int]]:
        inputs = {}
        for salt, (trace, i) in enumerate(self._copies()):
            base = synthetic.generate_trace(trace.preset, trace.n_jobs, seed=BASE_SEED + i)
            n_procs = get_preset(trace.preset).n_procs
            jobs = perturb_arrivals(base, seed, salt=salt)
            if trace.load_factor != 1.0:
                jobs = load.scale_load(jobs, trace.load_factor)
            inputs[f"{trace.label}-{i + 1}"] = (jobs, n_procs)
        return inputs

    def input_fingerprint(self, inputs: dict[str, tuple[list[Job], int]]) -> str:
        h = hashlib.sha256()
        for label, (jobs, n_procs) in inputs.items():
            h.update(f"{label}|{n_procs}|{cache.fingerprint_jobs(jobs)}\n".encode())
        return h.hexdigest()

    def _run_order(self) -> list[str]:
        """Per-cell metric stem of each simulation of one phase, in run order."""
        names = []
        for trace, _ in self._copies():
            if self._calibrates:
                names.append(f"{trace.label}.ns-calib")
            names.extend(f"{trace.label}.{s.name}" for s in self.schemes)
        return names

    def sim_names(self) -> list[str]:
        return list(dict.fromkeys(self._run_order()))

    def cell_times(self, clock: list[tuple[float, int]]) -> dict[str, tuple[float, int]]:
        names = self._run_order()
        if len(clock) != len(names):
            return {}
        out: dict[str, tuple[float, int]] = {}
        for name, (secs, jobs) in zip(names, clock, strict=True):
            total = out.get(name, (0.0, 0))
            out[name] = (total[0] + secs, total[1] + jobs)
        return out

    def run(
        self, inputs: dict[str, tuple[list[Job], int]], scratch: Path, sample: bool = True
    ) -> PhaseOutput:
        specs = [s.spec for s in self.schemes]
        outputs: dict[str, Any] = {}
        with spans.PhaseClock(sample) as clock:
            for copy, (jobs, n_procs) in inputs.items():
                try:
                    results = runner.compare_schemes(jobs, n_procs, specs)
                except Exception:  # a failed trace fails its cells; the others still run
                    traceback.print_exc(file=sys.stderr)
                    continue
                merged = {
                    label: (
                        aggregate.per_category_stats(res.jobs),
                        aggregate.overall_stats(res.jobs),
                    )
                    for label, res in results.items()
                }
                text = (
                    report.scheme_comparison_report(f"{self.name} {copy}", results)
                    if self.with_report
                    else None
                )
                outputs[copy] = (results, merged, text)
        return PhaseOutput(clock, outputs)

    def check(
        self,
        inputs: dict[str, tuple[list[Job], int]],
        out: PhaseOutput,
        pins: dict[str, str] | None,
    ) -> dict[str, str | None]:
        """Cell name -> outcome fingerprint, ``None`` for a failed cell."""
        cells: dict[str, str | None] = {}
        for copy, (jobs, _) in inputs.items():
            results, merged, text = out.outputs.get(copy, ({}, {}, None))
            for scheme in self.schemes:
                key = f"{copy}.{scheme.name}"
                label = scheme.spec.label
                fp = None
                if label in results:
                    fp = _check_cell(results[label], len(jobs), scheme.preemptive, merged[label])
                if text is not None and f"{label}=" not in text:
                    print(f"{key}: missing from the comparison report", file=sys.stderr)
                    fp = None
                if fp is not None and pins is not None and pins.get(key) != fp:
                    print(f"{key}: fingerprint differs from the pinned value", file=sys.stderr)
                    fp = None
                cells[key] = fp
        return cells

    def pin_view(self, cells: dict[str, str | None]) -> dict[str, str | None]:
        return dict(cells)


# ----------------------------------------------------------------------
# streaming SWF replay through the sharded executor and result cache
# ----------------------------------------------------------------------
@dataclass
class ReplayInputs:
    path: Path
    pipe: pipeline.WorkloadPipeline
    scheduler_config: dict[str, object]


class ReplayWorkload:
    """SWF log -> ``open_workload`` pipeline -> ``replay_sharded`` under EASY.

    The phase replays into a fresh :class:`ResultCache` (``wall_s``),
    then repeats the replay against the filled cache (``warm_wall_s``).
    """

    name = "swf-replay"
    n_procs = 128
    #: log size; with the gap and load below the machine runs ~50% busy,
    #: so queues stay short and parsing, sharding and caching take ~40% of the time
    n_jobs = 6000
    mean_gap = 2400
    load_factor = 1.25
    #: one simulated day per shard, ~45 jobs each
    window = 86400.0
    cell = "swf.easy"

    def setup(self, seed: int, scratch: Path) -> ReplayInputs:
        """Write the log, then rewrite it with the seed's arrival jitter.

        ``write_synthetic_swf`` has no seed; jittering its gaps (rounded
        to whole seconds, as SWF logs store them) makes the parsed log,
        and so every shard, depend on the seed.
        """
        base, path = scratch / "base.swf", scratch / "replay.swf"
        swf.write_synthetic_swf(base, self.n_jobs, n_procs=self.n_procs, mean_gap=self.mean_gap)
        records = swf.read_swf(base)
        submits = np.round(jitter_submits([r.submit_time for r in records], seed, salt=0))
        swf.write_swf(
            path,
            (replace(r, submit_time=float(t)) for r, t in zip(records, submits, strict=True)),
            swf.read_swf_header(base),
        )
        base.unlink()
        pipe = pipeline.WorkloadPipeline(
            [
                pipeline.LoadScaleStage(self.load_factor),
                pipeline.EstimateStage(InaccurateEstimates(), seed=seed),
            ]
        )
        return ReplayInputs(path, pipe, EasyBackfillScheduler().config())

    def input_fingerprint(self, inputs: ReplayInputs) -> str:
        return cache.fingerprint_jobs(list(pipeline.open_workload(inputs.path, inputs.pipe)))

    def sim_names(self) -> list[str]:
        return [self.cell]

    def cell_times(self, clock: list[tuple[float, int]]) -> dict[str, tuple[float, int]]:
        if not clock:
            return {}
        return {self.cell: (sum(s for s, _ in clock), sum(n for _, n in clock))}

    def _replay(
        self, inputs: ReplayInputs, result_cache: cache.ResultCache
    ) -> tuple[parallel.ShardedReplayOutcome, dict[Any, aggregate.CategoryStats]]:
        stream = pipeline.open_workload(inputs.path, inputs.pipe)
        outcome = parallel.replay_sharded(
            stream,
            self.n_procs,
            inputs.scheduler_config,
            window=self.window,
            workers=1,
            cache=result_cache,
            provenance={"pipeline": inputs.pipe.fingerprint()},
            shm=False,
        )
        return outcome, aggregate.per_category_stats(outcome.jobs)

    def run(self, inputs: ReplayInputs, scratch: Path, sample: bool = True) -> PhaseOutput:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        cold_cache = cache.ResultCache(cache_dir)
        with spans.PhaseClock(sample) as cold:
            cold_out = self._replay(inputs, cold_cache)
        warm_cache = cache.ResultCache(cache_dir)
        with spans.PhaseClock(sample) as warm:
            warm_out = self._replay(inputs, warm_cache)
        counts = {
            "experiments.cold_cache_hits": cold_cache.hits,
            "experiments.cache_misses": cold_cache.misses,
            "experiments.cache_hits": warm_cache.hits,
        }
        return PhaseOutput(cold, (cache_dir, cold_out, warm_out), warm, counts)

    def check(
        self, inputs: ReplayInputs, out: PhaseOutput, pins: dict[str, str] | None
    ) -> dict[str, str | None]:
        """Shard key -> outcome fingerprint (``None`` if failed); removes the cache."""
        cache_dir, (cold, cold_stats), (warm, _) = out.outputs
        try:
            cells = self._check_shards(inputs, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        if out.cache_counts["experiments.cold_cache_hits"] or cold.cache_hits:
            problems.append("cold pass hit the cache")
        if warm.executed or warm.cache_hits != cold.shards or warm.shards != len(cells):
            problems.append(f"warm pass executed {warm.executed} of {warm.shards} shards")
        if warm.fingerprint() != cold.fingerprint():
            problems.append("warm replay differs from cold replay")
        counted = sum(s.count for s in cold_stats.values())
        if not len(cold.jobs) == counted == self.n_jobs:
            problems.append(f"{counted} jobs in the metrics, want {self.n_jobs}")
        if pins is not None and pins.get(self.cell) != _digest(cells):
            problems.append("replay fingerprint differs from the pinned value")
        for problem in problems:
            print(f"{self.name}: {problem}", file=sys.stderr)
        if problems:
            return {key: None for key in cells}
        return cells

    def _check_shards(self, inputs: ReplayInputs, cache_dir: Path) -> dict[str, str | None]:
        """Audit each shard's committed result, read back from the cache."""
        store = cache.ResultCache(cache_dir)
        provenance = {"pipeline": inputs.pipe.fingerprint()}
        stream = pipeline.open_workload(inputs.path, inputs.pipe)
        cells: dict[str, str | None] = {}
        for shard in parallel.iter_time_shards(stream, self.window):
            cell = parallel.shard_cell(
                shard, self.n_procs, inputs.scheduler_config, provenance=provenance
            )
            result = store.get(cell.fingerprint())
            fp = None
            if result is not None:
                stats = aggregate.per_category_stats(result.jobs)
                fp = _check_cell(
                    result,
                    len(shard.jobs),
                    preemptive=False,
                    merged=(stats, aggregate.overall_stats(result.jobs)),
                )
            cells[f"swf.{shard.key}"] = fp
        return cells

    def pin_view(self, cells: dict[str, str | None]) -> dict[str, str | None]:
        """The pinned form: one digest over every shard's fingerprint."""
        return {self.cell: _digest(cells)}


_SDSC_HOT = TraceSpec("sdsc-hot", "SDSC", 150, copies=4, load_factor=1.8)

WORKLOADS: dict[str, GridWorkload | ReplayWorkload] = {
    "paper-grid": GridWorkload(
        "paper-grid",
        [TraceSpec("ctc", "CTC", 200), TraceSpec("sdsc", "SDSC", 100, copies=2)],
        _paper_schemes(),
        with_report=True,
    ),
    "congested-sweep": GridWorkload(
        "congested-sweep",
        [_SDSC_HOT],
        [
            Scheme(
                "ss-sf2",
                SchemeSpec("SS (SF = 2)", lambda: SelectiveSuspensionScheduler(2.0)),
                preemptive=True,
            ),
            Scheme(
                "tss-sf2",
                SchemeSpec("TSS (SF = 2)", lambda: TunableSelectiveSuspensionScheduler(2.0)),
                preemptive=True,
            ),
        ],
        with_report=False,
    ),
    "backfill-deep": GridWorkload(
        "backfill-deep",
        [_SDSC_HOT],
        [
            Scheme("conservative", SchemeSpec("CONS", ConservativeBackfillScheduler), False),
            Scheme("easy", SchemeSpec("EASY", EasyBackfillScheduler), False),
            Scheme("relaxed", SchemeSpec("RELAXED", RelaxedBackfillScheduler), False),
        ],
        with_report=False,
    ),
    "swf-replay": ReplayWorkload(),
}
