"""Experiment harness: run schemes over traces, regenerate paper results.

* :mod:`repro.experiments.runner` -- :func:`simulate` (one policy, one
  trace) and :func:`run_scheme_groups` (scheme configs over workloads
  through :func:`run_grid`, each distinct cell once; serial unless given
  workers), with :func:`compare_schemes` its one-workload form.
* :mod:`repro.experiments.parallel` -- :func:`run_grid`: grid cells run
  in-process or fanned out over a process pool with deterministic
  merging, incremental cache commits and crash/hang/broken-pool
  recovery governed by :class:`GridPolicy`.  Each pool receives its
  pending cells once, through the pool initializer, and each task names
  a cell by index, so a workload shared by many cells crosses to each
  worker at most once; plus
  :func:`replay_sharded`, which cuts a long (possibly streaming)
  workload into time-windowed shards and replays them through the same
  executor (docs/WORKLOADS.md).
* :mod:`repro.experiments.cache` -- :class:`ResultCache`, the
  content-addressed on-disk result store keyed by (workload, machine,
  scheduler config, overhead model, migratable flag) fingerprints.
* :mod:`repro.experiments.paper` -- each paper table/figure declared
  as cells plus a renderer; :func:`~repro.experiments.paper.run_figures`
  runs any set of them as one grid and returns the rows/series the
  paper plots, as plain data.
"""

from repro.experiments.cache import (
    ResultCache,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.experiments.parallel import (
    CellFailure,
    GridCell,
    GridExecutionError,
    GridOutcome,
    GridPolicy,
    ShardedReplayOutcome,
    WorkloadShard,
    iter_time_shards,
    outcome_fingerprint,
    replay_sharded,
    run_grid,
    shard_cell,
    simulate_cell,
    trace_files_for_keys,
)
from repro.experiments.runner import (
    SchemeGroup,
    SchemeSpec,
    SuspensionOverheadModel,
    compare_schemes,
    run_scheme_groups,
    simulate,
    standard_schemes,
    tuned_schemes,
)

__all__ = [
    "CellFailure",
    "GridCell",
    "GridExecutionError",
    "GridOutcome",
    "GridPolicy",
    "ResultCache",
    "SchemeGroup",
    "SchemeSpec",
    "ShardedReplayOutcome",
    "SuspensionOverheadModel",
    "WorkloadShard",
    "cell_fingerprint",
    "compare_schemes",
    "fingerprint_jobs",
    "iter_time_shards",
    "outcome_fingerprint",
    "replay_sharded",
    "run_grid",
    "run_scheme_groups",
    "shard_cell",
    "simulate",
    "simulate_cell",
    "standard_schemes",
    "trace_files_for_keys",
    "tuned_schemes",
]
