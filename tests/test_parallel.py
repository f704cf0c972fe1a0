"""Parallel experiment executor, result cache, scheduler registry.

The contract under test (see :mod:`repro.experiments.parallel`):

* a parallel run is **indistinguishable** from a serial one -- same
  keys, same order, same per-job schedules, bit for bit;
* a warm cache serves every cell without simulating anything
  (``GridOutcome.executed == 0``), whether a serial or a pooled run
  wrote it;
* a pool receives its cells once, through its initializer, so each
  task it is sent carries a cell index and never a workload;
* the cache fingerprint covers everything that changes results --
  trace, machine size, scheduler config (SF, interval, width rule,
  TSS limits), overhead model, migratable flag -- and nothing else.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from pathlib import Path
from typing import Callable

import pytest

from repro.core.overhead import DiskSwapOverheadModel, FixedOverheadModel
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import TunableSelectiveSuspensionScheduler
from repro.experiments import (
    GridCell,
    GridPolicy,
    ResultCache,
    cell_fingerprint,
    compare_schemes,
    fingerprint_jobs,
    run_grid,
    simulate,
    standard_schemes,
    tuned_schemes,
)
from repro.experiments import parallel, paper
from repro.experiments.parallel import resolve_workers
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.registry import known_schemes, scheduler_from_config
from repro.workload.synthetic import generate_trace

N_PROCS = 128


@pytest.fixture(scope="module")
def trace():
    return generate_trace("SDSC", n_jobs=1000, seed=11)


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace("SDSC", n_jobs=120, seed=5)


def schedule_signature(result):
    """Everything externally observable about one simulation."""
    return (
        result.scheduler,
        result.makespan,
        result.busy_proc_seconds,
        result.total_suspensions,
        result.events_dispatched,
        tuple(
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ),
    )


# ----------------------------------------------------------------------
# scheduler config round-trips (the registry the workers rely on)
# ----------------------------------------------------------------------
def test_config_round_trip_all_registered_schemes():
    for scheme in known_schemes():
        cfg = scheduler_from_config({"scheme": scheme}).config()
        rebuilt = scheduler_from_config(cfg)
        assert rebuilt.config() == cfg, scheme


def test_config_round_trip_preserves_parameters():
    s = SelectiveSuspensionScheduler(
        suspension_factor=5.0, preemption_interval=30.0, width_rule=False
    )
    rebuilt = scheduler_from_config(s.config())
    assert rebuilt.config() == s.config()
    assert rebuilt.preemption.criteria.suspension_factor == 5.0
    assert rebuilt.timer_interval == 30.0
    assert rebuilt.preemption.criteria.width_rule is False


def test_config_round_trip_tss_calibrated_limits(small_trace):
    ns = simulate(small_trace, EasyBackfillScheduler(), N_PROCS)
    from repro.core.tss import limits_from_result

    s = TunableSelectiveSuspensionScheduler(2.0, limits=limits_from_result(ns))
    cfg = s.config()
    rebuilt = scheduler_from_config(cfg)
    assert rebuilt.config() == cfg
    # and the rebuilt scheduler schedules identically
    a = simulate(small_trace, s, N_PROCS)
    b = simulate(small_trace, scheduler_from_config(cfg), N_PROCS)
    assert schedule_signature(a) == schedule_signature(b)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        scheduler_from_config({"scheme": "no-such-policy"})


# ----------------------------------------------------------------------
# parallel == serial
# ----------------------------------------------------------------------
def test_parallel_identical_to_serial(trace):
    serial = compare_schemes(trace, N_PROCS, standard_schemes())
    parallel = compare_schemes(
        trace, N_PROCS, standard_schemes(), workers=4
    )
    assert list(parallel) == list(serial)  # same keys, same order
    for label in serial:
        assert schedule_signature(parallel[label]) == schedule_signature(
            serial[label]
        ), label


def test_parallel_identical_to_serial_with_baseline_and_overhead(small_trace):
    overhead = DiskSwapOverheadModel()
    schemes = tuned_schemes(suspension_factors=(2.0,))
    serial = compare_schemes(small_trace, N_PROCS, schemes, overhead)
    parallel = compare_schemes(
        small_trace, N_PROCS, schemes, overhead, workers=3
    )
    assert list(parallel) == list(serial)
    for label in serial:
        assert schedule_signature(parallel[label]) == schedule_signature(
            serial[label]
        ), label


def test_run_grid_preserves_input_order(small_trace):
    cells = [
        GridCell(
            key=f"sf={sf}",
            jobs=small_trace,
            n_procs=N_PROCS,
            scheduler_config=SelectiveSuspensionScheduler(sf).config(),
        )
        for sf in (5.0, 1.5, 2.0)  # deliberately not sorted
    ]
    outcome = run_grid(cells, workers=3)
    assert list(outcome.results) == ["sf=5.0", "sf=1.5", "sf=2.0"]
    assert outcome.executed == 3
    assert outcome.cache_hits == 0


def test_run_grid_rejects_duplicate_keys(small_trace):
    cell = GridCell(
        key="dup",
        jobs=small_trace,
        n_procs=N_PROCS,
        scheduler_config=EasyBackfillScheduler().config(),
    )
    with pytest.raises(ValueError, match="duplicate"):
        run_grid([cell, cell])


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(0) >= 1  # one per CPU
    assert resolve_workers(7) == 7
    with pytest.raises(ValueError, match="workers must be >= 0"):
        resolve_workers(-3)


@pytest.mark.parametrize(
    "name, value",
    [
        ("cell_timeout", 0.0),
        ("cell_timeout", -5.0),
        ("cell_timeout", float("nan")),
        ("cell_retries", -2),
        ("backoff_base", -0.5),
        ("backoff_max", -1.0),
        ("pool_respawns", -1),
    ],
)
def test_grid_policy_rejects_invalid_values(name, value):
    """These values arrive from the CLI and REPRO_BENCH_* variables; a
    zero timeout would cull healthy cells, a negative budget would
    silently act as zero."""
    with pytest.raises(ValueError, match=name):
        GridPolicy(**{name: value})


# ----------------------------------------------------------------------
# the pool hand-off: one cell table per pool, an index per task
# ----------------------------------------------------------------------
class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: pickles what run_grid hands it.

    Tasks are not run; each future resolves to a placeholder, which is
    enough for run_grid to commit the cell.
    """

    made: list[_RecordingPool] = []

    def __init__(self, max_workers, initializer, initargs):
        self.initializer = initializer
        self.initargs = initargs
        self.task_bytes: list[int] = []
        _RecordingPool.made.append(self)

    def submit(self, fn, *args):
        self.task_bytes.append(len(pickle.dumps((fn, args))))
        fut: Future[str] = Future()
        fut.set_result("not simulated")
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_unpicklable_pool_task_fails_before_any_pool_starts(monkeypatch):
    """A task callable that cannot be pickled ends the grid with
    ``GridExecutionError`` before a pool exists, so no worker or pool
    thread is left to outlive the raise."""
    from repro.experiments import GridExecutionError

    cells = [
        GridCell(key, generate_trace("SDSC", n_jobs=20, seed=1), N_PROCS, {"scheme": key})
        for key in ("fcfs", "easy")
    ]
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(parallel, "_simulate_installed", lambda i: i)
    with pytest.raises(GridExecutionError, match="pickle") as excinfo:
        run_grid(cells, workers=2)
    assert _RecordingPool.made == []
    (failure,) = excinfo.value.failures.values()
    assert failure.resolution == "gave-up" and failure.attempts == 1


def test_pool_tasks_carry_an_index_not_the_workload(monkeypatch):
    jobs = generate_trace("SDSC", n_jobs=2000, seed=1)
    cells = [
        GridCell(
            key=f"sf={sf}",
            jobs=jobs,
            n_procs=N_PROCS,
            scheduler_config=SelectiveSuspensionScheduler(sf).config(),
        )
        for sf in (1.5, 2.0, 5.0)
    ]
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    outcome = run_grid(cells, workers=2)
    assert outcome.executed == len(cells)

    (pool,) = _RecordingPool.made
    assert len(pool.task_bytes) == len(cells)
    assert max(pool.task_bytes) < 1024  # an inline cell pickles to ~1 MB
    simulate_fn, table = pool.initargs
    assert simulate_fn is parallel.simulate_cell
    assert sorted(table) == list(range(len(cells)))
    assert all(table[i] is cell for i, cell in enumerate(cells))
    # pickle writes the shared job list once for the whole table
    assert len(pickle.dumps(pool.initargs)) < 2 * len(pickle.dumps(cells[0]))


def test_warm_cache_is_shared_between_serial_and_pooled_runs(small_trace, tmp_path):
    """One transport, one cache namespace: whichever of a serial and a
    pooled run writes the cache, the other is served from it."""
    cells = [
        GridCell(
            key=f"sf={sf}",
            jobs=small_trace,
            n_procs=N_PROCS,
            scheduler_config=SelectiveSuspensionScheduler(sf).config(),
        )
        for sf in (1.5, 2.0, 5.0)
    ]
    for first, second in ((1, 2), (2, 1)):
        cache = ResultCache(tmp_path / f"cache-{first}-then-{second}")
        cold = run_grid(cells, workers=first, cache=cache)
        assert cold.executed == len(cells)
        warm = run_grid(cells, workers=second, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == len(cells)
        for key in cold.results:
            assert schedule_signature(warm.results[key]) == schedule_signature(
                cold.results[key]
            ), key


def test_load_variation_pooled_cache_serves_serial_rerun(tmp_path):
    """The pooled and serial load sweeps key their cells alike: a serial
    rerun on the pooled run's cache simulates nothing and reports the
    same figures."""
    kwargs = {"loads": (1.0, 1.4), "n_jobs": 120, "seed": 3}
    pooled = paper.load_variation(
        "SDSC", workers=2, cache=ResultCache(tmp_path / "cache"), **kwargs
    )
    rerun_cache = ResultCache(tmp_path / "cache")
    serial = paper.load_variation("SDSC", cache=rerun_cache, **kwargs)
    assert rerun_cache.misses == 0 and rerun_cache.stores == 0
    assert serial.data == pooled.data
    assert serial.report == pooled.report


# ----------------------------------------------------------------------
# the result cache
# ----------------------------------------------------------------------
def test_warm_cache_runs_zero_simulations(small_trace, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    schemes = standard_schemes(suspension_factors=(2.0,))
    first = compare_schemes(
        small_trace, N_PROCS, schemes, workers=2, cache=cache
    )
    stored = len(cache)
    assert stored > 0

    cells = [
        GridCell(
            key=label,
            jobs=small_trace,
            n_procs=N_PROCS,
            scheduler_config=cfg,
        )
        for label, cfg in (
            ("SF = 2", SelectiveSuspensionScheduler(2.0).config()),
            ("No Suspension", EasyBackfillScheduler().config()),
        )
    ]
    outcome = run_grid(cells, workers=2, cache=cache)
    assert outcome.executed == 0  # fully warm: nothing simulated
    assert outcome.cache_hits == len(cells)
    assert len(cache) == stored  # nothing new written
    for label in ("SF = 2", "No Suspension"):
        assert schedule_signature(outcome.results[label]) == schedule_signature(
            first[label]
        )


def test_cached_result_identical_to_fresh(small_trace, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cell = GridCell(
        key="ss",
        jobs=small_trace,
        n_procs=N_PROCS,
        scheduler_config=SelectiveSuspensionScheduler(2.0).config(),
    )
    cold = run_grid([cell], cache=cache)
    warm = run_grid([cell], cache=cache)
    assert cold.executed == 1 and cold.cache_hits == 0
    assert warm.executed == 0 and warm.cache_hits == 1
    assert schedule_signature(cold.results["ss"]) == schedule_signature(
        warm.results["ss"]
    )


def test_fingerprint_sensitivity(small_trace):
    """The cache key must change with anything that changes results."""
    jobs_fp = fingerprint_jobs(small_trace)
    base = cell_fingerprint(
        jobs_fp, N_PROCS, SelectiveSuspensionScheduler(2.0).config(), None, False
    )

    # different SF
    assert base != cell_fingerprint(
        jobs_fp, N_PROCS, SelectiveSuspensionScheduler(1.5).config(), None, False
    )
    # different sweep interval
    assert base != cell_fingerprint(
        jobs_fp,
        N_PROCS,
        SelectiveSuspensionScheduler(2.0, preemption_interval=30.0).config(),
        None,
        False,
    )
    # width rule off
    assert base != cell_fingerprint(
        jobs_fp,
        N_PROCS,
        SelectiveSuspensionScheduler(2.0, width_rule=False).config(),
        None,
        False,
    )
    # overhead model present / different parameters
    with_oh = cell_fingerprint(
        jobs_fp,
        N_PROCS,
        SelectiveSuspensionScheduler(2.0).config(),
        DiskSwapOverheadModel(),
        False,
    )
    assert base != with_oh
    assert with_oh != cell_fingerprint(
        jobs_fp,
        N_PROCS,
        SelectiveSuspensionScheduler(2.0).config(),
        FixedOverheadModel(30.0),
        False,
    )
    # migratable flag
    assert base != cell_fingerprint(
        jobs_fp, N_PROCS, SelectiveSuspensionScheduler(2.0).config(), None, True
    )
    # machine size
    assert base != cell_fingerprint(
        jobs_fp, 256, SelectiveSuspensionScheduler(2.0).config(), None, False
    )
    # different trace (seed)
    other_fp = fingerprint_jobs(generate_trace("SDSC", n_jobs=120, seed=6))
    assert other_fp != jobs_fp
    assert base != cell_fingerprint(
        other_fp, N_PROCS, SelectiveSuspensionScheduler(2.0).config(), None, False
    )
    # ... and identical inputs reproduce the same fingerprint
    assert base == cell_fingerprint(
        jobs_fp, N_PROCS, SelectiveSuspensionScheduler(2.0).config(), None, False
    )


def test_jobs_fingerprint_order_sensitive(small_trace):
    reordered = list(reversed(small_trace))
    assert fingerprint_jobs(small_trace) != fingerprint_jobs(reordered)


def test_cache_survives_corrupt_entry(small_trace, tmp_path):
    """A garbage cache file is quarantined and treated as a miss."""
    cache = ResultCache(tmp_path / "cache")
    cell = GridCell(
        key="x",
        jobs=small_trace,
        n_procs=N_PROCS,
        scheduler_config=EasyBackfillScheduler().config(),
    )
    run_grid([cell], cache=cache)
    (path,) = list((tmp_path / "cache").rglob("*.pkl"))
    path.write_bytes(b"not a pickle")
    outcome = run_grid([cell], cache=cache)
    assert outcome.executed == 1  # re-simulated despite the bad file
    assert outcome.results["x"].n_procs == N_PROCS

    # the poisoned bytes were moved aside, not destroyed or served
    assert cache.corrupt == 1
    assert outcome.counters.cache_quarantines == 1
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.read_bytes() == b"not a pickle"
    # ... the fresh result repaired the canonical slot in passing ...
    assert path.exists() and len(cache) == 1  # *.corrupt is not an entry
    # ... so the next run is a plain hit again
    third = run_grid([cell], cache=cache)
    assert third.cache_hits == 1 and third.executed == 0
    assert cache.corrupt == 1  # no new quarantine
    assert schedule_signature(third.results["x"]) == schedule_signature(
        outcome.results["x"]
    )


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def check_cache_read_path(cache: ResultCache, monkeypatch: pytest.MonkeyPatch) -> None:
    """Fail unless ``get``, ``in`` and ``len`` change nothing under the
    cache root but moving corrupt bytes to a fresh ``.corrupt`` name.

    The store holds a hit, a miss, a corrupt entry, a corrupt slot whose
    ``.corrupt`` name an earlier quarantine took, and a corrupt entry
    read while ``rename`` fails.
    """
    hit, miss, bad, again, stuck = (c * 64 for c in "abcde")
    cache.put(hit, "result")
    for fp, data in ((bad, b"torn"), (again, b"second corruption"), (stuck, b"torn")):
        cache._path(fp).parent.mkdir(parents=True, exist_ok=True)
        cache._path(fp).write_bytes(data)
    cache._path(again).with_name(f"{again}.pkl.corrupt").write_bytes(b"first corruption")

    def read(op: Callable[..., object], *args: object) -> None:
        before = _files(cache.root)
        op(*args)
        after = _files(cache.root)
        kept = before.keys() & after.keys()
        assert {k: after[k] for k in kept} == {k: before[k] for k in kept}, "a read rewrote"
        dropped, moved = sorted(before.keys() - after.keys()), sorted(after.keys() - before.keys())
        assert len(dropped) <= 1 and [after[m] for m in moved] == [before[d] for d in dropped]
        assert all(m.startswith(f"{d}.corrupt") for d, m in zip(dropped, moved)), moved

    def failing_rename(self: Path, target: object) -> Path:
        raise OSError("read-only store")

    for fp in (hit, miss, bad, again):
        read(cache.__contains__, fp)
        read(cache.get, fp)
    read(len, cache)
    with monkeypatch.context() as m:
        m.setattr(Path, "rename", failing_rename)
        read(cache.get, stuck)
    assert cache.get(hit) == "result"


def test_cache_reads_only_quarantine(tmp_path, monkeypatch):
    """A lookup never deletes or rewrites the store: a corrupt entry
    moves to a fresh ``.corrupt`` name, earlier evidence included."""
    cache = ResultCache(tmp_path / "cache")
    check_cache_read_path(cache, monkeypatch)
    names = sorted(p.name[64:] for p in cache.root.rglob("d*.corrupt*"))
    assert names == [".pkl.corrupt", ".pkl.corrupt.1"]
    assert cache.corrupt == 2 and len(cache) == 2  # the stuck entry stayed


def test_grid_policy_from_env():
    from repro.experiments import GridPolicy

    assert GridPolicy.from_env({}) == GridPolicy()
    assert GridPolicy.from_env(
        {"REPRO_BENCH_CELL_TIMEOUT": "120", "REPRO_BENCH_CELL_RETRIES": "2"}
    ) == GridPolicy(cell_timeout=120.0, cell_retries=2)
    # empty values keep the defaults, other policy knobs untouched
    env_policy = GridPolicy.from_env({"REPRO_BENCH_CELL_TIMEOUT": ""})
    assert env_policy.cell_timeout is None
    assert env_policy.pool_respawns == GridPolicy().pool_respawns


# ----------------------------------------------------------------------
# per-cell tracing through the grid (docs/TRACING.md)
# ----------------------------------------------------------------------
def test_trace_file_for_key_sanitises():
    from repro.experiments.parallel import trace_file_for_key

    assert trace_file_for_key("d", "SF = 1.5").endswith("SF_1.5.jsonl")
    assert trace_file_for_key("d", "(SS, load 1.2)").endswith("SS_load_1.2.jsonl")
    assert trace_file_for_key("d", "///").endswith("cell.jsonl")


def test_trace_files_for_keys_disambiguates_collisions():
    from repro.experiments.parallel import trace_file_for_key, trace_files_for_keys

    # non-colliding keys keep the plain sanitised name
    plain = trace_files_for_keys("d", ["SF = 1.5", "SF = 2.0"])
    assert plain == {
        "SF = 1.5": trace_file_for_key("d", "SF = 1.5"),
        "SF = 2.0": trace_file_for_key("d", "SF = 2.0"),
    }

    # distinct keys that sanitise identically each get a key-hash suffix
    paths = trace_files_for_keys("d", ["SS load=1.2", "SS load 1.2"])
    assert len(set(paths.values())) == 2  # no silent interleaving
    for key, path in paths.items():
        assert path.startswith(str(__import__("pathlib").Path("d") / "SS_load_1.2-"))
        assert path.endswith(".jsonl")
    # the suffix depends only on the key: stable across calls
    assert trace_files_for_keys("d", ["SS load=1.2", "SS load 1.2"]) == paths


def test_run_grid_rejects_shared_trace_paths(small_trace, tmp_path):
    cells = [
        GridCell(
            key=key,
            jobs=small_trace,
            n_procs=N_PROCS,
            scheduler_config=EasyBackfillScheduler().config(),
            trace_path=str(tmp_path / "same.jsonl"),
        )
        for key in ("a", "b")
    ]
    with pytest.raises(ValueError, match="share trace paths"):
        run_grid(cells)


def test_run_grid_writes_traces_and_bypasses_cache(small_trace, tmp_path):
    from repro.obs import read_trace, summarize_trace

    cache = ResultCache(tmp_path / "cache")
    traced = GridCell(
        key="traced",
        jobs=small_trace,
        n_procs=N_PROCS,
        scheduler_config=EasyBackfillScheduler().config(),
        trace_path=str(tmp_path / "traced.jsonl"),
    )
    plain = GridCell(
        key="plain",
        jobs=small_trace,
        n_procs=N_PROCS,
        scheduler_config=EasyBackfillScheduler().config(),
    )
    first = run_grid([traced, plain], cache=cache)
    assert first.executed == 2 and first.cache_hits == 0
    assert first.trace_paths == {"traced": str(tmp_path / "traced.jsonl")}
    summary = summarize_trace(read_trace(tmp_path / "traced.jsonl"))
    assert summary.matches_run_end is True

    # warm cache: the plain cell hits, the traced cell re-simulates
    # (and rewrites its trace) -- traces record actual runs, never
    # cache hits, in either direction
    second = run_grid([traced, plain], cache=cache)
    assert second.cache_hits == 1
    assert second.executed == 1
    assert schedule_signature(first.results["traced"]) == schedule_signature(
        second.results["traced"]
    )


def test_parallel_trace_dir_matches_untraced_run(small_trace, tmp_path):
    from repro.obs import read_trace, summarize_trace

    schemes = standard_schemes([1.5])
    plain = compare_schemes(small_trace, N_PROCS, schemes, workers=2)
    traced = compare_schemes(
        small_trace, N_PROCS, schemes, workers=2, trace_dir=tmp_path / "traces"
    )
    assert list(plain) == list(traced)
    for label in plain:
        assert schedule_signature(plain[label]) == schedule_signature(traced[label])

    files = sorted((tmp_path / "traces").glob("*.jsonl"))
    assert len(files) == len(schemes)
    for path in files:
        summary = summarize_trace(read_trace(path))
        assert summary.matches_run_end is True


def test_traced_worker_results_match_trace_contents(small_trace, tmp_path):
    """The per-cell trace written by a pool worker must replay to the

    exact totals of the result the pool returned for that cell."""
    from repro.experiments.parallel import trace_file_for_key
    from repro.obs import read_trace, summarize_trace

    schemes = standard_schemes([2.0])
    results = compare_schemes(
        small_trace, N_PROCS, schemes, workers=2, trace_dir=tmp_path
    )
    for spec in schemes:
        path = trace_file_for_key(tmp_path, spec.label)
        summary = summarize_trace(read_trace(path))
        result = results[spec.label]
        assert summary.suspensions == result.total_suspensions
        assert summary.finished == len(result.jobs)
        assert abs(summary.busy_proc_seconds - result.busy_proc_seconds) <= 1e-6


def test_probe_memo_pins_jobs_lists(trace, tmp_path):
    """Satellite regression: the cache probe's identity memo must hold
    a reference to each list it fingerprints.  Transient per-cell lists
    (built in the ``cells`` expression and only reachable through the
    cells) must all land in the cache under their own fingerprints --
    an unpinned ``id()`` key could alias a recycled id to a stale
    fingerprint and serve the wrong workload's result."""
    cfg = EasyBackfillScheduler().config()
    cache = ResultCache(tmp_path / "cache")
    variants = [trace[: 40 + i] for i in range(4)]  # distinct workloads
    cells = [
        GridCell(key=f"v{i}", jobs=list(v), n_procs=N_PROCS, scheduler_config=cfg)
        for i, v in enumerate(variants)
    ]
    run_grid(cells, cache=cache)
    for i, v in enumerate(variants):
        probe = GridCell(
            key=f"probe{i}", jobs=list(v), n_procs=N_PROCS, scheduler_config=cfg
        )
        hit = run_grid([probe], cache=cache)
        assert hit.cache_hits == 1, f"variant {i} missed its own cache entry"
        assert len({j.job_id for j in hit.results[f"probe{i}"].jobs}) == len(v)
