"""Fault-tolerant process-pool experiment execution with deterministic merging.

The paper's evaluation is an embarrassingly parallel grid -- scheme x
trace x seed x load x overhead cells that share nothing at run time.
:func:`run_grid` runs such cells in-process or fans them out over
``multiprocessing`` workers, survives worker crashes / hangs / killed
pools, and merges the results deterministically:

* every cell is a :class:`GridCell` -- pristine jobs plus a
  **JSON-stable scheduler config** (:meth:`Scheduler.config`), because
  scheduler *instances* hold run state and do not pickle; the worker
  rebuilds a fresh instance via
  :func:`repro.schedulers.registry.scheduler_from_config`;
* a process pool receives the grid's pending cells **once**, through
  its initializer, and each task names a cell by index -- under
  ``fork`` the workers inherit the table, under ``spawn`` each worker
  unpickles it once (pickle writes a job list shared by many cells
  once), so no cell's workload rides in its task;
* results are collected in **completion order** (so every fresh result
  is committed to the :class:`~repro.experiments.cache.ResultCache` the
  moment it exists -- a killed run loses zero finished cells) but merged
  in **input order**, so a parallel run is indistinguishable from a
  serial one (the simulator itself is deterministic -- see
  :mod:`repro.sim.driver`);
* a :class:`GridPolicy` bounds each cell with a timeout and a retry
  budget (exponential backoff), respawns a broken pool, and degrades to
  in-process execution when the pool cannot be trusted; what happened is
  reported structurally via :attr:`GridOutcome.failures`
  (:class:`CellFailure` per disturbed cell) and
  :class:`~repro.obs.counters.GridCounters`;
* an optional :class:`~repro.experiments.cache.ResultCache` short-cuts
  cells whose fingerprint was computed by any earlier run -- including a
  run that crashed partway through, because commits are incremental.

:func:`~repro.experiments.runner.run_scheme_groups` runs the paper's
scheme comparisons through :func:`run_grid`; a pooled run is verified
byte-identical to the in-process one by ``tests/test_parallel.py``; the
recovery paths are proven by ``tests/test_fault_tolerance.py`` against
the deterministic fault-injection harness in ``tests/fault_injection.py``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from math import inf
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.experiments.cache import ResultCache, cell_fingerprint, fingerprint_jobs
from repro.experiments.runner import simulate
from repro.obs.counters import GridCounters
from repro.schedulers.registry import scheduler_from_config
from repro.sim.driver import SimulationResult, SuspensionOverheadModel
from repro.workload.job import Job


@dataclass(frozen=True)
class GridCell:
    """One independent simulation of the experiment grid.

    ``key`` is the caller's name for the cell (scheme label, "(scheme,
    load)" string, ...) and must be unique within one :func:`run_grid`
    call -- it keys the merged result dict.  ``jobs`` is never mutated
    (the simulation runs on fresh copies), so many cells may share one
    list.
    """

    key: str
    jobs: list[Job]
    n_procs: int = 0
    #: stored as the built scheduler's own :meth:`~repro.schedulers.base.Scheduler.config`,
    #: so equal schedulers share one fingerprint however the caller
    #: spelt the config, and a malformed config fails here
    scheduler_config: Mapping[str, object] = field(default_factory=dict)
    overhead_model: SuspensionOverheadModel | None = None
    migratable: bool = False
    #: optional JSONL decision-trace destination (see docs/TRACING.md).
    #: A path -- not a recorder -- so the cell stays picklable; the
    #: worker process opens its own :class:`~repro.obs.recorder.JsonlRecorder`
    #: and streams events as the cell simulates.  Traced cells bypass
    #: the result cache entirely (both read and write): a trace is the
    #: record of an *actual* run, and cache-served results would leave
    #: the file unwritten.
    trace_path: str | None = None
    #: optional extra cache-keying context (JSON-stable).  The sharded
    #: replay path stores the workload-pipeline fingerprint and shard
    #: window here; ``None`` leaves fingerprints exactly as before.
    provenance: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError(f"cell {self.key!r}: n_procs must be >= 1")
        if not self.scheduler_config:
            raise ValueError(f"cell {self.key!r}: scheduler_config is required")
        config = scheduler_from_config(self.scheduler_config).config()
        object.__setattr__(self, "scheduler_config", config)

    def jobs_fingerprint(self) -> str:
        """Workload hash feeding the cache key."""
        return fingerprint_jobs(self.jobs)

    def fingerprint(self, jobs_fp: str | None = None) -> str:
        """Content address for the cache; *jobs_fp* skips re-hashing."""
        return cell_fingerprint(
            jobs_fp if jobs_fp is not None else self.jobs_fingerprint(),
            self.n_procs,
            self.scheduler_config,
            self.overhead_model,
            self.migratable,
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class GridPolicy:
    """Fault-tolerance knobs for one grid execution.

    The defaults are deliberately conservative -- no timeout, no
    retries, one pool respawn -- so an undisturbed grid behaves exactly
    as before.  Timeouts only bind in pool mode: an in-process cell
    cannot be preempted from within, so serial/degraded execution
    honours the retry budget but not ``cell_timeout``.
    """

    #: seconds a cell may run on a worker before it is declared hung and
    #: its worker culled (``None`` = wait forever).  The clock starts
    #: when the cell is handed to the pool; submission is throttled to
    #: the worker count, so queue wait does not eat into the budget.
    cell_timeout: float | None = None
    #: failed attempts a cell may retry beyond its first try
    cell_retries: int = 0
    #: base of the exponential backoff slept before a retry
    #: (``backoff_base * 2**(failed_attempts - 1)`` seconds, 0 = none)
    backoff_base: float = 0.5
    #: ceiling on any single backoff sleep
    backoff_max: float = 30.0
    #: times a ``BrokenProcessPool`` may be answered by building a fresh
    #: pool before the executor degrades to in-process execution
    pool_respawns: int = 1

    def __post_init__(self) -> None:
        # the values arrive from --cell-timeout / --cell-retries and the
        # REPRO_BENCH_* variables; a zero or negative timeout would cull
        # healthy cells, a negative budget would silently mean zero
        timeout = self.cell_timeout
        if timeout is not None and not timeout > 0:
            raise ValueError(f"cell_timeout must be positive or None, got {timeout}")
        for name in ("cell_retries", "backoff_base", "backoff_max", "pool_respawns"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @classmethod
    def from_env(
        cls, env: Mapping[str, str] | None = None, prefix: str = "REPRO_BENCH_"
    ) -> GridPolicy:
        """Policy from ``<prefix>CELL_TIMEOUT`` / ``<prefix>CELL_RETRIES``.

        Unset/empty variables keep the defaults; the benches use this so
        ``REPRO_BENCH_CELL_TIMEOUT=120 REPRO_BENCH_CELL_RETRIES=2``
        hardens a long overnight sweep without touching code.
        """
        if env is None:
            env = os.environ
        timeout = env.get(prefix + "CELL_TIMEOUT", "")
        retries = env.get(prefix + "CELL_RETRIES", "")
        return cls(
            cell_timeout=float(timeout) if timeout else cls.cell_timeout,
            cell_retries=int(retries) if retries else cls.cell_retries,
        )


@dataclass
class CellFailure:
    """What went wrong (and how it ended) for one disturbed cell.

    Recorded in :attr:`GridOutcome.failures` for every cell that lost at
    least one attempt, *including* cells that subsequently recovered --
    the report is the forensic record the ROADMAP's production framing
    requires, not just the error message of the final state.
    """

    key: str
    #: exception type name of the most recent failure (``"TimeoutError"``
    #: for hangs, ``"BrokenProcessPool"`` for cells lost with the pool)
    exc_type: str
    #: message of the most recent failure
    message: str
    #: failed attempts so far (pool losses are recorded but not charged)
    attempts: int
    #: what happened to the worker: ``"crashed"`` (raised, or its task
    #: could not be pickled for any worker), ``"hung"``
    #: (exceeded the cell timeout, worker culled) or ``"lost"`` (the
    #: pool died under it -- fault not attributable to this cell)
    worker_fate: str
    #: whether the cell eventually produced a result
    resolved: bool = False
    #: how it resolved: ``"retry"`` (same pool), ``"pool-respawn"``
    #: (after a rebuild), ``"in-process"`` (degraded mode) or
    #: ``"gave-up"`` (retry budget exhausted -- the grid raised)
    resolution: str | None = None


class GridExecutionError(RuntimeError):
    """A cell exhausted its retry budget; the grid cannot complete.

    Everything that *did* finish before the raise was already committed
    to the cache (commits are incremental), so a re-run after fixing the
    fault resumes with those cells as hits.  ``failures`` carries the
    full :class:`CellFailure` report, ``key`` the fatal cell.
    """

    def __init__(self, key: str, failures: dict[str, CellFailure]) -> None:
        fatal = failures[key]
        super().__init__(
            f"grid cell {key!r} failed permanently after {fatal.attempts} "
            f"attempt(s): {fatal.exc_type}: {fatal.message}"
        )
        self.key = key
        self.failures = failures


@dataclass
class GridOutcome:
    """What :func:`run_grid` hands back.

    ``results`` preserves cell input order.  ``executed`` counts cells
    actually simulated (this process or its workers); ``cache_hits``
    counts cells served from the cache.  ``executed == 0`` on a fully
    warm cache -- the property bench and tests assert on.
    """

    results: dict[str, SimulationResult] = field(default_factory=dict)
    executed: int = 0
    cache_hits: int = 0
    #: cell key -> written JSONL trace file, for cells with a
    #: ``trace_path`` (empty when nothing was traced)
    trace_paths: dict[str, str] = field(default_factory=dict)
    #: cell key -> failure report, for every cell that lost at least one
    #: attempt (empty on an undisturbed run; recovered cells appear here
    #: with ``resolved=True``)
    failures: dict[str, CellFailure] = field(default_factory=dict)
    #: executor-level recovery tallies (all zeros when nothing happened)
    counters: GridCounters = field(default_factory=GridCounters)


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count argument.

    ``None`` / ``1`` -> 1 (in-process, no pool); ``0`` -> one per CPU;
    any other count is taken literally.  A negative count raises
    :class:`ValueError`.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)


def simulate_cell(cell: GridCell) -> SimulationResult:
    """Run one cell; module-level so worker processes can unpickle it.

    When the cell carries a ``trace_path`` the recorder is constructed
    *here*, inside the (possibly worker) process, so events stream
    straight to the per-cell file without crossing process boundaries.

    This is also the executor's injection seam: :func:`run_grid` accepts
    any picklable drop-in via ``simulate_fn`` -- the fault-injection
    harness wraps this function to crash/hang/kill deterministically.
    """
    scheduler = scheduler_from_config(cell.scheduler_config)
    if cell.trace_path is not None:
        from repro.obs.recorder import JsonlRecorder

        with JsonlRecorder(cell.trace_path) as recorder:
            return simulate(
                cell.jobs,
                scheduler,
                cell.n_procs,
                cell.overhead_model,
                migratable=cell.migratable,
                recorder=recorder,
            )
    return simulate(
        cell.jobs,
        scheduler,
        cell.n_procs,
        cell.overhead_model,
        migratable=cell.migratable,
    )


#: what a pool worker simulates: ``(simulate_fn, cell index -> cell)``,
#: set once per worker process by :func:`_install_cells`
_worker_cells: tuple[
    Callable[[GridCell], SimulationResult], Mapping[int, GridCell]
] | None = None


def _install_cells(
    simulate_fn: Callable[[GridCell], SimulationResult], cells: Mapping[int, GridCell]
) -> None:
    """Pool initializer: keep the grid's cell table in this worker."""
    global _worker_cells
    _worker_cells = (simulate_fn, cells)


def _simulate_installed(i: int) -> SimulationResult:
    """Pool task: simulate cell *i* of the table :func:`_install_cells` kept."""
    assert _worker_cells is not None, "worker started without its cell table"
    simulate_fn, cells = _worker_cells
    return simulate_fn(cells[i])


class _GridExecution:
    """One fault-tolerant pass over the pending cells of a grid.

    State machine per cell::

        queued -> running -> committed
                    |-- raised ----------> retry (backoff) or gave-up
                    |-- past deadline ---> worker culled, retry or gave-up
                    '-- pool died -------> resubmitted uncharged
                                           (respawn budget, else degrade)

    ``gave-up`` raises :class:`GridExecutionError`; every other edge
    keeps the grid running.  Results are committed (slot + cache) in
    completion order the moment they exist.
    """

    def __init__(
        self,
        cells: Sequence[GridCell],
        slots: list[SimulationResult | None],
        fingerprints: list[str | None],
        cache: ResultCache | None,
        policy: GridPolicy,
        outcome: GridOutcome,
        simulate_fn: Callable[[GridCell], SimulationResult],
    ) -> None:
        self.cells = cells
        self.slots = slots
        self.fingerprints = fingerprints
        self.cache = cache
        self.policy = policy
        self.outcome = outcome
        self.simulate_fn = simulate_fn
        self.queue: deque[int] = deque()
        self.attempts: dict[int, int] = {}
        self.respawns_left = policy.pool_respawns
        self.pool_generation = 0
        self.degraded = False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, i: int, result: SimulationResult) -> None:
        """A fresh result exists: fill the slot and persist it *now*."""
        self.slots[i] = result
        self.outcome.executed += 1
        cell = self.cells[i]
        if self.cache is not None and cell.trace_path is None:
            fp = self.fingerprints[i]
            assert fp is not None
            self.cache.put(fp, result)
        failure = self.outcome.failures.get(cell.key)
        if failure is not None and not failure.resolved:
            failure.resolved = True
            if self.degraded:
                failure.resolution = "in-process"
            elif self.pool_generation > 0:
                failure.resolution = "pool-respawn"
            else:
                failure.resolution = "retry"

    def _record_failure(
        self, i: int, exc: BaseException, fate: str, charged: bool
    ) -> CellFailure:
        key = self.cells[i].key
        if charged:
            self.attempts[i] = self.attempts.get(i, 0) + 1
        failure = CellFailure(
            key=key,
            exc_type=type(exc).__name__,
            message=str(exc),
            attempts=self.attempts.get(i, 0),
            worker_fate=fate,
        )
        self.outcome.failures[key] = failure
        return failure

    def _charge_failed_attempt(self, i: int, exc: BaseException, fate: str) -> None:
        """Charge a failed attempt: give up (raise) or sleep the backoff."""
        failure = self._record_failure(i, exc, fate, charged=True)
        if self.attempts[i] > self.policy.cell_retries:
            failure.resolution = "gave-up"
            raise GridExecutionError(failure.key, self.outcome.failures) from exc
        self.outcome.counters.retries += 1
        delay = min(
            self.policy.backoff_max,
            self.policy.backoff_base * 2 ** (self.attempts[i] - 1),
        )
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------
    # in-process execution (serial mode, or degraded after pool loss)
    # ------------------------------------------------------------------
    def run_serial(self) -> None:
        while self.queue:
            i = self.queue.popleft()
            if self.degraded:
                self.outcome.counters.degraded_cells += 1
            while True:
                try:
                    result = self.simulate_fn(self.cells[i])
                except Exception as exc:
                    self._charge_failed_attempt(i, exc, "crashed")
                    continue  # retry in place, preserving cell order
                self._commit(i, result)
                break

    # ------------------------------------------------------------------
    # pool execution
    # ------------------------------------------------------------------
    def run_pool(self, n_workers: int) -> None:
        try:  # every task pickles this callable: fail before any worker starts
            pickle.dumps(_simulate_installed)
        except Exception as exc:
            failure = self._record_failure(self.queue[0], exc, "crashed", charged=True)
            failure.resolution = "gave-up"
            raise GridExecutionError(failure.key, self.outcome.failures) from exc
        # every pool, a respawned one too, gets the same table: the
        # cells still queued when the first pool starts
        table = {i: self.cells[i] for i in self.queue}
        while self.queue and not self.degraded:
            pool = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_install_cells,
                initargs=(self.simulate_fn, table),
            )
            try:
                drained = self._drain_with_pool(pool, n_workers)
            except BaseException:
                _kill_pool(pool)
                raise
            if drained:
                pool.shutdown(wait=True)
                return
            self.pool_generation += 1
        if self.queue:  # pool given up on: finish in-process
            self.run_serial()

    def _drain_with_pool(self, pool: ProcessPoolExecutor, n_workers: int) -> bool:
        """Pump the queue through *pool*.

        Returns ``True`` once every cell committed; ``False`` when the
        pool had to be abandoned (broken or hosting a hung worker) --
        the in-flight cells are already back on the queue and the
        respawn/degrade decision is taken.
        """
        inflight: dict[Future[SimulationResult], int] = {}
        deadlines: dict[int, float] = {}
        timeout = self.policy.cell_timeout
        while self.queue or inflight:
            while self.queue and len(inflight) < n_workers:
                i = self.queue.popleft()
                inflight[pool.submit(_simulate_installed, i)] = i
                if timeout is not None:
                    # repro-lint: disable=RPR002 -- executor deadline clock, not simulation state
                    deadlines[i] = time.monotonic() + timeout
            wait_for: float | None = None
            if deadlines:
                # repro-lint: disable=RPR002 -- executor deadline clock, not simulation state
                wait_for = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED)
            if not done:
                if self._cull_overdue(pool, inflight, deadlines):
                    return False
                continue
            pool_lost = False
            for fut in done:
                i = inflight.pop(fut)
                deadlines.pop(i, None)
                exc = fut.exception()
                if exc is None:
                    self._commit(i, fut.result())
                elif isinstance(exc, BrokenProcessPool):
                    # the pool died under this cell; fault not attributable
                    self._record_failure(i, exc, "lost", charged=False)
                    self.queue.appendleft(i)
                    pool_lost = True
                else:
                    self._charge_failed_attempt(i, exc, "crashed")
                    self.queue.append(i)
            if pool_lost:
                for i in inflight.values():
                    self._record_failure(
                        i,
                        BrokenProcessPool("pool died with cell in flight"),
                        "lost",
                        charged=False,
                    )
                    self.queue.appendleft(i)
                self._abandon_pool(pool)
                if self.respawns_left > 0:
                    self.respawns_left -= 1
                    self.outcome.counters.pool_respawns += 1
                else:
                    self.degraded = True
                return False
        return True

    def _cull_overdue(
        self,
        pool: ProcessPoolExecutor,
        inflight: dict[Future[SimulationResult], int],
        deadlines: dict[int, float],
    ) -> bool:
        """Handle a wait() that expired: kill the pool if a cell is hung.

        A hung worker cannot be reclaimed individually (process-pool
        futures are uncancellable once running), so the whole pool is
        culled and rebuilt; innocents go back on the queue uncharged.
        Returns ``True`` when the pool was culled.
        """
        # repro-lint: disable=RPR002 -- executor deadline clock, not simulation state
        now = time.monotonic()
        overdue = {i for i in inflight.values() if deadlines.get(i, now + 1) <= now}
        if not overdue:
            return False  # spurious wakeup: no deadline actually passed
        for i in inflight.values():
            if i in overdue:
                self.outcome.counters.timeouts += 1
                self._charge_failed_attempt(
                    i,
                    TimeoutError(
                        f"cell exceeded cell_timeout={self.policy.cell_timeout}s"
                    ),
                    "hung",
                )
                self.queue.append(i)
            else:
                self.queue.appendleft(i)
        self._abandon_pool(pool)
        self.outcome.counters.pool_respawns += 1
        return True

    def _abandon_pool(self, pool: ProcessPoolExecutor) -> None:
        _kill_pool(pool)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on its (possibly hung) workers.

    The workers are killed first, so the pool's manager thread sees them
    die and ends; it is joined, so no thread of a killed pool outlives
    the call.
    """
    processes = getattr(pool, "_processes", None) or {}
    manager = getattr(pool, "_executor_manager_thread", None)
    for proc in list(processes.values()):
        try:
            proc.kill()
        except (OSError, ValueError):  # already dead / never started
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join()


def run_grid(
    cells: Sequence[GridCell],
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
    counters: GridCounters | None = None,
    simulate_fn: Callable[[GridCell], SimulationResult] | None = None,
) -> GridOutcome:
    """Execute *cells*, in parallel and/or from cache, merging deterministically.

    Parameters
    ----------
    cells:
        The grid; keys must be unique (and so must any trace paths).
    workers:
        See :func:`resolve_workers`.  With one worker everything runs
        in-process (no pool, no pickling), which is also the fallback
        when only one cell needs simulating.  A pool receives the
        pending cells once, through its initializer, and each task
        carries only a cell index.
    cache:
        Optional result cache; hits skip simulation entirely and every
        fresh result is stored back **the moment it completes**, so an
        interrupted run resumes from its last finished cell.
    policy:
        Fault-tolerance knobs (:class:`GridPolicy`); ``None`` means the
        conservative defaults (no timeout, no retries, one respawn).
    counters:
        Optional caller-owned :class:`~repro.obs.counters.GridCounters`
        accumulator; when given it becomes ``outcome.counters``, letting
        callers that only see the merged dict (the CLI) still report
        recovery activity.
    simulate_fn:
        Drop-in for :func:`simulate_cell`; must be a picklable callable
        (module-level function or :func:`functools.partial` of one) in
        pool mode.  This is the fault-injection seam -- production code
        never passes it.

    The result dict iterates in cell input order regardless of worker
    completion order, and each value is bit-for-bit the result a serial
    run would produce (the simulation itself is deterministic and
    workers share nothing).  A cell that exhausts its retry budget
    raises :class:`GridExecutionError` -- with everything already
    finished safely committed to the cache.
    """
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate grid cell keys: {dupes}")
    traced = [c.trace_path for c in cells if c.trace_path is not None]
    if len(set(traced)) != len(traced):
        dupes = sorted({p for p in traced if traced.count(p) > 1})
        raise ValueError(
            f"distinct cells share trace paths (their events would interleave): {dupes}"
        )

    if policy is None:
        policy = GridPolicy()
    if simulate_fn is None:
        simulate_fn = simulate_cell
    slots: list[SimulationResult | None] = [None] * len(cells)
    outcome = GridOutcome(counters=counters if counters is not None else GridCounters())

    # cache lookup -- fingerprint each cell, memoising the workload hash
    # by identity (grids typically reuse one jobs list across schemes).
    # The memo value PINS the keyed object: an id() key alone would go
    # stale if the list were collected and its id recycled by a
    # different workload, silently aliasing it to the old fingerprint.
    # Traced cells never consult the cache: the trace is the record of
    # an actual run (see GridCell.trace_path).
    pending: list[int] = []
    fingerprints: list[str | None] = [None] * len(cells)
    jobs_fp_memo: dict[int, tuple[list[Job], str]] = {}

    def _jobs_fp(cell: GridCell) -> str:
        pinned = jobs_fp_memo.get(id(cell.jobs))
        if pinned is None or pinned[0] is not cell.jobs:
            pinned = (cell.jobs, cell.jobs_fingerprint())
            jobs_fp_memo[id(cell.jobs)] = pinned
        return pinned[1]

    if cache is not None:
        quarantined_before = cache.corrupt
        for i, cell in enumerate(cells):
            if cell.trace_path is not None:
                pending.append(i)
                continue
            fp = cell.fingerprint(_jobs_fp(cell))
            fingerprints[i] = fp
            hit = cache.get(fp)
            if hit is not None:
                slots[i] = hit
                outcome.cache_hits += 1
            else:
                pending.append(i)
        outcome.counters.cache_quarantines += cache.corrupt - quarantined_before
    else:
        pending = list(range(len(cells)))

    n_workers = min(resolve_workers(workers), max(len(pending), 1))
    if pending:
        execution = _GridExecution(
            cells, slots, fingerprints, cache, policy, outcome, simulate_fn
        )
        execution.queue.extend(pending)
        if n_workers > 1:
            execution.run_pool(n_workers)
        else:
            execution.run_serial()

    for cell, result in zip(cells, slots, strict=True):
        assert result is not None
        outcome.results[cell.key] = result
        if cell.trace_path is not None:
            outcome.trace_paths[cell.key] = cell.trace_path
    return outcome


def _sanitise_key(key: str) -> str:
    """Filesystem-safe stem for a free-form cell key."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("_") or "cell"


def trace_file_for_key(trace_dir: str | Path, key: str) -> str:
    """Per-cell JSONL path under *trace_dir*, with a filesystem-safe name.

    Cell keys are free-form labels (``"SF = 1.5"``, ``"(SS, load 1.2)"``);
    every run of characters outside ``[A-Za-z0-9._-]`` collapses to one
    underscore.  Distinct keys that sanitise identically would collide --
    :func:`trace_files_for_keys` detects that across a whole key set and
    disambiguates with a key-hash suffix; prefer it whenever more than
    one cell is traced into the same directory.
    """
    return str(Path(trace_dir) / f"{_sanitise_key(key)}.jsonl")


def trace_files_for_keys(
    trace_dir: str | Path, keys: Sequence[str]
) -> dict[str, str]:
    """Collision-free per-cell JSONL paths for *keys* under *trace_dir*.

    Keys whose sanitised stems are unique get the plain
    :func:`trace_file_for_key` name; keys that collide (``"SS load=1.2"``
    vs ``"SS load 1.2"`` both sanitise to ``SS_load_1.2``) each get a
    short hash of the *original* key appended, so no two cells can ever
    silently interleave their events in one file.
    """
    stems: dict[str, list[str]] = {}
    for key in keys:
        stems.setdefault(_sanitise_key(key), []).append(key)
    paths: dict[str, str] = {}
    for stem, group in stems.items():
        if len(group) == 1:
            paths[group[0]] = str(Path(trace_dir) / f"{stem}.jsonl")
        else:
            for key in group:
                suffix = hashlib.sha256(key.encode()).hexdigest()[:8]
                paths[key] = str(Path(trace_dir) / f"{stem}-{suffix}.jsonl")
    if len(set(paths.values())) != len(paths):  # pragma: no cover - hash clash
        raise ValueError(f"could not disambiguate trace paths for keys: {sorted(keys)}")
    return paths


# ----------------------------------------------------------------------
# workload sharding: one long log -> time-windowed grid cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadShard:
    """One time window of a long workload, ready to become a grid cell.

    ``start``/``end`` bound the submit-time window ``[start, end)``
    (``end`` is ``inf`` for an explicit tail shard); ``index`` is the
    shard's position in the stream (0-based, counting only non-empty
    windows).  Jobs keep their absolute submit times -- each shard is
    simulated independently on an empty machine, so the driver simply
    idles until the window's first arrival.
    """

    index: int
    start: float
    end: float
    jobs: tuple[Job, ...]

    @property
    def key(self) -> str:
        """Stable cell key: shard index + window bounds."""
        return f"shard{self.index:05d}@[{self.start:g},{self.end:g})"


def iter_time_shards(jobs: Iterable[Job], window: float) -> Iterator[WorkloadShard]:
    """Split a submit-sorted job stream into ``window``-second shards.

    Streaming: holds one shard's jobs at a time, so a months-long log
    costs one window of memory.  Window boundaries are absolute
    multiples of *window* from t=0 (where the SWF loaders rebase the
    trace), so the split depends only on (jobs, window) -- never on
    batching or worker count.  Empty windows produce no shard.

    *window* must be positive and finite: an infinite one would start
    the first shard at ``0 * inf``, which is NaN.  Raises
    :class:`ValueError` on an out-of-order submit too: sharding an
    unsorted stream would silently scatter jobs across wrong windows.
    """
    if not 0 < window < inf:  # also rejects NaN
        raise ValueError(f"shard window must be positive and finite, got {window}")
    index = 0
    bucket: list[Job] = []
    bucket_start: float | None = None
    window_end: float | None = None
    prev_submit: float | None = None
    for job in jobs:
        if prev_submit is not None and job.submit_time < prev_submit:
            raise ValueError(
                f"job {job.job_id}: submit time {job.submit_time} is before the "
                f"previous job's {prev_submit}; sharding needs a submit-sorted "
                "stream (see docs/WORKLOADS.md)"
            )
        prev_submit = job.submit_time
        if window_end is None:
            k = int(job.submit_time // window)
            bucket_start = k * window
            window_end = (k + 1) * window
        while job.submit_time >= window_end:
            if bucket:
                assert bucket_start is not None
                yield WorkloadShard(index, bucket_start, window_end, tuple(bucket))
                index += 1
                bucket = []
            bucket_start = window_end
            window_end += window
        bucket.append(job)
    if bucket:
        assert bucket_start is not None and window_end is not None
        yield WorkloadShard(index, bucket_start, window_end, tuple(bucket))


def shard_cell(
    shard: WorkloadShard,
    n_procs: int,
    scheduler_config: Mapping[str, object],
    overhead_model: SuspensionOverheadModel | None = None,
    migratable: bool = False,
    provenance: Mapping[str, object] | None = None,
    trace_dir: str | Path | None = None,
) -> GridCell:
    """Wrap one shard as a :class:`GridCell` with self-describing provenance.

    The cell's cache key covers the shard's jobs (hash), the machine and
    policy, *and* a provenance record naming the shard window plus any
    caller context (typically the workload-pipeline fingerprint) -- so a
    cached shard is only ever served back to an identical replay.
    """
    prov: dict[str, object] = {
        "shard": {"index": shard.index, "start": shard.start, "end": shard.end},
    }
    if provenance:
        prov.update(provenance)
    return GridCell(
        key=shard.key,
        jobs=list(shard.jobs),
        n_procs=n_procs,
        scheduler_config=scheduler_config,
        overhead_model=overhead_model,
        migratable=migratable,
        trace_path=(
            trace_file_for_key(trace_dir, shard.key) if trace_dir is not None else None
        ),
        provenance=prov,
    )


def outcome_fingerprint(jobs: Sequence[Job]) -> str:
    """SHA-256 over per-job outcome tuples -- the replay-equivalence witness.

    Hashes ``(job_id, first_start_time, finish_time, suspension_count,
    kill_count)`` in job order; two replays are byte-identical iff their
    fingerprints match.  Used by the sharded-vs-eager equivalence test
    and by ``repro-sched workload replay`` output.
    """
    h = hashlib.sha256()
    h.update(b"outcome-v1")
    for j in jobs:
        h.update(
            (
                f"{j.job_id}|{j.first_start_time!r}|{j.finish_time!r}"
                f"|{j.suspension_count}|{j.kill_count}\n"
            ).encode()
        )
    return h.hexdigest()


@dataclass
class ShardedReplayOutcome:
    """What :func:`replay_sharded` hands back.

    ``jobs`` holds every simulated job in shard order (equal to submit
    order), ready for :func:`repro.metrics.aggregate.per_category_stats`;
    ``shards`` counts non-empty shards; ``executed``/``cache_hits``
    aggregate the underlying grid batches.  :meth:`fingerprint` is the
    byte-identity witness used by the equivalence tests.
    """

    jobs: list[Job] = field(default_factory=list)
    shards: int = 0
    executed: int = 0
    cache_hits: int = 0
    trace_paths: dict[str, str] = field(default_factory=dict)
    failures: dict[str, CellFailure] = field(default_factory=dict)
    counters: GridCounters = field(default_factory=GridCounters)

    def fingerprint(self) -> str:
        """Outcome hash over all jobs in shard order (see :func:`outcome_fingerprint`)."""
        return outcome_fingerprint(self.jobs)


def replay_sharded(
    jobs: Iterable[Job],
    n_procs: int,
    scheduler_config: Mapping[str, object],
    *,
    window: float,
    overhead_model: SuspensionOverheadModel | None = None,
    migratable: bool = False,
    batch_size: int = 32,
    workers: int | None = None,
    cache: ResultCache | None = None,
    policy: GridPolicy | None = None,
    counters: GridCounters | None = None,
    provenance: Mapping[str, object] | None = None,
    trace_dir: str | Path | None = None,
    shm: bool | None = None,
) -> ShardedReplayOutcome:
    """Replay one long (possibly streaming) workload through the grid executor.

    The input stream is cut into ``window``-second shards
    (:func:`iter_time_shards`), each shard becomes a provenance-tagged
    :class:`GridCell`, and batches of ``batch_size`` cells flow through
    :func:`run_grid` -- inheriting the whole crash-safety story: every
    finished shard commits to *cache* the moment it exists, retries and
    timeouts follow *policy*, and an interrupted replay resumes from its
    last finished shard.

    Memory is bounded by one batch of shards (plus their results), never
    by the log: pair this with
    :func:`repro.workload.pipeline.open_workload` to replay an archive
    log end to end without materialising it.

    Determinism: shard boundaries depend only on (jobs, window); each
    shard simulates independently on an empty machine;
    results merge in shard order.  The outcome is therefore identical
    for any ``batch_size``/``workers``/``cache`` combination -- the
    equivalence test in ``tests/test_workload_shards.py`` asserts
    byte-identical per-category metrics and outcome fingerprints against
    an eager in-memory replay of the same shards.

    *provenance* (typically ``{"pipeline": pipe.fingerprint(), "source":
    log_name}``) is folded into every shard cell's cache key.  *shm* is
    accepted and ignored: it once selected a shared-memory transport
    that no longer exists, and existing callers still pass it.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    scheduler_from_config(scheduler_config)  # a malformed config fails before any shard
    outcome = ShardedReplayOutcome(
        counters=counters if counters is not None else GridCounters()
    )

    def _flush(batch: list[GridCell]) -> None:
        grid = run_grid(
            batch,
            workers=workers,
            cache=cache,
            policy=policy,
            counters=outcome.counters,
        )
        for result in grid.results.values():  # input order == shard order
            outcome.jobs.extend(result.jobs)
        outcome.executed += grid.executed
        outcome.cache_hits += grid.cache_hits
        outcome.trace_paths.update(grid.trace_paths)
        outcome.failures.update(grid.failures)

    batch: list[GridCell] = []
    for shard in iter_time_shards(jobs, window):
        outcome.shards += 1
        batch.append(
            shard_cell(
                shard,
                n_procs,
                scheduler_config,
                overhead_model=overhead_model,
                migratable=migratable,
                provenance=provenance,
                trace_dir=trace_dir,
            )
        )
        if len(batch) >= batch_size:
            _flush(batch)
            batch = []
    if batch:
        _flush(batch)
    return outcome
