"""Recovery paths of the fault-tolerant grid executor.

Contract under test (see :mod:`repro.experiments.parallel` and
``tests/fault_injection.py``):

* disturbed grids still produce **byte-identical** results -- a crash,
  hang, killed worker or killed pool changes wall-clock and the
  failure report, never the merged schedules;
* completed cells are committed to the cache **the moment they
  finish**, so killing a run -- even with SIGKILL, even mid-grid --
  loses zero finished work: the re-run serves every previously
  completed cell from cache and simulates only the remainder;
* what happened is reported structurally: :attr:`GridOutcome.failures`
  carries a :class:`CellFailure` per disturbed cell and
  :class:`GridCounters` tallies retries / timeouts / respawns /
  degraded cells.

Fast deterministic cases (in-process crash/retry/resume) run in tier-1;
everything that spins real pools and waits out timeouts or pool deaths
is marked ``fault`` and runs in CI's dedicated fault-tolerance job
(``pytest -m fault``).
"""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.experiments import (
    GridCell,
    GridExecutionError,
    GridPolicy,
    ResultCache,
    run_grid,
)
from repro.workload.synthetic import generate_trace

from tests.fault_injection import (
    CRASH,
    HANG,
    KILL,
    FaultPlan,
    FaultSpec,
    faulty_simulate,
)

N_PROCS = 128

#: no-backoff retry policy: recovery tests assert behaviour, not pacing
RETRY = GridPolicy(cell_retries=1, backoff_base=0.0)


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace("SDSC", n_jobs=80, seed=3)


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


def sf_cells(jobs, factors):
    return [
        GridCell(
            key=f"sf={sf}",
            jobs=jobs,
            n_procs=N_PROCS,
            scheduler_config=SelectiveSuspensionScheduler(sf).config(),
        )
        for sf in factors
    ]


def plan_for(tmp_path, **faults):
    """A picklable simulate_fn injecting *faults* (key -> FaultSpec)."""
    plan = FaultPlan(state_dir=str(tmp_path / "fault-state"), faults=faults)
    return functools.partial(faulty_simulate, plan)


# ----------------------------------------------------------------------
# tier-1: crash / retry / give-up / resume, no real pools needed
# ----------------------------------------------------------------------
def test_crash_then_retry_succeeds_serial(tiny_trace, tmp_path):
    cells = sf_cells(tiny_trace, (1.5, 2.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        policy=RETRY,
        simulate_fn=plan_for(tmp_path, **{"sf=2.0": FaultSpec(CRASH)}),
    )
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key

    assert outcome.counters.retries == 1
    failure = outcome.failures["sf=2.0"]
    assert failure.exc_type == "InjectedCrash"
    assert failure.worker_fate == "crashed"
    assert failure.attempts == 1
    assert failure.resolved and failure.resolution == "retry"
    assert "sf=1.5" not in outcome.failures  # innocents stay unreported


def test_crash_exhausting_budget_raises(tiny_trace, tmp_path):
    cells = sf_cells(tiny_trace, (2.0,))
    with pytest.raises(GridExecutionError) as excinfo:
        run_grid(
            cells,
            policy=GridPolicy(cell_retries=1, backoff_base=0.0),
            simulate_fn=plan_for(tmp_path, **{"sf=2.0": FaultSpec(CRASH, times=2)}),
        )
    err = excinfo.value
    assert err.key == "sf=2.0"
    failure = err.failures["sf=2.0"]
    assert failure.attempts == 2  # first try + one retry
    assert failure.resolution == "gave-up" and not failure.resolved
    assert "InjectedCrash" in str(err)


def test_crash_mid_grid_loses_no_committed_cells(tiny_trace, tmp_path):
    """The resume contract, serially: a run that dies at cell N re-runs
    as N-1 cache hits plus exactly one fresh simulation."""
    factors = (1.2, 1.5, 2.0, 3.0, 5.0)
    cells = sf_cells(tiny_trace, factors)
    clean = run_grid(cells)

    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(GridExecutionError):
        run_grid(
            cells,
            cache=cache,
            simulate_fn=plan_for(
                tmp_path, **{f"sf={factors[-1]}": FaultSpec(CRASH)}
            ),  # default policy: zero retries -> the last cell is fatal
        )
    assert len(cache) == len(cells) - 1  # everything before it committed

    resumed = run_grid(cells, cache=cache)  # fault fixed: plain simulate
    assert resumed.cache_hits == len(cells) - 1
    assert resumed.executed == 1
    assert not resumed.failures
    for key in clean.results:
        assert schedule_signature(resumed.results[key]) == schedule_signature(
            clean.results[key]
        ), key


def test_pool_crash_retries_and_matches_serial(tiny_trace, tmp_path):
    """Completion-order collection + a crashed worker: merged output is
    still byte-identical to the serial run."""
    cells = sf_cells(tiny_trace, (1.2, 1.5, 2.0, 3.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        workers=2,
        policy=RETRY,
        simulate_fn=plan_for(tmp_path, **{"sf=1.5": FaultSpec(CRASH)}),
    )
    assert list(outcome.results) == list(clean.results)  # input order kept
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key
    assert outcome.counters.retries == 1
    assert outcome.failures["sf=1.5"].resolved


def test_injected_crash_pickles_across_processes(tmp_path):
    """The harness itself: markers claim atomically, partials pickle."""
    import pickle

    plan = FaultPlan(state_dir=str(tmp_path), faults={"x": FaultSpec(CRASH, times=2)})
    fn = functools.partial(faulty_simulate, plan)
    assert pickle.loads(pickle.dumps(fn)).func is faulty_simulate
    from tests.fault_injection import _claim

    assert _claim(str(tmp_path), "x", 2) is True
    assert plan.attempts_claimed("x") == 1
    assert _claim(str(tmp_path), "x", 2) is True
    assert _claim(str(tmp_path), "x", 2) is False  # budget spent
    assert plan.attempts_claimed("x") == 2


# ----------------------------------------------------------------------
# fault-marked: real pools, real timeouts, real SIGKILLs
# ----------------------------------------------------------------------
@pytest.mark.fault
def test_hung_worker_is_culled_and_cell_retried(tiny_trace, tmp_path):
    cells = sf_cells(tiny_trace, (1.2, 1.5, 2.0, 3.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        workers=2,
        policy=GridPolicy(cell_timeout=2.0, cell_retries=1, backoff_base=0.0),
        simulate_fn=plan_for(tmp_path, **{"sf=2.0": FaultSpec(HANG)}),
    )
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key
    assert outcome.counters.timeouts == 1
    assert outcome.counters.pool_respawns >= 1  # hung pool was culled
    failure = outcome.failures["sf=2.0"]
    assert failure.worker_fate == "hung"
    assert failure.exc_type == "TimeoutError"
    assert failure.resolved and failure.resolution == "pool-respawn"


@pytest.mark.fault
def test_killed_worker_respawns_pool(tiny_trace, tmp_path):
    cells = sf_cells(tiny_trace, (1.2, 1.5, 2.0, 3.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        workers=2,
        simulate_fn=plan_for(tmp_path, **{"sf=1.5": FaultSpec(KILL)}),
    )  # default policy: pool loss is uncharged, so no retries needed
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key
    assert outcome.counters.pool_respawns == 1
    assert outcome.counters.degraded_cells == 0
    failure = outcome.failures["sf=1.5"]
    assert failure.worker_fate == "lost"
    assert failure.attempts == 0  # the pool died; the cell is innocent
    assert failure.resolved and failure.resolution == "pool-respawn"


@pytest.mark.fault
def test_repeated_pool_death_degrades_to_in_process(tiny_trace, tmp_path):
    cells = sf_cells(tiny_trace, (1.2, 1.5, 2.0, 3.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        workers=2,
        policy=GridPolicy(pool_respawns=1),
        simulate_fn=plan_for(tmp_path, **{"sf=1.5": FaultSpec(KILL, times=2)}),
    )
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key
    assert outcome.counters.pool_respawns == 1  # budget spent...
    assert outcome.counters.degraded_cells >= 1  # ...then gave up on pools
    failure = outcome.failures["sf=1.5"]
    assert failure.resolved and failure.resolution == "in-process"


@pytest.mark.fault
def test_pool_respawn_hands_workers_the_table_again(tiny_trace, tmp_path):
    """Pool death x the initializer hand-off: tasks carry only a cell
    index, so the respawned pool's fresh workers can simulate the lost
    cell only if the pool gave them the cell table again."""
    cells = sf_cells(tiny_trace, (1.2, 1.5, 2.0, 3.0))
    clean = run_grid(cells)
    outcome = run_grid(
        cells,
        workers=2,
        simulate_fn=plan_for(tmp_path, **{"sf=1.5": FaultSpec(KILL)}),
    )
    for key in clean.results:
        assert schedule_signature(outcome.results[key]) == schedule_signature(
            clean.results[key]
        ), key
    assert outcome.counters.pool_respawns == 1
    assert outcome.counters.degraded_cells == 0  # the new pool did the work
    assert outcome.failures["sf=1.5"].resolution == "pool-respawn"


_COORDINATOR = """\
import sys

sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})

import functools

from tests.fault_injection import KILL_RUN, FaultPlan, FaultSpec, faulty_simulate
from repro.experiments import GridCell, ResultCache, run_grid
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.workload.synthetic import generate_trace

jobs = generate_trace("SDSC", n_jobs=80, seed=3)
cells = [
    GridCell(
        key=f"sf={{sf}}",
        jobs=jobs,
        n_procs=128,
        scheduler_config=SelectiveSuspensionScheduler(sf).config(),
    )
    for sf in {factors!r}
]
plan = FaultPlan(
    state_dir={state_dir!r},
    faults={{{kill_key!r}: FaultSpec(KILL_RUN)}},
)
run_grid(
    cells,
    workers=4,
    cache=ResultCache({cache_dir!r}),
    simulate_fn=functools.partial(faulty_simulate, plan),
)
print("UNREACHABLE: the coordinator survived its own SIGKILL")
"""


@pytest.mark.fault
def test_sigkilled_run_loses_zero_completed_cells(tiny_trace, tmp_path):
    """The ISSUE's acceptance scenario: a >=20-cell grid whose
    coordinating process is SIGKILLed mid-run resumes with every
    previously completed cell served from cache and the merged results
    byte-identical to an uninterrupted serial run."""
    factors = tuple(round(1.1 + 0.1 * i, 1) for i in range(20))  # 1.1 .. 3.0
    kill_key = f"sf={factors[12]}"
    cache_dir = tmp_path / "cache"
    script = tmp_path / "coordinator.py"
    script.write_text(
        _COORDINATOR.format(
            src=str(Path(__file__).resolve().parent.parent / "src"),
            root=str(Path(__file__).resolve().parent.parent),
            factors=factors,
            state_dir=str(tmp_path / "fault-state"),
            kill_key=kill_key,
            cache_dir=str(cache_dir),
        )
    )
    # own session/process group so the orphaned pool workers the SIGKILL
    # leaves behind can be reaped no matter what state they are in; a
    # log *file*, not a pipe -- the orphans inherit stdout, so a pipe
    # would never reach EOF and any read would block on them
    log = tmp_path / "coordinator.log"
    with log.open("wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=fh,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    out = log.read_bytes()
    assert proc.returncode == -signal.SIGKILL, out.decode()
    assert b"UNREACHABLE" not in out

    cache = ResultCache(cache_dir)
    completed_before_kill = len(cache)
    assert 0 < completed_before_kill < len(factors)  # died mid-grid

    cells = sf_cells(tiny_trace, factors)
    resumed = run_grid(cells, cache=cache)  # fault gone: plain simulate
    assert resumed.cache_hits == completed_before_kill
    assert resumed.executed == len(factors) - completed_before_kill
    assert not resumed.failures and not resumed.counters

    serial = run_grid(cells)  # uninterrupted reference
    assert list(resumed.results) == list(serial.results)
    for key in serial.results:
        assert schedule_signature(resumed.results[key]) == schedule_signature(
            serial.results[key]
        ), key
