"""Suspension-overhead models (section V-A)."""

from __future__ import annotations

from math import inf, nan

import pytest

from repro.core.overhead import DiskSwapOverheadModel, FixedOverheadModel
from tests.conftest import make_job


def test_write_cost_from_memory():
    model = DiskSwapOverheadModel(mb_per_sec_per_proc=2.0)
    job = make_job(memory_mb=500.0)
    assert model.write_cost(job) == pytest.approx(250.0)


def test_suspend_resume_doubles_with_symmetric_restart():
    model = DiskSwapOverheadModel(restart_factor=1.0)
    job = make_job(memory_mb=200.0)
    assert model.suspend_resume_cost(job) == pytest.approx(200.0)


def test_write_only_interpretation():
    model = DiskSwapOverheadModel(restart_factor=0.0)
    job = make_job(memory_mb=200.0)
    assert model.suspend_resume_cost(job) == pytest.approx(100.0)


def test_paper_range_of_costs():
    """100 MB - 1 GB at 2 MB/s: write cost in [50 s, 500 s]."""
    model = DiskSwapOverheadModel()
    for mem in (100.0, 550.0, 1000.0):
        cost = model.write_cost(make_job(memory_mb=mem))
        assert 50.0 <= cost <= 500.0


def test_unknown_memory_substituted_deterministically():
    model = DiskSwapOverheadModel()
    a = make_job(job_id=7, memory_mb=0.0)
    b = make_job(job_id=7, memory_mb=0.0)
    c = make_job(job_id=8, memory_mb=0.0)
    assert model.memory_of(a) == model.memory_of(b)  # same job id, same draw
    assert model.memory_of(a) != model.memory_of(c)
    assert 100.0 <= model.memory_of(a) <= 1000.0


def test_substitution_respects_configured_range():
    model = DiskSwapOverheadModel(default_memory_range_mb=(10.0, 20.0))
    mem = model.memory_of(make_job(job_id=3, memory_mb=0.0))
    assert 10.0 <= mem <= 20.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mb_per_sec_per_proc": 0.0},
        {"restart_factor": -0.5},
        {"default_memory_range_mb": (0.0, 100.0)},
        {"default_memory_range_mb": (200.0, 100.0)},
    ],
)
def test_disk_swap_validates(kwargs):
    with pytest.raises(ValueError):
        DiskSwapOverheadModel(**kwargs)


def test_fixed_model_constant():
    model = FixedOverheadModel(42.0)
    assert model.suspend_resume_cost(make_job(memory_mb=1.0)) == 42.0
    assert model.suspend_resume_cost(make_job(memory_mb=999.0)) == 42.0


def test_fixed_model_validates():
    with pytest.raises(ValueError):
        FixedOverheadModel(-1.0)


@pytest.mark.parametrize("value", [nan, inf, -inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "build, zero_ok",
    [
        (lambda v: FixedOverheadModel(seconds=v), True),
        (lambda v: DiskSwapOverheadModel(mb_per_sec_per_proc=v), False),
        (lambda v: DiskSwapOverheadModel(restart_factor=v), True),
        (lambda v: DiskSwapOverheadModel(default_memory_range_mb=(v, 1000.0)), False),
        (lambda v: DiskSwapOverheadModel(default_memory_range_mb=(100.0, v)), False),
    ],
    ids=["seconds", "mb_per_sec_per_proc", "restart_factor", "memory_low", "memory_high"],
)
def test_overhead_knobs_refuse_non_finite_values(build, zero_ok, value):
    """Construction only: an infinite charge would livelock a run and a
    NaN one fail at its first suspension.  Zero overhead and a
    write-only charge stay legal."""
    if value == 0.0 and zero_ok:
        build(value)
        return
    with pytest.raises(ValueError):
        build(value)


def test_overhead_inflates_turnaround_in_simulation(sdsc_trace_small):
    """End to end: the same SS run with overhead has (weakly) worse
    total turnaround and identical job count."""
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.workload.archive import SDSC
    from tests.conftest import run_sim

    free = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        n_procs=SDSC.n_procs,
    )
    priced = run_sim(
        [j.copy_static() for j in sdsc_trace_small],
        SelectiveSuspensionScheduler(suspension_factor=2.0),
        n_procs=SDSC.n_procs,
        overhead_model=DiskSwapOverheadModel(),
    )
    assert len(priced.jobs) == len(free.jobs)
    suspended = [j for j in priced.jobs if j.suspension_count > 0]
    if suspended:
        assert all(j.total_overhead > 0 for j in suspended)
    never = [j for j in priced.jobs if j.suspension_count == 0]
    assert all(j.total_overhead == 0 for j in never)
