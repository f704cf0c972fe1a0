"""SS processor placement: victims' processors first, pinned avoided."""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.sim.driver import SchedulingSimulation
from tests.conftest import make_job


def bound_scheduler(n_procs=8):
    sched = SelectiveSuspensionScheduler(suspension_factor=2.0)
    sim = SchedulingSimulation(Cluster(n_procs), sched)
    sched.bind(sim)
    return sched, sim


def test_place_prefers_preferred_set():
    sched, sim = bound_scheduler()
    job = make_job(job_id=1, procs=3)
    chosen = sched.preemption._place(job, preferred=frozenset({5, 6, 7}))
    assert chosen == frozenset({5, 6, 7})


def test_place_falls_back_beyond_preferred():
    sched, sim = bound_scheduler()
    job = make_job(job_id=1, procs=4)
    chosen = sched.preemption._place(job, preferred=frozenset({6, 7}))
    assert {6, 7} <= chosen
    assert len(chosen) == 4


def test_place_avoids_pinned_processors():
    sched, sim = bound_scheduler()
    # create a suspended job pinned to {0, 1}
    pinned_job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    pinned_job.mark_submitted(0.0)
    sim._queued[pinned_job.job_id] = pinned_job
    sim.start_job(pinned_job, procs=frozenset({0, 1}))
    sim.suspend_job(pinned_job)

    fresh = make_job(job_id=1, procs=3)
    chosen = sched.preemption._place(fresh)
    assert not (chosen & {0, 1}), "fresh start must avoid the pinned set"


def test_place_uses_pinned_as_last_resort():
    sched, sim = bound_scheduler(n_procs=4)
    pinned_job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    pinned_job.mark_submitted(0.0)
    sim._queued[pinned_job.job_id] = pinned_job
    sim.start_job(pinned_job, procs=frozenset({0, 1}))
    sim.suspend_job(pinned_job)

    wide = make_job(job_id=1, procs=4)  # cannot avoid the pinned pair
    chosen = sched.preemption._place(wide)
    assert chosen == frozenset({0, 1, 2, 3})


def test_pinned_procs_union_of_suspended_sets():
    sched, sim = bound_scheduler()
    for i, procs in enumerate(({0, 1}, {4, 5})):
        j = make_job(job_id=i, submit=0.0, run=100.0, procs=2)
        j.mark_submitted(0.0)
        sim._queued[j.job_id] = j
        sim.start_job(j, procs=frozenset(procs))
        sim.suspend_job(j)
    assert sched.preemption._pinned_procs() == {0, 1, 4, 5}


def test_explicit_start_placement_via_driver():
    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=10.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    got = sim.start_job(job, procs=frozenset({6, 7}))
    assert got == frozenset({6, 7})


def test_explicit_start_wrong_count_rejected():
    from repro.sim.engine import SimulationError

    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=10.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    with pytest.raises(SimulationError, match="processors"):
        sim.start_job(job, procs=frozenset({1, 2, 3}))


def test_resume_placement_must_match_original():
    from repro.sim.engine import SimulationError

    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=100.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    sim.start_job(job, procs=frozenset({2, 3}))
    sim.suspend_job(job)
    with pytest.raises(SimulationError, match="original"):
        sim.start_job(job, procs=frozenset({4, 5}))
    got = sim.start_job(job, procs=frozenset({2, 3}))
    assert got == frozenset({2, 3})
