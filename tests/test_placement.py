"""SS processor placement: victims' processors first, pinned avoided.

Processor sets are bitmasks: bit ``p`` set means processor ``p``.
"""

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
    chosen = sched.preemption._place_mask(job, preferred_mask=0b11100000)
    assert chosen == 0b11100000


def test_place_falls_back_beyond_preferred():
    sched, sim = bound_scheduler()
    job = make_job(job_id=1, procs=4)
    chosen = sched.preemption._place_mask(job, preferred_mask=0b11000000)
    assert chosen & 0b11000000 == 0b11000000
    assert chosen.bit_count() == 4


def test_place_avoids_pinned_processors():
    sched, sim = bound_scheduler()
    # create a suspended job pinned to {0, 1}
    pinned_job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    pinned_job.mark_submitted(0.0)
    sim._queued[pinned_job.job_id] = pinned_job
    sim.start_job(pinned_job, procs=0b11)
    sim.suspend_job(pinned_job)

    fresh = make_job(job_id=1, procs=3)
    chosen = sched.preemption._place_mask(fresh)
    assert not (chosen & 0b11), "fresh start must avoid the pinned set"


def test_place_uses_pinned_as_last_resort():
    sched, sim = bound_scheduler(n_procs=4)
    pinned_job = make_job(job_id=0, submit=0.0, run=100.0, procs=2)
    pinned_job.mark_submitted(0.0)
    sim._queued[pinned_job.job_id] = pinned_job
    sim.start_job(pinned_job, procs=0b11)
    sim.suspend_job(pinned_job)

    wide = make_job(job_id=1, procs=4)  # cannot avoid the pinned pair
    chosen = sched.preemption._place_mask(wide)
    assert chosen == 0b1111


def test_pinned_procs_union_of_suspended_sets():
    sched, sim = bound_scheduler()
    for i, procs in enumerate((0b11, 0b110000)):
        j = make_job(job_id=i, submit=0.0, run=100.0, procs=2)
        j.mark_submitted(0.0)
        sim._queued[j.job_id] = j
        sim.start_job(j, procs=procs)
        sim.suspend_job(j)
    assert sched.preemption._pinned_mask() == 0b110011


def test_explicit_start_placement_via_driver():
    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=10.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    got = sim.start_job(job, procs=0b11000000)
    assert got == 0b11000000
    assert job.allocated_mask == got
    assert sim.cluster.owner_mask(job.job_id) == got


def test_explicit_start_wrong_count_rejected():
    from repro.sim.driver import SimulationError

    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=10.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    with pytest.raises(SimulationError, match="processors"):
        sim.start_job(job, procs=0b1110)


def test_resume_placement_must_match_original():
    from repro.sim.driver import SimulationError

    _, sim = bound_scheduler()
    job = make_job(job_id=9, submit=0.0, run=100.0, procs=2)
    job.mark_submitted(0.0)
    sim._queued[job.job_id] = job
    sim.start_job(job, procs=0b1100)
    sim.suspend_job(job)
    assert job.suspended_mask == 0b1100
    with pytest.raises(SimulationError, match="original"):
        sim.start_job(job, procs=0b110000)
    got = sim.start_job(job, procs=0b1100)
    assert got == 0b1100
