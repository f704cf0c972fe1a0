"""Speculative backfilling: gamble, win or kill-and-requeue."""

from __future__ import annotations

import pytest

from repro.cluster.machine import Cluster
from repro.experiments.parallel import outcome_fingerprint
from repro.obs import InMemoryRecorder
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.speculative import SpeculativeBackfillScheduler
from repro.sim.audit import audit_result
from repro.sim.driver import SchedulingSimulation
from repro.workload.estimates import InaccurateEstimates
from repro.workload.job import JobState, fresh_copies
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job, run_sim


def test_params_validated():
    with pytest.raises(ValueError):
        SpeculativeBackfillScheduler(speculation_window=0.0)
    with pytest.raises(ValueError):
        SpeculativeBackfillScheduler(max_kills=-1)


def winning_scenario():
    """A badly over-estimated (aborting-style) job wins its test run."""
    return [
        make_job(job_id=0, submit=0.0, run=2000.0, procs=5),
        make_job(job_id=1, submit=1.0, run=2000.0, procs=8),  # head at 2000
        # estimate 4000 blocks conventional backfill into the ~2000 s
        # hole, but the actual run is 300 s: the 900 s test run wins
        make_job(job_id=2, submit=2.0, run=300.0, procs=3, estimate=4000.0),
    ]


def test_speculation_win():
    jobs = winning_scenario()
    result = run_sim(jobs, SpeculativeBackfillScheduler(), n_procs=8)
    assert jobs[2].first_start_time == pytest.approx(2.0)
    assert jobs[2].finish_time == pytest.approx(302.0)
    assert jobs[2].kill_count == 0
    assert result.total_kills == 0
    # under EASY the same job waits behind the head
    assert jobs[1].first_start_time == pytest.approx(2000.0)


def test_stale_kill_changes_nothing():
    """A test run that wins leaves its kill event stale: dispatching it
    changes nothing, so the traced and untraced schedules are equal and
    the trace holds no ``kill`` event."""
    plain = run_sim(winning_scenario(), SpeculativeBackfillScheduler(), n_procs=8)
    recorder = InMemoryRecorder()
    sim = SchedulingSimulation(Cluster(8), SpeculativeBackfillScheduler(), recorder=recorder)
    traced = sim.run(winning_scenario())
    events = recorder.dicts()
    # job 2 speculates until a 902 s deadline and finishes at 302
    assert [e["deadline"] for e in events if e.get("action") == "speculate"] == [902.0]
    assert [e["t"] for e in events if e["type"] == "finish" and e["job"] == 2] == [302.0]
    assert "kill" not in {e["type"] for e in events}
    assert plain.total_kills == traced.total_kills == 0
    assert outcome_fingerprint(plain.jobs) == outcome_fingerprint(traced.jobs)
    # the stale kill is dispatched either way: three arrivals, three
    # finishes and the kill
    assert plain.events_dispatched == traced.events_dispatched == 7


def test_speculation_loss_kills_and_requeues():
    jobs = [
        make_job(job_id=0, submit=0.0, run=2000.0, procs=5),
        make_job(job_id=1, submit=1.0, run=2000.0, procs=8),  # head at 2000
        # actual 1500 > the 900 s test window: the gamble is lost
        make_job(job_id=2, submit=2.0, run=1500.0, procs=3, estimate=4000.0),
    ]
    result = run_sim(jobs, SpeculativeBackfillScheduler(), n_procs=8)
    assert jobs[2].kill_count >= 1
    assert result.total_kills >= 1
    assert jobs[2].state is JobState.FINISHED
    assert jobs[2].wasted_time >= 900.0 - 1.0
    # the head was not delayed by the failed speculation
    assert jobs[1].first_start_time == pytest.approx(2000.0)
    audit_result(result)


def test_short_holes_not_gambled():
    jobs = [
        make_job(job_id=0, submit=0.0, run=100.0, procs=5),
        make_job(job_id=1, submit=1.0, run=2000.0, procs=8),  # head at 100
        # hole is ~98 s < the 900 s window: no test run
        make_job(job_id=2, submit=2.0, run=1000.0, procs=3, estimate=4000.0),
    ]
    result = run_sim(jobs, SpeculativeBackfillScheduler(), n_procs=8)
    assert result.total_kills == 0
    assert jobs[2].first_start_time >= 100.0


def test_max_kills_bounds_thrash():
    """After max_kills lost gambles the job waits for regular service."""
    jobs = [
        make_job(job_id=0, submit=0.0, run=2000.0, procs=5),
        make_job(job_id=1, submit=1.0, run=2000.0, procs=8),
        make_job(job_id=2, submit=2.0, run=2000.0, procs=8),
        # repeatedly temptable: estimate huge, actual longer than window
        make_job(job_id=3, submit=3.0, run=4000.0, procs=3, estimate=40000.0),
    ]
    result = run_sim(jobs, SpeculativeBackfillScheduler(max_kills=1), n_procs=8)
    assert jobs[3].kill_count <= 1
    assert jobs[3].state is JobState.FINISHED


def test_audit_with_kills_on_trace_scale():
    jobs = generate_trace(
        "SDSC", n_jobs=300, seed=8, estimate_model=InaccurateEstimates()
    )
    result = run_sim(
        fresh_copies(jobs), SpeculativeBackfillScheduler(), n_procs=128
    )
    audit_result(result)
    assert len(result.jobs) == len(jobs)


def test_speculation_trade_off_on_real_mix():
    """Speculation redistributes delay, it does not create capacity.

    What actually happens on an over-estimated mix (and what the
    paper's section V metric discussion turns on): jobs that *get* a
    test run are served far earlier; the wasted occupancy of lost
    gambles taxes the jobs that cannot speculate (the ultra-wide ones),
    and the headline average moves much less than either group.  We
    assert those mechanics rather than a fictitious free lunch.
    """
    from repro.metrics.aggregate import overall_stats

    jobs = generate_trace(
        "SDSC", n_jobs=600, seed=8, estimate_model=InaccurateEstimates(badly_fraction=0.5)
    )
    easy = run_sim(fresh_copies(jobs), EasyBackfillScheduler(), n_procs=128)
    spec = run_sim(fresh_copies(jobs), SpeculativeBackfillScheduler(), n_procs=128)

    # speculations really happened, and thrash stayed bounded
    assert spec.total_kills > 0
    assert all(j.kill_count <= 2 for j in spec.jobs)

    # total wasted capacity is bounded by kills x window x widest job
    waste = sum(j.procs * j.wasted_time for j in spec.jobs)
    assert waste <= spec.total_kills * 900.0 * 128

    # overall slowdown stays in the same regime (no collapse either way)
    sd_easy = overall_stats(easy.jobs).slowdown.mean
    sd_spec = overall_stats(spec.jobs).slowdown.mean
    assert sd_spec <= sd_easy * 1.5

    # the winners won: jobs that completed inside a test run (started
    # once, never killed, badly estimated) beat their EASY twins
    easy_by_id = {j.job_id: j for j in easy.jobs}
    from repro.metrics.slowdown import turnaround_time

    winners = [
        j
        for j in spec.jobs
        if j.kill_count == 0
        and j.estimate > 2 * j.run_time
        and j.run_time <= 900.0
        and j.suspension_count == 0
    ]
    improved = sum(
        1
        for j in winners
        if turnaround_time(j) <= turnaround_time(easy_by_id[j.job_id]) + 1e-6
    )
    assert winners and improved >= 0.5 * len(winners)
