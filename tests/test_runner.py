"""Experiment runner: simulate() and compare_schemes()."""

from __future__ import annotations

import pytest

from repro.experiments.runner import (
    SchemeSpec,
    compare_schemes,
    simulate,
    standard_schemes,
    tuned_schemes,
)
from repro.experiments.parallel import outcome_fingerprint
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.workload.job import JobState
from repro.workload.synthetic import generate_trace
from tests.conftest import make_job


def small_jobs():
    return [make_job(job_id=i, submit=float(i * 5), run=30.0, procs=2) for i in range(8)]


def test_simulate_copies_jobs_by_default():
    jobs = small_jobs()
    result = simulate(jobs, FCFSScheduler(), n_procs=4)
    assert all(j.state is JobState.PENDING for j in jobs)  # originals untouched
    assert all(j.state is JobState.FINISHED for j in result.jobs)


def test_simulate_in_place_mode():
    jobs = small_jobs()
    simulate(jobs, FCFSScheduler(), n_procs=4, copy_jobs=False)
    assert all(j.state is JobState.FINISHED for j in jobs)


def test_simulate_rejects_too_wide_jobs():
    jobs = [make_job(procs=10)]
    with pytest.raises(ValueError, match="never run"):
        simulate(jobs, FCFSScheduler(), n_procs=4)


def test_standard_schemes_labels():
    labels = [s.label for s in standard_schemes()]
    assert labels == ["SF = 1.5", "SF = 2", "SF = 5", "No Suspension", "IS"]


def test_tuned_schemes_need_baseline():
    specs = tuned_schemes(suspension_factors=(2.0,))
    tuned = [s for s in specs if "Tuned" in s.label]
    assert len(tuned) == 1
    assert tuned[0].needs_baseline
    assert tuned[0].factory_with_baseline is not None


def test_compare_schemes_runs_everything():
    jobs = small_jobs()
    results = compare_schemes(jobs, 4, standard_schemes(suspension_factors=(2.0,)))
    assert set(results) == {"SF = 2", "No Suspension", "IS"}
    for r in results.values():
        assert len(r.jobs) == len(jobs)


def test_compare_schemes_with_baseline_calibration():
    jobs = small_jobs()
    results = compare_schemes(jobs, 4, tuned_schemes(suspension_factors=(2.0,)))
    assert "SF = 2 Tuned" in results
    assert len(results["SF = 2 Tuned"].jobs) == len(jobs)


def test_compare_schemes_matches_direct_simulation():
    """The grid path rebuilds each scheme from its config; the schedule
    must equal simulating the spec's own scheduler instance."""
    jobs = generate_trace("SDSC", n_jobs=120, seed=5)
    specs = tuned_schemes(suspension_factors=(2.0,))
    results = compare_schemes(jobs, 128, specs)
    baseline = simulate(jobs, EasyBackfillScheduler(), 128)
    assert list(results) == [s.label for s in specs]
    for spec in specs:
        direct = simulate(jobs, spec.build(baseline), 128)
        assert outcome_fingerprint(results[spec.label].jobs) == outcome_fingerprint(
            direct.jobs
        ), spec.label


def test_calibrated_spec_needs_a_baseline():
    tuned = next(s for s in tuned_schemes(suspension_factors=(2.0,)) if s.needs_baseline)
    with pytest.raises(ValueError, match="baseline"):
        tuned.build()


def test_baseline_factory_makes_a_calibrated_spec():
    """A spec with a ``factory_with_baseline`` is a calibrated spec: it
    needs the NS baseline and builds from it, not from its plain
    factory (which would give online TSS)."""
    from repro.core.tss import TunableSelectiveSuspensionScheduler, limits_from_result

    spec = SchemeSpec(
        "t",
        TunableSelectiveSuspensionScheduler,
        factory_with_baseline=lambda b: TunableSelectiveSuspensionScheduler(
            limits=limits_from_result(b)
        ),
    )
    assert spec.needs_baseline
    baseline = simulate(small_jobs(), EasyBackfillScheduler(), 4)
    assert spec.build(baseline).config()["limits"]["mode"] == "calibrated"
    assert not SchemeSpec("ns", EasyBackfillScheduler).needs_baseline


def test_compare_schemes_isolated_workload_copies():
    """Each scheme must see a pristine trace: results are comparable."""
    jobs = small_jobs()
    results = compare_schemes(
        jobs,
        4,
        [
            SchemeSpec("a", EasyBackfillScheduler),
            SchemeSpec("b", EasyBackfillScheduler),
        ],
    )
    a = [(j.job_id, j.finish_time) for j in results["a"].jobs]
    b = [(j.job_id, j.finish_time) for j in results["b"].jobs]
    assert a == b  # identical policy, identical trace => identical outcome
