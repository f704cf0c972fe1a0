"""Experiment runner: simulate() and compare_schemes()."""

from __future__ import annotations

import pytest

from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import limits_from_result
from repro.experiments.runner import (
    NS_CONFIG,
    SchemeGroup,
    SchemeSpec,
    compare_schemes,
    run_scheme_groups,
    simulate,
    standard_schemes,
    tuned_schemes,
)
from repro.experiments.parallel import GridCell, outcome_fingerprint
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.registry import scheduler_from_config
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
    assert tuned[0].calibrated and tuned[0].needs_baseline
    assert [s.label for s in specs if not s.calibrated] == ["No Suspension", "IS"]


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
    limits = limits_from_result(simulate(jobs, EasyBackfillScheduler(), 128)).to_config()
    assert list(results) == [s.label for s in specs]
    for spec in specs:
        config = {**spec.config, "limits": limits} if spec.calibrated else spec.config
        direct = simulate(jobs, scheduler_from_config(config), 128)
        assert outcome_fingerprint(results[spec.label].jobs) == outcome_fingerprint(
            direct.jobs
        ), spec.label


def test_calibrated_spec_needs_a_baseline():
    """A group with a calibrated spec but no NS spec gets one more cell:
    the NS run its limits come from."""
    tuned = next(s for s in tuned_schemes(suspension_factors=(2.0,)) if s.calibrated)
    outcome = run_scheme_groups([SchemeGroup(small_jobs(), 4, [tuned])])
    assert list(outcome[0]) == [tuned.label]
    assert outcome[0][tuned.label].scheduler.endswith("calibrated)")


def test_baseline_factory_makes_a_calibrated_spec():
    """A scheduler factory in ``config`` (how perfbench builds specs)
    keeps the factory's ``config()``; with ``calibrated`` the spec draws
    its limits from the NS run, not the factory's online limits."""
    from repro.core.tss import TunableSelectiveSuspensionScheduler

    spec = SchemeSpec("t", TunableSelectiveSuspensionScheduler, calibrated=True)
    assert spec.config == TunableSelectiveSuspensionScheduler().config()
    assert spec.needs_baseline
    assert not SchemeSpec("ns", EasyBackfillScheduler).needs_baseline
    result = compare_schemes(small_jobs(), 4, [spec])["t"]
    assert result.scheduler.endswith("calibrated)")


def test_equal_cells_share_one_simulation():
    """Equal configs over one job list run once; another list of equal
    jobs is another cell (cells are matched by list identity)."""
    jobs = small_jobs()
    groups = [
        SchemeGroup(jobs, 4, [SchemeSpec("a", NS_CONFIG), SchemeSpec("b", NS_CONFIG)]),
        SchemeGroup(jobs, 4, [SchemeSpec("c", NS_CONFIG)]),
        SchemeGroup(small_jobs(), 4, [SchemeSpec("d", NS_CONFIG)]),
    ]
    first, second, third = run_scheme_groups(groups)
    assert first["a"] is first["b"] is second["c"]
    assert third["d"] is not first["a"]


def test_config_spellings_of_one_scheduler_share_one_cell():
    """A cell is keyed on the scheduler its config builds: a short and a
    full spelling of one scheduler, or ``2.0`` for an integer knob, give
    one fingerprint and one simulation."""
    jobs = small_jobs()
    short = {"scheme": "ss", "suspension_factor": 2}
    full = SelectiveSuspensionScheduler(2.0).config()
    assert short != full
    assert GridCell("s", jobs, 4, short).fingerprint() == GridCell("f", jobs, 4, full).fingerprint()
    kills = [{"scheme": "speculative", "max_kills": k} for k in (2.0, 2)]
    specs = [SchemeSpec("short", short), SchemeSpec("full", full)]
    specs += [SchemeSpec(f"kills {i}", k) for i, k in enumerate(kills)]
    results = compare_schemes(jobs, 4, specs)
    assert results["short"] is results["full"]
    assert results["kills 0"] is results["kills 1"]


def test_malformed_config_fails_when_the_cell_is_built():
    with pytest.raises(ValueError, match="suspension_factor"):
        GridCell("bad", small_jobs(), 4, {"scheme": "ss", "suspension_factor": 0.5})


def test_duplicate_labels_in_a_group_are_refused():
    with pytest.raises(ValueError, match="duplicate scheme labels"):
        compare_schemes(small_jobs(), 4, [SchemeSpec("a", NS_CONFIG)] * 2)


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
