"""Synthetic trace generation: determinism, calibration, bounds."""

from __future__ import annotations

import pytest

from repro.metrics.aggregate import category_shares
from repro.workload.archive import CTC, KTH, SDSC, TracePreset, get_preset
from repro.workload.categories import classify_sixteen_way
from repro.workload.estimates import InaccurateEstimates
from repro.workload.synthetic import generate_trace


def test_deterministic_for_same_seed():
    a = generate_trace("CTC", n_jobs=200, seed=5)
    b = generate_trace("CTC", n_jobs=200, seed=5)
    assert [(j.submit_time, j.run_time, j.procs) for j in a] == [
        (j.submit_time, j.run_time, j.procs) for j in b
    ]


def test_different_seeds_differ():
    a = generate_trace("CTC", n_jobs=200, seed=5)
    b = generate_trace("CTC", n_jobs=200, seed=6)
    assert [(j.run_time, j.procs) for j in a] != [(j.run_time, j.procs) for j in b]


def test_jobs_sorted_with_sequential_ids():
    jobs = generate_trace("SDSC", n_jobs=100, seed=1)
    assert [j.job_id for j in jobs] == list(range(100))
    submits = [j.submit_time for j in jobs]
    assert submits == sorted(submits)
    assert submits[0] == 0.0


def test_widths_respect_machine_and_class_bounds():
    for name in ("CTC", "SDSC", "KTH"):
        preset = get_preset(name)
        jobs = generate_trace(name, n_jobs=500, seed=3)
        for j in jobs:
            assert 1 <= j.procs <= preset.max_width
            length, width = classify_sixteen_way(j)
            if width == "Seq":
                assert j.procs == 1
            elif width == "N":
                assert 2 <= j.procs <= 8
            elif width == "W":
                assert 9 <= j.procs <= 32
            else:
                assert j.procs >= 33


def test_runtimes_respect_class_bounds():
    preset = get_preset("CTC")
    jobs = generate_trace("CTC", n_jobs=500, seed=3)
    for j in jobs:
        length, _ = classify_sixteen_way(j)
        lo, hi = preset.runtime_bounds[length]
        assert lo <= j.run_time <= hi + 1e-9


def test_category_shares_match_preset():
    """Multinomial draw should land near Tables II/III at modest n."""
    preset = get_preset("CTC")
    jobs = generate_trace("CTC", n_jobs=8000, seed=2)
    shares = category_shares(jobs)
    for cat, expected in preset.category_shares.items():
        got = shares.get(cat, 0.0)
        assert abs(got - expected) < 0.02, f"{cat}: {got} vs {expected}"


def test_offered_load_matches_target():
    """mean interarrival calibration: offered load == target utilisation."""
    preset = get_preset("SDSC")
    jobs = generate_trace("SDSC", n_jobs=4000, seed=9)
    span = jobs[-1].submit_time
    area = sum(j.run_time * j.procs for j in jobs)
    offered = area / (preset.n_procs * span)
    assert offered == pytest.approx(preset.target_utilization, rel=0.10)


def test_memory_in_configured_range():
    jobs = generate_trace("CTC", n_jobs=300, seed=4)
    assert all(100.0 <= j.memory_mb <= 1000.0 for j in jobs)


def test_accurate_estimates_by_default():
    jobs = generate_trace("CTC", n_jobs=200, seed=4)
    assert all(j.estimate == j.run_time for j in jobs)


def test_estimate_model_applied():
    jobs = generate_trace(
        "CTC", n_jobs=2000, seed=4, estimate_model=InaccurateEstimates()
    )
    assert all(j.estimate >= j.run_time for j in jobs)
    badly = sum(1 for j in jobs if j.estimate > 2 * j.run_time)
    assert 0.3 < badly / len(jobs) < 0.5


def test_generate_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        generate_trace("CTC", n_jobs=0)


def test_generate_accepts_preset_instance():
    jobs = generate_trace(SDSC, n_jobs=50, seed=1)
    assert len(jobs) == 50


def test_unknown_preset_name_raises():
    with pytest.raises(KeyError, match="unknown trace preset"):
        generate_trace("NERSC", n_jobs=10)


def test_preset_lookup_case_insensitive():
    assert get_preset("ctc") is CTC
    assert get_preset("sdsc") is SDSC
    assert get_preset("Kth") is KTH


# ----------------------------------------------------------------------
# preset validation
# ----------------------------------------------------------------------
def test_preset_shares_must_sum_to_one():
    bad = dict(CTC.category_shares)
    bad[("VS", "Seq")] += 0.5
    with pytest.raises(ValueError, match="sum"):
        TracePreset(
            name="BAD",
            n_procs=64,
            category_shares=bad,
            target_utilization=0.5,
            saturation_load=1.5,
            max_width=64,
        )


def test_preset_max_width_within_machine():
    with pytest.raises(ValueError, match="max_width"):
        TracePreset(
            name="BAD",
            n_procs=64,
            category_shares=dict(CTC.category_shares),
            target_utilization=0.5,
            saturation_load=1.5,
            max_width=128,
        )


def test_paper_distribution_tables_encoded():
    """Spot-check the presets against Tables II/III."""
    assert CTC.category_shares[("VS", "Seq")] == pytest.approx(0.14)
    assert CTC.category_shares[("S", "Seq")] == pytest.approx(0.18)
    assert SDSC.category_shares[("VS", "N")] == pytest.approx(0.29)
    assert SDSC.category_shares[("VL", "N")] == pytest.approx(0.05)
    assert CTC.n_procs == 430
    assert SDSC.n_procs == 128
    assert KTH.n_procs == 100
