"""Estimate models: accuracy invariants and mixture fractions."""

from __future__ import annotations

from math import inf, nan

import numpy as np
import pytest

from repro.workload.estimates import (
    AccurateEstimates,
    InaccurateEstimates,
    PerfectWithNoise,
)

RUNTIMES = np.array([30.0, 600.0, 3600.0, 28800.0, 86400.0])


def rng():
    return np.random.default_rng(42)


def test_accurate_is_identity():
    est = AccurateEstimates().estimates(RUNTIMES, rng())
    assert np.array_equal(est, RUNTIMES)


def test_accurate_returns_copy():
    est = AccurateEstimates().estimates(RUNTIMES, rng())
    est[0] = -1
    assert RUNTIMES[0] == 30.0


def test_noise_bounded():
    model = PerfectWithNoise(noise=0.5)
    est = model.estimates(RUNTIMES, rng())
    assert np.all(est >= RUNTIMES)
    assert np.all(est <= RUNTIMES * 1.5 + 1e-9)


def test_noise_rejects_negative():
    with pytest.raises(ValueError):
        PerfectWithNoise(noise=-0.1)


def test_inaccurate_never_below_actual():
    runs = np.exp(rng().uniform(np.log(10), np.log(86400), size=5000))
    est = InaccurateEstimates().estimates(runs, rng())
    assert np.all(est >= runs)


def test_inaccurate_badly_fraction_approx():
    runs = np.full(20000, 600.0)
    model = InaccurateEstimates(badly_fraction=0.4, cap_seconds=None)
    est = model.estimates(runs, rng())
    frac_bad = np.mean(est > 2.0 * runs)
    assert 0.35 < frac_bad < 0.45


def test_inaccurate_zero_badly_fraction():
    runs = np.full(1000, 600.0)
    est = InaccurateEstimates(badly_fraction=0.0).estimates(runs, rng())
    assert np.all(est <= 2.0 * runs)


def test_inaccurate_all_badly_fraction():
    runs = np.full(1000, 600.0)
    est = InaccurateEstimates(badly_fraction=1.0, cap_seconds=None).estimates(
        runs, rng()
    )
    assert np.all(est > 2.0 * runs)


def test_inaccurate_respects_cap():
    runs = np.full(1000, 3600.0)
    model = InaccurateEstimates(badly_fraction=1.0, max_factor=50.0, cap_seconds=7200.0)
    est = model.estimates(runs, rng())
    assert np.all(est <= 7200.0)
    assert np.all(est >= runs)  # cap never pushes below actual


def test_inaccurate_cap_never_below_actual():
    runs = np.full(10, 10000.0)  # actual exceeds the cap
    model = InaccurateEstimates(cap_seconds=7200.0)
    est = model.estimates(runs, rng())
    assert np.all(est >= runs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"badly_fraction": -0.1},
        {"badly_fraction": 1.5},
        {"max_factor": 1.5},
        {"cap_seconds": 0.0},
    ],
)
def test_inaccurate_validates_params(kwargs):
    with pytest.raises(ValueError):
        InaccurateEstimates(**kwargs)


@pytest.mark.parametrize("value", [nan, inf, -inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "build, zero_ok",
    [
        (lambda v: PerfectWithNoise(noise=v), True),
        (lambda v: InaccurateEstimates(badly_fraction=v), True),
        (lambda v: InaccurateEstimates(max_factor=v), False),
        (lambda v: InaccurateEstimates(cap_seconds=v), False),
    ],
    ids=["noise", "badly_fraction", "max_factor", "cap_seconds"],
)
def test_estimate_knobs_refuse_non_finite_values(build, zero_ok, value):
    """NaN and infinities are refused at construction; ``cap_seconds=None``
    (no cap) is the one way to lift the cap."""
    if value == 0.0 and zero_ok:
        build(value)
        return
    with pytest.raises(ValueError):
        build(value)


def test_max_factor_bounds_overestimation():
    runs = np.full(5000, 600.0)
    model = InaccurateEstimates(badly_fraction=1.0, max_factor=10.0, cap_seconds=None)
    est = model.estimates(runs, rng())
    assert np.all(est <= runs * 10.0 + 1e-6)


def test_names_are_informative():
    assert "0.4" in InaccurateEstimates().name() or "bad" in InaccurateEstimates().name()
    assert AccurateEstimates().name() == "AccurateEstimates"
