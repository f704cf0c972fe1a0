"""Job categorisation grids (Tables I and VI) and the estimate split."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.workload.categories import (
    FOUR_WAY_CATEGORIES,
    SIXTEEN_WAY_CATEGORIES,
    LengthClass,
    WidthClass,
    category_label,
    classify_four_way,
    classify_sixteen_way,
    estimate_quality,
    length_class,
    width_class,
)
from tests.conftest import make_job

MIN = 60.0
HOUR = 3600.0


# ----------------------------------------------------------------------
# Table I: length classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "run_time, expected",
    [
        (1.0, LengthClass.VERY_SHORT),
        (10 * MIN, LengthClass.VERY_SHORT),  # inclusive upper bound
        (10 * MIN + 1, LengthClass.SHORT),
        (HOUR, LengthClass.SHORT),
        (HOUR + 1, LengthClass.LONG),
        (8 * HOUR, LengthClass.LONG),
        (8 * HOUR + 1, LengthClass.VERY_LONG),
        (7 * 24 * HOUR, LengthClass.VERY_LONG),
    ],
)
def test_length_class_boundaries(run_time, expected):
    assert length_class(run_time) is expected


def test_length_class_rejects_nonpositive():
    with pytest.raises(ValueError):
        length_class(0.0)


def test_length_class_rejects_nan():
    """NaN fails every ``<=`` bound, so it used to land in VERY_LONG."""
    with pytest.raises(ValueError, match="run time must be positive"):
        length_class(float("nan"))


# ----------------------------------------------------------------------
# Table I: width classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "procs, expected",
    [
        (1, WidthClass.SEQUENTIAL),
        (2, WidthClass.NARROW),
        (8, WidthClass.NARROW),
        (9, WidthClass.WIDE),
        (32, WidthClass.WIDE),
        (33, WidthClass.VERY_WIDE),
        (430, WidthClass.VERY_WIDE),
    ],
)
def test_width_class_boundaries(procs, expected):
    assert width_class(procs) is expected


def test_width_class_rejects_zero():
    with pytest.raises(ValueError):
        width_class(0)


# ----------------------------------------------------------------------
# combined classifiers
# ----------------------------------------------------------------------
def test_sixteen_way_category_tuple():
    j = make_job(run=5 * MIN, procs=64)
    assert classify_sixteen_way(j) == ("VS", "VW")


def test_sixteen_way_full_grid_enumerated():
    assert len(SIXTEEN_WAY_CATEGORIES) == 16
    assert SIXTEEN_WAY_CATEGORIES[0] == ("VS", "Seq")
    assert SIXTEEN_WAY_CATEGORIES[-1] == ("VL", "VW")


@pytest.mark.parametrize(
    "run, procs, expected",
    [
        (30 * MIN, 4, ("S", "N")),
        (30 * MIN, 16, ("S", "W")),
        (2 * HOUR, 8, ("L", "N")),
        (2 * HOUR, 9, ("L", "W")),
        (HOUR, 8, ("S", "N")),  # Table VI boundaries inclusive
        (HOUR + 1, 9, ("L", "W")),
    ],
)
def test_four_way_classification(run, procs, expected):
    assert classify_four_way(make_job(run=run, procs=procs)) == expected


def test_four_way_grid_enumerated():
    assert FOUR_WAY_CATEGORIES == (("S", "N"), ("S", "W"), ("L", "N"), ("L", "W"))


def test_category_label_format():
    assert category_label(("VS", "VW")) == "VS VW"


# ----------------------------------------------------------------------
# section V estimate-quality split
# ----------------------------------------------------------------------
def test_estimate_quality_well():
    assert estimate_quality(make_job(run=100.0, estimate=150.0)) == "well"
    assert estimate_quality(make_job(run=100.0, estimate=200.0)) == "well"  # == 2x


def test_estimate_quality_badly():
    assert estimate_quality(make_job(run=100.0, estimate=201.0)) == "badly"
    assert estimate_quality(make_job(run=60.0, estimate=86400.0)) == "badly"


def test_every_combination_maps_to_a_category():
    """The grid is total: any (run, procs) yields a valid category."""
    for run in (1.0, 600.0, 601.0, 3600.0, 3601.0, 28800.0, 28801.0):
        for procs in (1, 2, 8, 9, 32, 33, 400):
            cat = classify_sixteen_way(make_job(run=run, procs=procs))
            assert cat in SIXTEEN_WAY_CATEGORIES


# ----------------------------------------------------------------------
# the flat 16-way classifier equals the Enum classifiers
# ----------------------------------------------------------------------
def _neighbours(x):
    return (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))


LENGTH_EDGES = [t for b in (10 * MIN, HOUR, 8 * HOUR) for t in _neighbours(b)]
WIDTH_EDGES = [1, 2, 8, 9, 32, 33, 10**9, 10**9 + 1]


@pytest.mark.parametrize("run_time", LENGTH_EDGES)
@pytest.mark.parametrize("procs", WIDTH_EDGES)
def test_flat_classifier_at_every_bound(run_time, procs):
    job = make_job(run=run_time, procs=procs)
    want = (length_class(run_time).value, width_class(procs).value)
    assert classify_sixteen_way(job) == want


@given(
    run_time=st.one_of(
        st.floats(min_value=0.0, max_value=10 * HOUR, exclude_min=True),
        st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
        st.sampled_from(LENGTH_EDGES),
    ),
    procs=st.one_of(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=10**10),
    ),
)
@example(run_time=5e-324, procs=1)
def test_flat_classifier_matches_enum_classifiers(run_time, procs):
    job = make_job(run=run_time, procs=procs)
    want = (length_class(run_time).value, width_class(procs).value)
    assert classify_sixteen_way(job) == want


@pytest.mark.parametrize(
    "run_time, procs, message",
    [
        (0.0, 4, "run time must be positive"),
        (-1.0, 4, "run time must be positive"),
        (float("nan"), 4, "run time must be positive"),
        (100.0, 0, "processor count must be >= 1"),
        (100.0, float("nan"), "processor count must be >= 1"),
    ],
)
def test_flat_classifier_raises_what_the_enum_classifiers_raise(run_time, procs, message):
    """Job construction refuses these values, but a mutated job still
    fails loudly, with the Enum classifiers' own errors."""
    job = SimpleNamespace(run_time=run_time, procs=procs)
    with pytest.raises(ValueError, match=message):
        classify_sixteen_way(job)
