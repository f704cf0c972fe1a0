"""Availability profile: claims, queries and anchor search."""

from __future__ import annotations

import pytest

from repro.schedulers.profiles import AvailabilityProfile, ProfileError


def test_initial_profile_is_flat_capacity():
    p = AvailabilityProfile(16, origin=100.0)
    assert p.free_at(100.0) == 16
    assert p.free_at(10_000.0) == 16


def test_query_before_origin_rejected():
    p = AvailabilityProfile(16, origin=100.0)
    with pytest.raises(ValueError):
        p.free_at(99.0)


def test_claim_reduces_window_only():
    p = AvailabilityProfile(10, origin=0.0)
    p.claim(10.0, 5.0, 4)
    assert p.free_at(5.0) == 10
    assert p.free_at(10.0) == 6
    assert p.free_at(14.999) == 6
    assert p.free_at(15.0) == 10


def test_claims_stack():
    p = AvailabilityProfile(10, origin=0.0)
    p.claim(0.0, 10.0, 3)
    p.claim(5.0, 10.0, 3)
    assert p.free_at(0.0) == 7
    assert p.free_at(5.0) == 4
    assert p.free_at(12.0) == 7
    assert p.free_at(15.0) == 10


def test_claim_underflow_raises():
    p = AvailabilityProfile(4, origin=0.0)
    p.claim(0.0, 10.0, 3)
    with pytest.raises(ProfileError, match="underflow"):
        p.claim(5.0, 2.0, 2)


def test_claim_validates_arguments():
    p = AvailabilityProfile(4, origin=10.0)
    with pytest.raises(ValueError):
        p.claim(10.0, 5.0, 0)
    with pytest.raises(ValueError):
        p.claim(10.0, 0.0, 1)
    with pytest.raises(ValueError):
        p.claim(5.0, 5.0, 1)  # before origin


def test_min_free_over_window():
    p = AvailabilityProfile(10, origin=0.0)
    p.claim(5.0, 5.0, 6)
    assert p.min_free(0.0, 5.0) == 10
    assert p.min_free(0.0, 6.0) == 4
    assert p.min_free(10.0, 20.0) == 10


def test_fits_matches_min_free():
    p = AvailabilityProfile(10, origin=0.0)
    p.claim(5.0, 5.0, 6)
    assert p.fits(0.0, 5.0, 10)
    assert not p.fits(0.0, 6.0, 5)
    assert p.fits(10.0, 100.0, 10)


def test_find_anchor_immediate_when_free():
    p = AvailabilityProfile(8, origin=0.0)
    assert p.find_anchor(100.0, 8) == 0.0


def test_find_anchor_after_release():
    p = AvailabilityProfile(8, origin=0.0)
    p.claim(0.0, 50.0, 6)  # 2 free until t=50
    assert p.find_anchor(10.0, 2) == 0.0
    assert p.find_anchor(10.0, 4) == 50.0


def test_find_anchor_fits_into_hole():
    p = AvailabilityProfile(8, origin=0.0)
    p.claim(0.0, 10.0, 8)  # full until 10
    p.claim(20.0, 10.0, 8)  # full again 20-30
    assert p.find_anchor(10.0, 4) == 10.0  # exactly the hole
    assert p.find_anchor(11.0, 4) == 30.0  # too long for the hole


def test_find_anchor_respects_earliest():
    p = AvailabilityProfile(8, origin=0.0)
    assert p.find_anchor(10.0, 4, earliest=42.0) == 42.0


def test_find_anchor_impossible_count():
    p = AvailabilityProfile(8, origin=0.0)
    with pytest.raises(ProfileError, match="never"):
        p.find_anchor(10.0, 9)


def test_running_release_clamps_past_estimates():
    """A running job past its estimate still occupies processors now."""
    # "expected end" in the past
    p = AvailabilityProfile(8, origin=100.0, releases=[(4, 90.0)])
    assert p.free_at(100.0) == 4


def test_releases_build_the_step_function():
    """Tied ends share one breakpoint; overdue releases end 1 s on."""
    releases = [(4, 300.0), (2, 150.0), (3, 300.0), (1, 50.0)]
    p = AvailabilityProfile(16, origin=100.0, releases=releases)
    assert p.breakpoints() == [(100.0, 6), (101.0, 7), (150.0, 9), (300.0, 16)]


def test_releases_over_capacity_raise():
    with pytest.raises(ProfileError):
        AvailabilityProfile(8, origin=0.0, releases=[(5, 10.0), (4, 20.0)])
    with pytest.raises(ValueError):
        AvailabilityProfile(8, origin=0.0, releases=[(0, 10.0)])


def test_window_queries_before_origin_rejected():
    """``min_free`` and ``fits`` refuse a window that starts before the
    origin, as ``free_at`` and ``claim`` do, instead of reading the tail
    segment."""
    p = AvailabilityProfile(8, origin=100.0)
    p.claim(100.0, 50.0, 6)
    with pytest.raises(ValueError, match="before origin"):
        p.min_free(50.0, 120.0)
    with pytest.raises(ValueError, match="before origin"):
        p.fits(50.0, 10.0, 8)
    assert p.min_free(100.0, 120.0) == 2


def test_anchor_then_claim_round_trip():
    p = AvailabilityProfile(8, origin=0.0)
    p.claim(0.0, 100.0, 5)
    anchor = p.find_anchor(50.0, 5)
    assert anchor == 100.0
    p.claim(anchor, 50.0, 5)
    assert p.free_at(120.0) == 3


def test_breakpoints_snapshot():
    p = AvailabilityProfile(8, origin=0.0)
    p.claim(10.0, 10.0, 2)
    assert p.breakpoints() == [(0.0, 8), (10.0, 6), (20.0, 8)]


def test_many_overlapping_claims_consistent():
    p = AvailabilityProfile(100, origin=0.0)
    for i in range(20):
        p.claim(float(i), 10.0, 2)
    # at t=9.5 all 20 overlap partially: claims alive are i in [0..9]
    assert p.free_at(9.5) == 100 - 2 * 10
    assert p.free_at(28.5) == 100 - 2  # only claim i=19 is alive
    assert p.free_at(29.0) == 100
