"""Suspension priorities (the ``Job`` xfactors) and the preemption criteria."""

from __future__ import annotations

import pytest

from repro.core.priorities import (
    GOLDEN_RATIO,
    PreemptionCriteria,
    max_suspensions_threshold,
)
from tests.conftest import make_job


def test_suspension_priority_is_xfactor():
    """Eq. 2: (wait + estimate) / estimate."""
    j = make_job(run=100.0, estimate=100.0)
    j.mark_submitted(0.0)
    assert j.xfactor(50.0) == pytest.approx(1.5)


def test_instantaneous_priority_matches_definition():
    """IS: (wait + accrued run) / accrued run."""
    j = make_job(run=1000.0)
    j.mark_submitted(0.0)
    j.mark_started(100.0, 0b1)
    assert j.instantaneous_xfactor(300.0) == pytest.approx((100 + 200) / 200)


def test_threshold_closed_form():
    assert max_suspensions_threshold(0) == pytest.approx(2.0)
    assert max_suspensions_threshold(1) == pytest.approx(2.0**0.5)
    assert max_suspensions_threshold(2) == pytest.approx(2.0 ** (1 / 3))


def test_threshold_monotone_decreasing_to_one():
    values = [max_suspensions_threshold(n) for n in range(8)]
    assert values == sorted(values, reverse=True)
    assert values[-1] > 1.0


def test_threshold_rejects_negative():
    with pytest.raises(ValueError):
        max_suspensions_threshold(-1)


def test_golden_ratio_constant():
    assert GOLDEN_RATIO == pytest.approx(1.6180339887, abs=1e-9)


# ----------------------------------------------------------------------
# PreemptionCriteria
# ----------------------------------------------------------------------
def test_criteria_rejects_sf_below_one():
    with pytest.raises(ValueError):
        PreemptionCriteria(suspension_factor=0.9)


def test_criteria_rejects_non_bool_width_rule():
    with pytest.raises(ValueError, match="width_rule"):
        PreemptionCriteria(width_rule="false")  # type: ignore[arg-type]


def test_priority_threshold():
    c = PreemptionCriteria(suspension_factor=2.0)
    assert c.priority_allows(2.0, 1.0)
    assert c.priority_allows(4.0, 2.0)
    assert not c.priority_allows(1.9, 1.0)


def test_width_rule_blocks_narrow_suspending_wide():
    c = PreemptionCriteria(width_rule=True)
    # victim may be at most twice the idle job's width
    assert c.width_allows(idle_procs=4, victim_procs=8, reentry=False)
    assert not c.width_allows(idle_procs=4, victim_procs=9, reentry=False)
    assert not c.width_allows(idle_procs=1, victim_procs=300, reentry=False)


def test_width_rule_waived_on_reentry():
    c = PreemptionCriteria(width_rule=True)
    assert c.width_allows(idle_procs=1, victim_procs=300, reentry=True)


def test_width_rule_can_be_disabled():
    c = PreemptionCriteria(width_rule=False)
    assert c.width_allows(idle_procs=1, victim_procs=300, reentry=False)
