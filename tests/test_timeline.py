"""Timeline reconstruction and Gantt rendering from traces.

:mod:`repro.analysis.timeline` consumes recorded event streams only --
these tests drive it both with hand-built streams (exact interval
arithmetic) and with real traced simulations (conservation against the
driver's busy integral).
"""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.timeline import (
    GANTT_GLYPHS,
    OccupancyInterval,
    ascii_gantt,
    occupancy_intervals,
    timeline_csv,
)
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.experiments.runner import simulate
from repro.obs import InMemoryRecorder
from repro.workload.synthetic import generate_trace


def ev(t, etype, job, **data):
    return {"t": t, "type": etype, "job": job, **data}


SMALL_STREAM = [
    ev(0.0, "run_begin", None, schema=1, n_procs=8, n_jobs=2),
    ev(0.0, "arrival", 1, procs=4, run_time=30.0, estimate=30.0),
    ev(0.0, "start", 1, width=4, via=None),
    ev(5.0, "arrival", 2, procs=4, run_time=8.0, estimate=40.0),
    ev(5.0, "backfill_start", 2, width=4, via="backfill"),
    ev(10.0, "suspend", 1, width=4, preemptor=2),
    ev(13.0, "finish", 2),
    ev(13.0, "resume", 1, width=4, via=None),
    ev(33.0, "finish", 1),
]


def test_intervals_from_hand_built_stream():
    ivs = occupancy_intervals(SMALL_STREAM)
    assert ivs == [
        OccupancyInterval(1, 0.0, 10.0, 4, "suspend", via=None, resumed=False),
        OccupancyInterval(2, 5.0, 13.0, 4, "finish", via="backfill", resumed=False),
        OccupancyInterval(1, 13.0, 33.0, 4, "finish", via=None, resumed=True),
    ]
    assert ivs[0].duration == 10.0
    assert ivs[0].area == 40.0


def test_intervals_sorted_by_start_then_job():
    ivs = occupancy_intervals(SMALL_STREAM)
    keys = [(iv.start, iv.job_id) for iv in ivs]
    assert keys == sorted(keys)


def test_intervals_reject_double_dispatch():
    events = [ev(0.0, "start", 1, width=2), ev(1.0, "resume", 1, width=2)]
    with pytest.raises(ValueError, match="dispatched twice"):
        occupancy_intervals(events)


def test_intervals_reject_ghost_release():
    with pytest.raises(ValueError, match="not running"):
        occupancy_intervals([ev(3.0, "suspend", 9, width=2)])


def test_intervals_reject_unreleased_job():
    with pytest.raises(ValueError, match="still on processors"):
        occupancy_intervals([ev(0.0, "start", 1, width=2)])


def test_csv_round_trips_exactly():
    ivs = occupancy_intervals(SMALL_STREAM)
    text = timeline_csv(ivs)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(ivs)
    for row, iv in zip(rows, ivs, strict=True):
        assert int(row["job"]) == iv.job_id
        assert float(row["start"]) == iv.start  # repr round-trip is exact
        assert float(row["end"]) == iv.end
        assert float(row["area"]) == iv.area
        assert row["end_type"] == iv.end_type
        assert row["via"] == (iv.via or "")
        assert row["resumed"] == ("1" if iv.resumed else "0")


def test_gantt_glyphs_tell_the_period_story():
    chart = ascii_gantt(occupancy_intervals(SMALL_STREAM), width=33)
    lines = chart.splitlines()
    assert "legend" in lines[1]
    row1 = next(line for line in lines if line.startswith("1 |"))
    row2 = next(line for line in lines if line.startswith("2 |"))
    # job 1: suspended period, then queued gap, then ran to finish
    assert GANTT_GLYPHS["suspend"] in row1
    assert GANTT_GLYPHS["finish"] in row1
    assert GANTT_GLYPHS["waiting"] in row1
    assert row1.index("s") < row1.index(".") < row1.rindex("#")
    # job 2 never waited after dispatch and never got suspended
    assert "s" not in row2 and "." not in row2


def test_gantt_arrivals_extend_waiting_region():
    ivs = occupancy_intervals(SMALL_STREAM)
    with_arrivals = ascii_gantt(ivs, width=33, arrivals={1: 0.0, 2: 5.0})
    assert with_arrivals.count(".") >= ascii_gantt(ivs, width=33).count(".")


def test_gantt_truncation_note():
    ivs = occupancy_intervals(SMALL_STREAM)
    chart = ascii_gantt(ivs, width=20, max_jobs=1)
    assert "1 more job(s) not shown" in chart


def test_gantt_empty_and_bad_width():
    assert ascii_gantt([]) == "(empty timeline)"
    with pytest.raises(ValueError, match="width"):
        ascii_gantt(occupancy_intervals(SMALL_STREAM), width=0)


@pytest.mark.parametrize("max_jobs", [0, -2])
def test_gantt_rejects_max_jobs_below_one(max_jobs):
    """Zero rows crashed on an empty ``max()``; a negative count
    silently hid the last jobs."""
    with pytest.raises(ValueError, match="max_jobs"):
        ascii_gantt(occupancy_intervals(SMALL_STREAM), max_jobs=max_jobs)
    with pytest.raises(ValueError, match="max_jobs"):
        ascii_gantt([], max_jobs=max_jobs)


def test_kill_periods_get_their_own_glyph():
    events = [
        ev(0.0, "start", 3, width=2, via="speculative"),
        ev(4.0, "kill", 3, width=2),
        ev(6.0, "start", 3, width=2, via=None),
        ev(10.0, "finish", 3),
    ]
    ivs = occupancy_intervals(events)
    assert ivs[0].end_type == "kill" and ivs[0].via == "speculative"
    chart = ascii_gantt(ivs, width=20)
    assert GANTT_GLYPHS["kill"] in chart


def test_real_trace_conserves_busy_area():
    """Summed interval areas must equal the driver's busy integral --

    the timeline is a third derivation of the same conservation law
    (driver accounting, trace replay, interval reconstruction)."""
    jobs = generate_trace("SDSC", n_jobs=200, seed=9)
    recorder = InMemoryRecorder()
    result = simulate(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=1.5),
        128,
        recorder=recorder,
    )
    ivs = occupancy_intervals(recorder.dicts())
    assert result.total_suspensions > 0
    assert sum(1 for iv in ivs if iv.end_type == "suspend") == result.total_suspensions
    assert sum(1 for iv in ivs if iv.resumed) >= result.total_suspensions > 0
    total_area = sum(iv.area for iv in ivs)
    assert abs(total_area - result.busy_proc_seconds) <= 1e-6 * max(total_area, 1.0)
    # widths on re-dispatch match the original width (local restart)
    by_job: dict[int, set[int]] = {}
    for iv in ivs:
        by_job.setdefault(iv.job_id, set()).add(iv.width)
    assert all(len(widths) == 1 for widths in by_job.values())
