"""Timeline reconstruction and Gantt rendering from a trace.

Everything here consumes the flat event mappings a
:class:`~repro.obs.recorder.JsonlRecorder` wrote (or an
:class:`~repro.obs.recorder.InMemoryRecorder` holds) -- no driver, no
scheduler, no live simulation state.  A trace file therefore suffices
to reconstruct exactly *when every job held which processors and why
it stopped holding them*, which is the per-decision view the paper's
aggregate tables cannot provide.

Three exports:

* :func:`occupancy_intervals` -- the run as a list of
  :class:`~repro.obs.summary.OccupancyInterval` (one per contiguous
  dispatch..release period of a job), the machine-readable timeline;
* :func:`timeline_csv` -- the same as CSV text, one row per interval,
  for spreadsheets / pandas / gnuplot;
* :func:`ascii_gantt` -- a terminal Gantt chart, one row per job,
  time bucketed into a fixed number of columns.

The ASCII glyphs distinguish how each run period *ended*, because that
is the scheduling story: a ``#`` period ran to completion, a ``s``
period was cut short by a suspension (SS/TSS/IS), a ``x`` period was a
killed speculation (SPEC-BF), and ``.`` marks time spent waiting in
the queue between periods.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Mapping

from repro.obs.summary import OccupancyInterval, replay_events

#: Gantt glyph per interval outcome (also the chart legend).
GANTT_GLYPHS = {
    "finish": "#",
    "suspend": "s",
    "kill": "x",
    "waiting": ".",
}


def occupancy_intervals(
    events: Iterable[Mapping[str, Any]],
) -> list[OccupancyInterval]:
    """Rebuild the run's occupancy timeline from its event stream.

    The intervals :func:`~repro.obs.summary.replay_events` closes,
    sorted by (start, job_id).  Raises ``ValueError`` on structurally
    broken streams, the same replay as
    :func:`repro.obs.summary.summarize_trace`.
    """
    return sorted(
        (iv for _, iv in replay_events(events) if iv is not None),
        key=lambda iv: (iv.start, iv.job_id),
    )


def timeline_csv(intervals: Iterable[OccupancyInterval]) -> str:
    """Render intervals as CSV text (header + one row per interval).

    Columns: ``job,start,end,duration,width,area,end_type,via,resumed``.
    Floats use ``repr`` so the CSV round-trips exactly.
    """
    buf = io.StringIO()
    buf.write("job,start,end,duration,width,area,end_type,via,resumed\n")
    for iv in intervals:
        buf.write(
            f"{iv.job_id},{iv.start!r},{iv.end!r},{iv.duration!r},"
            f"{iv.width},{iv.area!r},{iv.end_type},"
            f"{iv.via if iv.via is not None else ''},"
            f"{1 if iv.resumed else 0}\n"
        )
    return buf.getvalue()


def ascii_gantt(
    intervals: list[OccupancyInterval],
    width: int = 72,
    max_jobs: int | None = None,
    arrivals: Mapping[int, float] | None = None,
) -> str:
    """Render a per-job Gantt chart as fixed-width ASCII.

    One row per job (ascending job id, truncated to *max_jobs* rows,
    at least one, with a trailing note).  Time is bucketed into *width* columns; a
    bucket takes the glyph of the interval covering its midpoint:
    ``#`` ran to completion, ``s`` ended in a suspension, ``x`` was a
    killed speculation, ``.`` queued (between the job's arrival -- if
    *arrivals* maps job id to submit time -- or its first dispatch,
    and its last release), space for before/after the job's lifetime.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if max_jobs is not None and max_jobs < 1:
        raise ValueError("max_jobs must be positive")
    if not intervals:
        return "(empty timeline)"
    t0 = min(iv.start for iv in intervals)
    t1 = max(iv.end for iv in intervals)
    if arrivals:
        t0 = min(t0, min(arrivals.values()))
    span = max(t1 - t0, 1e-12)

    by_job: dict[int, list[OccupancyInterval]] = {}
    for iv in intervals:
        by_job.setdefault(iv.job_id, []).append(iv)

    job_ids = sorted(by_job)
    shown = job_ids if max_jobs is None else job_ids[:max_jobs]
    label_w = max(len(str(j)) for j in shown)

    lines = [
        f"t = [{t0:g}, {t1:g}] s, {width} columns "
        f"({span / width:g} s/column)",
        "legend: # ran-to-finish   s suspended   x killed   . queued",
        "",
    ]
    for jid in shown:
        ivs = by_job[jid]
        first = arrivals.get(jid, ivs[0].start) if arrivals else ivs[0].start
        last = max(iv.end for iv in ivs)
        row = []
        for col in range(width):
            mid = t0 + (col + 0.5) * span / width
            ch = " "
            if first <= mid <= last:
                ch = GANTT_GLYPHS["waiting"]
                for iv in ivs:
                    if iv.start <= mid < iv.end:
                        ch = GANTT_GLYPHS.get(iv.end_type, "?")
                        break
            row.append(ch)
        lines.append(f"{jid:>{label_w}} |{''.join(row)}|")
    if len(shown) < len(job_ids):
        lines.append(f"... {len(job_ids) - len(shown)} more job(s) not shown")
    return "\n".join(lines)
