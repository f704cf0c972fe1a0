"""Report rendering: the paper's tables and figure data as ASCII.

* :mod:`repro.analysis.tables` -- fixed-width table rendering for 4x4
  category grids and scheme-comparison matrices.
* :mod:`repro.analysis.report` -- full experiment reports combining
  several tables with headers and paper-reference notes.
* :mod:`repro.analysis.timeline` -- occupancy timelines rebuilt from
  decision traces by the trace replay (see ``docs/TRACING.md``):
  interval lists, CSV export, and ASCII Gantt charts.
"""

from repro.analysis.tables import (
    category_grid_table,
    comparison_table,
    render_table,
    series_table,
)
from repro.analysis.report import experiment_report, scheme_comparison_report
from repro.analysis.timeline import ascii_gantt, occupancy_intervals, timeline_csv
from repro.obs.summary import OccupancyInterval

__all__ = [
    "OccupancyInterval",
    "ascii_gantt",
    "category_grid_table",
    "comparison_table",
    "experiment_report",
    "occupancy_intervals",
    "render_table",
    "scheme_comparison_report",
    "series_table",
    "timeline_csv",
]
