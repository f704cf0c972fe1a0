"""Job categorisation grids from the paper.

Table I (16 categories)
-----------------------

======================  ==========================
run time                width (processors)
======================  ==========================
VS: (0, 10 min]         Seq: 1
S:  (10 min, 1 hr]      N (Narrow): 2-8
L:  (1 hr, 8 hr]        W (Wide): 9-32
VL: (8 hr, inf)         VW (Very Wide): > 32
======================  ==========================

Table VI (4 categories, load-variation study)
---------------------------------------------

======================  ==========================
run time                width (processors)
======================  ==========================
S:  (0, 1 hr]           N: <= 8 processors
L:  (1 hr, inf)         W: > 8 processors
======================  ==========================

Categorisation is by **actual** run time.  Section V additionally splits
jobs into *well estimated* (estimate <= 2x actual) and *badly estimated*
(estimate > 2x actual) groups; that split lives in
:func:`estimate_quality` here because it is part of the same
classification vocabulary.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.workload.job import Job

MINUTE = 60.0
HOUR = 3600.0


class LengthClass(Enum):
    """Run-time classes of Table I."""

    VERY_SHORT = "VS"
    SHORT = "S"
    LONG = "L"
    VERY_LONG = "VL"


class WidthClass(Enum):
    """Width classes of Table I."""

    SEQUENTIAL = "Seq"
    NARROW = "N"
    WIDE = "W"
    VERY_WIDE = "VW"


#: 16-way category label, e.g. ``("VS", "VW")`` -- ordered as the paper's
#: tables read: length rows, width columns.
SixteenWayCategory = tuple[str, str]

#: 4-way category label for the load study, e.g. ``("S", "N")``.
FourWayCategory = tuple[str, str]

#: All 16 categories in table order (length-major).
SIXTEEN_WAY_CATEGORIES: tuple[SixteenWayCategory, ...] = tuple(
    (lc.value, wc.value) for lc in LengthClass for wc in WidthClass
)

#: All 4 load-study categories in table order.
FOUR_WAY_CATEGORIES: tuple[FourWayCategory, ...] = (
    ("S", "N"),
    ("S", "W"),
    ("L", "N"),
    ("L", "W"),
)

#: Run-time boundaries (exclusive lower, inclusive upper) per length class.
LENGTH_BOUNDS: dict[LengthClass, tuple[float, float]] = {
    LengthClass.VERY_SHORT: (0.0, 10 * MINUTE),
    LengthClass.SHORT: (10 * MINUTE, HOUR),
    LengthClass.LONG: (HOUR, 8 * HOUR),
    LengthClass.VERY_LONG: (8 * HOUR, float("inf")),
}

#: Width boundaries (inclusive) per width class.
WIDTH_BOUNDS: dict[WidthClass, tuple[int, int]] = {
    WidthClass.SEQUENTIAL: (1, 1),
    WidthClass.NARROW: (2, 8),
    WidthClass.WIDE: (9, 32),
    WidthClass.VERY_WIDE: (33, 10**9),
}


#: Inclusive upper bounds of the bounded classes, read once from the
#: tables above; the last class of each table is open-ended.
_VERY_SHORT_MAX = LENGTH_BOUNDS[LengthClass.VERY_SHORT][1]
_SHORT_MAX = LENGTH_BOUNDS[LengthClass.SHORT][1]
_LONG_MAX = LENGTH_BOUNDS[LengthClass.LONG][1]
_SEQUENTIAL_MAX = WIDTH_BOUNDS[WidthClass.SEQUENTIAL][1]
_NARROW_MAX = WIDTH_BOUNDS[WidthClass.NARROW][1]
_WIDE_MAX = WIDTH_BOUNDS[WidthClass.WIDE][1]


def length_class(run_time: float) -> LengthClass:
    """Classify a run time (seconds) per Table I."""
    if not run_time > 0:  # also rejects NaN
        raise ValueError(f"run time must be positive, got {run_time}")
    if run_time <= _VERY_SHORT_MAX:
        return LengthClass.VERY_SHORT
    if run_time <= _SHORT_MAX:
        return LengthClass.SHORT
    if run_time <= _LONG_MAX:
        return LengthClass.LONG
    return LengthClass.VERY_LONG


def width_class(procs: int) -> WidthClass:
    """Classify a processor count per Table I."""
    if not procs >= 1:  # also rejects NaN
        raise ValueError(f"processor count must be >= 1, got {procs}")
    if procs <= _SEQUENTIAL_MAX:
        return WidthClass.SEQUENTIAL
    if procs <= _NARROW_MAX:
        return WidthClass.NARROW
    if procs <= _WIDE_MAX:
        return WidthClass.WIDE
    return WidthClass.VERY_WIDE


def classify_sixteen_way(job: "Job") -> SixteenWayCategory:
    """Table I category of *job* (by actual run time and width).

    Equal to ``(length_class(job.run_time).value,
    width_class(job.procs).value)`` but without touching Enum members:
    TSS classifies every candidate victim, so this runs inside the
    preemption sweep.  A value those two reject fails every comparison
    here and reaches them, so the errors are theirs.
    """
    run_time = job.run_time
    procs = job.procs
    if run_time > _LONG_MAX:
        length = "VL"
    elif run_time > _SHORT_MAX:
        length = "L"
    elif run_time > _VERY_SHORT_MAX:
        length = "S"
    elif run_time > 0:
        length = "VS"
    else:
        length = length_class(run_time).value
    if procs > _WIDE_MAX:
        width = "VW"
    elif procs > _NARROW_MAX:
        width = "W"
    elif procs > _SEQUENTIAL_MAX:
        width = "N"
    elif procs >= 1:
        width = "Seq"
    else:
        width = width_class(procs).value
    return (length, width)


def classify_four_way(job: "Job") -> FourWayCategory:
    """Table VI category of *job* for the load-variation study."""
    length = "S" if job.run_time <= HOUR else "L"
    width = "N" if job.procs <= 8 else "W"
    return (length, width)


def estimate_quality(job: "Job") -> str:
    """Section V estimation-quality group.

    Returns ``"well"`` when the user estimate is at most twice the actual
    run time, else ``"badly"``.
    """
    return "well" if job.estimate <= 2.0 * job.run_time else "badly"


def category_label(category: tuple[str, str]) -> str:
    """Human-readable label, e.g. ``"VS VW"`` -- matches the paper's axes."""
    return f"{category[0]} {category[1]}"
