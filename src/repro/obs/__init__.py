"""Decision-trace observability for the scheduling simulator.

The paper's whole argument is *per-decision*: SS/TSS win or lose
depending on which jobs get suspended, when, and why (xfactor margins,
the SF threshold, the half-width rule, TSS category limits, the IS
timeslice).  Aggregates cannot explain an individual preemption; this
subpackage records every scheduler decision as a typed event stream so
any run can be replayed, audited and visualised after the fact.

Layers (bottom-up):

* :mod:`repro.obs.events` -- the typed :class:`TraceEvent` record, the
  event-type vocabulary, and the :class:`Tracer` facade the driver and
  schedulers emit through.
* :mod:`repro.obs.recorder` -- the :class:`TraceRecorder` protocol and
  its three implementations: :class:`NullRecorder` (disabled,
  zero-cost), :class:`InMemoryRecorder` (tests / notebooks) and
  :class:`JsonlRecorder` (streaming one JSON object per line to disk).
* :mod:`repro.obs.counters` -- the denial-cause vocabulary and the
  grid executor's fault-recovery tallies (:class:`GridCounters`).
* :mod:`repro.obs.summary` -- the one replay of a trace: it pairs every
  release with its dispatch and folds the stream into per-job
  statistics, run counts, the busy-area integral, utilisation and the
  queue and machine state at each lifecycle instant, then checks them
  against what the run claimed.  Nothing is counted while a run emits.

**Zero-overhead-when-off contract:** a simulation constructed without a
recorder (or with the :data:`NULL_RECORDER`) has ``driver.tracer is
None`` and every emission site is guarded by that single ``is not
None`` check -- no event objects are built, no strings formatted, no
callbacks invoked.  ``tools/bench_gate.py`` requires a null-recorder
run to make exactly the untraced run's calls.  The schema itself is
documented as a stable contract in ``docs/TRACING.md``.
"""

from repro.obs.counters import DENIAL_CAUSES, GridCounters
from repro.obs.events import (
    DECISION_ACTIONS,
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    Tracer,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    TraceRecorder,
    read_trace,
)
from repro.obs.summary import (
    OccupancyInterval,
    StateSample,
    TraceSummary,
    format_grid_counters,
    format_summary,
    replay_events,
    summarize_trace,
)

__all__ = [
    "DECISION_ACTIONS",
    "DENIAL_CAUSES",
    "EVENT_TYPES",
    "GridCounters",
    "InMemoryRecorder",
    "JsonlRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "OccupancyInterval",
    "StateSample",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "Tracer",
    "format_grid_counters",
    "format_summary",
    "read_trace",
    "replay_events",
    "summarize_trace",
]
