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
* :mod:`repro.obs.counters` -- per-run :class:`TraceCounters`
  (suspensions, preemption denials by cause, backfill fills,
  queue-depth time series), maintained by the tracer and surfaced on
  :class:`~repro.sim.driver.SimulationResult`.
* :mod:`repro.obs.summary` -- independent replay: rebuild per-job
  statistics, the busy-area integral and utilisation from the event
  stream alone and compare them against what the run claimed.

**Zero-overhead-when-off contract:** a simulation constructed without a
recorder (or with the :data:`NULL_RECORDER`) has ``driver.tracer is
None`` and every emission site is guarded by that single ``is not
None`` check -- no event objects are built, no strings formatted, no
callbacks invoked.  ``tools/bench_gate.py`` requires a null-recorder
run to make exactly the untraced run's calls.  The schema itself is
documented as a stable contract in ``docs/TRACING.md``.
"""

from repro.obs.counters import DENIAL_CAUSES, GridCounters, TraceCounters
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
    TraceSummary,
    format_grid_counters,
    format_summary,
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
    "TRACE_SCHEMA_VERSION",
    "TraceCounters",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "Tracer",
    "format_grid_counters",
    "format_summary",
    "read_trace",
    "summarize_trace",
]
