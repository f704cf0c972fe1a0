"""Discrete-event simulation substrate.

The paper evaluates its scheduling schemes with a "locally developed
simulator"; this subpackage is that simulator.  It provides:

* :mod:`repro.sim.driver` -- :class:`~repro.sim.driver.SchedulingSimulation`,
  which binds a cluster, a scheduler and a workload together, owns the
  event calendar, the clock and the dispatch loop, and records per-job
  outcomes;
* :mod:`repro.sim.audit` -- post-hoc consistency checks of a finished
  run from its per-job records alone.

Determinism is a hard requirement for reproduction work, so
simultaneous events are totally ordered by ``(time, kind, sequence)``
(:class:`~repro.sim.driver.EventKind`).
"""

from repro.sim.driver import EventKind, SchedulingSimulation, SimulationError, SimulationResult

__all__ = [
    "EventKind",
    "SchedulingSimulation",
    "SimulationError",
    "SimulationResult",
]
