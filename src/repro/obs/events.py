"""Typed trace events and the :class:`Tracer` emission facade.

One simulation produces one ordered stream of :class:`TraceEvent`
records.  Every event carries the simulation time ``t``, an event type
from :data:`EVENT_TYPES`, the subject job id (``None`` for run-level
events) and a flat ``data`` mapping of type-specific fields.  The
stream is self-contained: ``run_begin`` carries the machine size and
scheduler config, ``arrival`` carries each job's static fields, so a
trace can be replayed (see :mod:`repro.obs.summary`) without the
workload files that produced it.

The full field-by-field schema, with units and stability guarantees,
is documented in ``docs/TRACING.md`` -- that document is the public
contract; this module is its implementation.

Emission discipline
-------------------

The driver and schedulers never talk to a recorder directly; they emit
through a :class:`Tracer`, which only exists when tracing is enabled
(``driver.tracer is None`` otherwise -- the zero-overhead-when-off
contract).  The tracer keeps no tallies: every count and state of a run
is folded from the stream afterwards by :mod:`repro.obs.summary`, so
every recorder implementation yields the same numbers.

Decision records
----------------

``decision`` events are the observability payload the aggregate
metrics cannot provide: for every preemption attempt they carry the
idle job's xfactor, the SF threshold, and a per-victim verdict list
(``candidate`` / ``sf_threshold`` / ``width_rule`` /
``category_limit`` / ``protected`` / ``priority``) explaining exactly
why each running job was or was not suspendable at that instant --
eq. 2 of the paper, evaluated and written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster.bitset import mask_to_ids

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder
    from repro.workload.job import Job

#: Bump on any backwards-incompatible change to event fields; written
#: into every ``run_begin`` record so readers can refuse mismatches.
TRACE_SCHEMA_VERSION = 1

#: The event-type vocabulary, in rough lifecycle order.
EVENT_TYPES = (
    "run_begin",  # run header: schema, scheduler, n_procs
    "arrival",  # job entered the queue (static fields attached)
    "start",  # fresh dispatch onto free processors
    "backfill_start",  # fresh dispatch via a backfilling fill
    "resume",  # re-dispatch of a suspended job
    "suspend",  # running job preempted back into the queue
    "kill",  # speculative run hit its deadline; progress discarded
    "finish",  # job completed all useful work
    "decision",  # scheduler decision record (see `action` field)
    "run_end",  # run trailer: driver totals for cross-checking
)

#: ``decision.action`` vocabulary.
DECISION_ACTIONS = (
    "preempt",  # victims suspended to start / resume the subject job
    "preempt_denied",  # preemption attempted and refused (see `cause`)
    "timeslice_grant",  # IS: job granted its immediate timeslice
    "reservation",  # backfilling: the head job's reservation anchor
    "speculate",  # speculative backfilling: bounded test run started
)


@dataclass(frozen=True)
class TraceEvent:
    """One record of the trace stream.

    ``data`` holds the type-specific fields, flat and JSON-stable
    (numbers, strings, bools, lists, dicts).  :meth:`as_dict` flattens
    the whole record into a single mapping -- the JSONL line format.
    """

    t: float
    type: str
    job: int | None = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """The JSONL representation: common fields merged with data."""
        out: dict[str, Any] = {"t": self.t, "type": self.type, "job": self.job}
        out.update(self.data)
        return out


def victim_verdict(
    job_id: int,
    xfactor: float,
    procs: int,
    verdict: str,
    limit: float | None = None,
) -> dict[str, Any]:
    """One entry of a decision record's ``victims`` list.

    *verdict* is ``"candidate"`` for an accepted victim or a denial
    cause from :data:`repro.obs.counters.DENIAL_CAUSES`; *limit* is the
    TSS category limit when the verdict is ``"category_limit"``.
    """
    out: dict[str, Any] = {
        "job": job_id,
        "xfactor": xfactor,
        "procs": procs,
        "verdict": verdict,
    }
    if limit is not None:
        out["limit"] = limit
    return out


class Tracer:
    """Emission facade bound to an enabled recorder.

    Constructed by the driver **only when tracing is on**; emission
    sites therefore guard with a single ``if tracer is not None``.
    """

    __slots__ = ("recorder",)

    def __init__(self, recorder: "TraceRecorder") -> None:
        self.recorder = recorder

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _emit(self, t: float, etype: str, job: int | None, data: dict[str, Any]) -> None:
        self.recorder.record(TraceEvent(t=t, type=etype, job=job, data=data))

    # ------------------------------------------------------------------
    # run framing
    # ------------------------------------------------------------------
    def run_begin(
        self,
        t: float,
        scheduler_name: str,
        scheduler_config: Mapping[str, Any],
        n_procs: int,
        n_jobs: int,
    ) -> None:
        self._emit(
            t,
            "run_begin",
            None,
            {
                "schema": TRACE_SCHEMA_VERSION,
                "scheduler": scheduler_name,
                "config": dict(scheduler_config),
                "n_procs": n_procs,
                "n_jobs": n_jobs,
            },
        )

    def run_end(
        self,
        t: float,
        *,
        finished: int,
        total_suspensions: int,
        total_kills: int,
        busy_proc_seconds: float,
        makespan: float,
        events_dispatched: int,
    ) -> None:
        """Driver-claimed totals, for replay cross-checking only.

        :func:`repro.obs.summary.summarize_trace` recomputes every one
        of these independently from the event stream; this trailer is
        what it verifies itself against.
        """
        self._emit(
            t,
            "run_end",
            None,
            {
                "finished": finished,
                "total_suspensions": total_suspensions,
                "total_kills": total_kills,
                "busy_proc_seconds": busy_proc_seconds,
                "makespan": makespan,
                "events_dispatched": events_dispatched,
            },
        )

    # ------------------------------------------------------------------
    # lifecycle events (emitted by the driver)
    # ------------------------------------------------------------------
    def arrival(self, t: float, job: "Job") -> None:
        self._emit(
            t,
            "arrival",
            job.job_id,
            {
                "procs": job.procs,
                "run_time": job.run_time,
                "estimate": job.estimate,
                "memory_mb": job.memory_mb,
            },
        )

    def dispatch(
        self,
        t: float,
        job: "Job",
        procs: int,
        resumed: bool,
        via: str | None,
    ) -> None:
        """A job moved queue -> processors (start / backfill / resume).

        *procs* is the job's processor bitmask; the record lists its ids
        in ascending order.
        """
        if resumed:
            etype = "resume"
        elif via == "backfill":
            etype = "backfill_start"
        else:
            etype = "start"
        self._emit(
            t,
            etype,
            job.job_id,
            {
                "procs": list(mask_to_ids(procs)),
                "width": procs.bit_count(),
                "via": via,
                "pending_overhead": job.pending_overhead,
            },
        )

    def suspend(
        self,
        t: float,
        job: "Job",
        procs: int,
        preemptor: int | None,
        overhead_added: float,
    ) -> None:
        """A running job was suspended off the processors in mask *procs*."""
        self._emit(
            t,
            "suspend",
            job.job_id,
            {
                "procs": list(mask_to_ids(procs)),
                "width": procs.bit_count(),
                "preemptor": preemptor,
                "overhead_added": overhead_added,
                "suspensions": job.suspension_count,
                "useful_done": job.useful_done,
            },
        )

    def kill(self, t: float, job: "Job", procs: int, wasted: float) -> None:
        """A speculative run was killed off the processors in mask *procs*."""
        self._emit(
            t,
            "kill",
            job.job_id,
            {
                "procs": list(mask_to_ids(procs)),
                "width": procs.bit_count(),
                "wasted": wasted,
                "kills": job.kill_count,
            },
        )

    def finish(self, t: float, job: "Job") -> None:
        self._emit(
            t,
            "finish",
            job.job_id,
            {
                "suspensions": job.suspension_count,
                "kills": job.kill_count,
                "total_overhead": job.total_overhead,
            },
        )

    # ------------------------------------------------------------------
    # decision records (emitted by schedulers)
    # ------------------------------------------------------------------
    def decision(self, t: float, action: str, job_id: int | None, **data: Any) -> None:
        """Emit one decision record; *action* is from :data:`DECISION_ACTIONS`."""
        payload: dict[str, Any] = {"action": action}
        payload.update(data)
        self._emit(t, "decision", job_id, payload)
