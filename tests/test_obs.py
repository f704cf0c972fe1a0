"""Decision tracing: the replay witness, round-trips, identity.

The contracts under test (docs/TRACING.md):

* **zero-overhead-when-off** -- no recorder (or a disabled one) means
  ``driver.tracer is None``;
* **schedule identity** -- tracing changes no decisions: a traced run
  matches the untraced run of the same inputs job for job and total
  for total (``events_dispatched`` included), although untraced SS,
  TSS and IS never schedule the timer ticks that cannot act and traced
  runs keep every tick;
* **consistency** -- for SS, TSS, IS and NS alike, the driver's totals
  and an independent replay of the event stream agree (run counts,
  per-job suspension counts, busy-area integral, utilization), and the
  replay's counts equal a hand fold over the stream;
* **round-trip** -- a trace written to JSONL reads back to the same
  replayed summary as the in-memory stream;
* **self-check** -- the ``run_end`` trailer verifies the replay, and
  structurally broken streams raise instead of replaying.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.timeline import occupancy_intervals
from repro.cluster.machine import Cluster
from repro.core.immediate_service import ImmediateServiceScheduler
from repro.core.overhead import DiskSwapOverheadModel
from repro.core.priorities import PreemptionCriteria
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import TunableSelectiveSuspensionScheduler
from repro.experiments.parallel import outcome_fingerprint
from repro.experiments.runner import simulate
from repro.obs import (
    DENIAL_CAUSES,
    EVENT_TYPES,
    NULL_RECORDER,
    InMemoryRecorder,
    JsonlRecorder,
    read_trace,
    summarize_trace,
)
from repro.obs import events as obs_events
from repro.obs import recorder as obs_recorder
from repro.obs.events import DECISION_ACTIONS
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.hybrids import (
    SuspensionWithHeadGuarantee,
    TunableSuspensionWithGuarantees,
)
from repro.schedulers.policy import (
    FifoOrder,
    GreedyBackfill,
    HeadReservation,
    NoBackfill,
    NoReservations,
    PolicyKernel,
    PreemptionPolicy,
    QueuePolicy,
    SweepPreemption,
)
from repro.schedulers.registry import SCHEMES
from repro.schedulers.relaxed import RelaxedBackfillScheduler
from repro.schedulers.speculative import SpeculativeBackfillScheduler
from repro.sim.audit import audit_result
from repro.sim.driver import SchedulingSimulation
from repro.workload.estimates import InaccurateEstimates
from repro.workload.job import Job, fresh_copies
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace

N_PROCS = 128

SCHEDULER_FACTORIES = {
    "ss": lambda: SelectiveSuspensionScheduler(suspension_factor=1.5),
    "tss": lambda: TunableSelectiveSuspensionScheduler(suspension_factor=1.5),
    "is": ImmediateServiceScheduler,
    "ns": EasyBackfillScheduler,
}


@pytest.fixture(scope="module")
def trace_jobs():
    """Congested enough that SS/TSS/IS all actually suspend someone."""
    return generate_trace("SDSC", n_jobs=260, seed=9)


def traced_run(trace_jobs, scheme: str):
    recorder = InMemoryRecorder()
    result = simulate(trace_jobs, SCHEDULER_FACTORIES[scheme](), N_PROCS, recorder=recorder)
    return result, recorder


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# ----------------------------------------------------------------------
# zero-overhead-when-off
# ----------------------------------------------------------------------
def test_untraced_run_has_no_counters(trace_jobs):
    """Nothing is counted while a run emits: an untraced run builds no
    tracer, and every count comes from replaying a trace."""
    sim = SchedulingSimulation(Cluster(N_PROCS), EasyBackfillScheduler())
    assert sim.tracer is None
    sim.run(fresh_copies(trace_jobs))
    assert sim.tracer is None


def test_disabled_recorder_keeps_tracing_off(trace_jobs):
    assert not NULL_RECORDER.enabled
    sim = SchedulingSimulation(
        Cluster(N_PROCS), EasyBackfillScheduler(), recorder=NULL_RECORDER
    )
    assert sim.tracer is None
    sim.run(fresh_copies(trace_jobs))


# ----------------------------------------------------------------------
# schedule identity: tracing observes, never perturbs
# ----------------------------------------------------------------------
def schedule_signature(result):
    return (
        result.makespan,
        result.busy_proc_seconds,
        result.total_suspensions,
        result.events_dispatched,
        tuple(
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ),
    )


def _fifo_sweep() -> PolicyKernel:
    """The SS sweep over a FIFO queue, which cannot forecast priorities."""
    return PolicyKernel(
        scheme_id="fifo-sweep",
        display_name="fifo-sweep",
        queue=FifoOrder(),
        reservation=NoReservations(),
        backfill=GreedyBackfill(),
        preemption=SweepPreemption(PreemptionCriteria(suspension_factor=1.5)),
    )


#: case -> (scheduler factory, simulate options): every scheme above, both
#: hybrids, the SS sweep over a FIFO queue, and one run with suspension
#: overhead on the migratable model.  Untraced runs skip the timer ticks
#: that cannot act; traced runs keep them.
IDENTITY_CASES = {
    **{scheme: (factory, {}) for scheme, factory in SCHEDULER_FACTORIES.items()},
    "tss-conservative": (
        lambda: TunableSuspensionWithGuarantees(suspension_factor=1.5),
        {},
    ),
    "ss-easy": (lambda: SuspensionWithHeadGuarantee(suspension_factor=1.5), {}),
    "fifo-sweep": (_fifo_sweep, {}),
    "ss-disk-migratable": (
        SCHEDULER_FACTORIES["ss"],
        {"overhead_model": DiskSwapOverheadModel(), "migratable": True},
    ),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_traced_run_identical_to_untraced(trace_jobs, case):
    factory, options = IDENTITY_CASES[case]
    plain = simulate(trace_jobs, factory(), N_PROCS, **options)
    traced = simulate(
        trace_jobs, factory(), N_PROCS, recorder=InMemoryRecorder(), **options
    )
    assert schedule_signature(plain) == schedule_signature(traced)


def _counting(monkeypatch, *targets):
    """Patch each ``(class, method)`` to count its calls into one tally."""
    calls = [0]

    def counted(method):
        def wrapper(self, *args, **kwargs):
            calls[0] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for cls, name in targets:
        monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    return calls


@pytest.mark.parametrize("case", ["ss", "tss", "is", "ss-easy", "fifo-sweep"])
def test_untraced_run_skips_timer_passes_that_cannot_act(trace_jobs, case, monkeypatch):
    """Untraced SS, TSS and IS walk the queue, and see timer ticks, fewer
    times than their traced twins, which keep every tick; the skipped
    ticks still count in ``events_dispatched``.  ``ss-easy`` never
    skips.  A queue policy without crossing times walks every time and
    skips only the ticks while nothing waits."""
    # every walk (the SS/TSS sweep and the IS _sweep) orders the queue once
    walks = _counting(monkeypatch, (QueuePolicy, "order"), (FifoOrder, "order"))
    ticks = _counting(monkeypatch, (PolicyKernel, "on_timer"))
    factory = IDENTITY_CASES[case][0]
    plain = simulate(trace_jobs, factory(), N_PROCS)
    untraced = walks[0], ticks[0]
    walks[0] = ticks[0] = 0
    traced_result = simulate(trace_jobs, factory(), N_PROCS, recorder=InMemoryRecorder())
    traced = walks[0], ticks[0]
    assert traced[0] > 0
    assert plain.events_dispatched == traced_result.events_dispatched
    if case == "ss-easy":
        assert untraced == traced
    elif case == "fifo-sweep":
        assert untraced[0] == traced[0]
        assert untraced[1] < traced[1]
    else:
        assert untraced[0] < traced[0]
        assert untraced[1] < traced[1]


@pytest.mark.parametrize(
    "factory",
    [EasyBackfillScheduler, RelaxedBackfillScheduler, SpeculativeBackfillScheduler],
    ids=["easy", "relaxed", "speculative"],
)
def test_untraced_backfill_skips_head_plans_no_job_can_use(trace_jobs, factory, monkeypatch):
    """An untraced backfill pass plans the head only when some job
    behind it can start now, since no fill starts any other; a traced
    pass plans every time, because the plan is a ``reservation`` record.
    Schedules and ``events_dispatched`` are the same either way."""
    plans = _counting(monkeypatch, (HeadReservation, "plan_head"))
    jobs = scale_load(trace_jobs, 1.8)
    plain = simulate(jobs, factory(), N_PROCS)
    untraced, plans[0] = plans[0], 0
    traced = simulate(jobs, factory(), N_PROCS, recorder=InMemoryRecorder())
    assert 0 < untraced < plans[0]
    assert outcome_fingerprint(plain.jobs) == outcome_fingerprint(traced.jobs)
    assert plain.events_dispatched == traced.events_dispatched


def test_ticks_after_an_arrival_or_finish_are_jumped(monkeypatch):
    """The tick after an arrival or a finish is jumped when it cannot
    act, not only the tick after a tick.

    B arrives at 30 and reaches SF 2 x A's xfactor at 130, so of the
    every-minute chain the untraced run keeps only 120 (the margin
    before the bound) and 180 (the suspension).  The ticks at 60 and
    300 follow B's arrival and B's finish, and neither can act.
    """
    times: list[float] = []
    on_timer = PolicyKernel.on_timer

    def recorded(self):
        times.append(self.driver.now)
        on_timer(self)

    monkeypatch.setattr(PolicyKernel, "on_timer", recorded)
    jobs = [
        Job(job_id=0, submit_time=0.0, run_time=10_000.0, estimate=10_000.0, procs=4),
        Job(job_id=1, submit_time=30.0, run_time=100.0, estimate=100.0, procs=4),
    ]

    def run(recorder):
        times.clear()
        sim = SchedulingSimulation(
            Cluster(4), SelectiveSuspensionScheduler(suspension_factor=2.0), recorder=recorder
        )
        return sim.run(fresh_copies(jobs)), list(times)

    (plain, plain_ticks), (traced, traced_ticks) = run(None), run(InMemoryRecorder())
    assert plain_ticks == [120.0, 180.0]
    assert traced_ticks[:5] == [60.0, 120.0, 180.0, 240.0, 300.0]
    assert schedule_signature(plain) == schedule_signature(traced)
    assert plain.total_suspensions == 1
    # two arrivals, two finishes and the chain from 60 to 10,140
    assert plain.events_dispatched == 173


def test_preemption_policy_without_a_bound_keeps_every_timer_pass(trace_jobs):
    """A timer policy that does not answer ``quiet_until`` is never
    skipped, even while nothing waits."""

    class Ticker(PreemptionPolicy):
        timer_interval = 60.0

        def __init__(self) -> None:
            super().__init__()
            self.passes = 0

        def service_pass(self, allow_suspension: bool) -> None:
            self.passes += allow_suspension
            self.kernel.backfill_pass()

    def run(recorder):
        ticker = Ticker()
        kernel = PolicyKernel(
            scheme_id="ticker",
            display_name="ticker",
            queue=FifoOrder(),
            reservation=NoReservations(),
            backfill=NoBackfill(),
            preemption=ticker,
        )
        simulate(trace_jobs[:40], kernel, N_PROCS, recorder=recorder)
        return ticker.passes

    assert run(None) == run(InMemoryRecorder()) > 0


# ----------------------------------------------------------------------
# consistency: driver totals == replayed trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(SCHEDULER_FACTORIES))
def test_counters_and_replay_agree_with_driver(trace_jobs, scheme):
    """The replay's run counts (every count the tracer once kept while
    emitting) agree with the driver's totals."""
    result, recorder = traced_run(trace_jobs, scheme)
    audit_result(result)  # first witness: per-job record audit

    # second witness: independent replay of the event stream
    summary = summarize_trace(recorder.dicts())
    assert summary.matches_run_end is True
    n_jobs = len(trace_jobs)
    assert len(summary.per_job) == n_jobs  # arrivals
    assert summary.finished == n_jobs
    assert summary.starts == n_jobs + result.total_kills
    assert summary.suspensions == result.total_suspensions
    # local restart: every suspended job resumes before the run drains
    assert summary.resumes == result.total_suspensions
    assert summary.kills == result.total_kills
    assert 0 <= summary.backfill_fills <= summary.starts
    attempts = summary.preempt_grants + sum(summary.preempt_denials.values())
    assert attempts <= summary.decisions
    assert close(summary.makespan, result.makespan)
    assert close(summary.busy_proc_seconds, result.busy_proc_seconds)
    assert close(summary.utilization, result.utilization)

    # per-job reconstruction: dispatches, suspension counts, busy areas
    by_id = {j.job_id: j for j in result.jobs}
    assert set(summary.per_job) == set(by_id)
    for jid, stats in summary.per_job.items():
        job = by_id[jid]
        assert stats.suspensions == job.suspension_count
        assert stats.dispatches == 1 + job.suspension_count + job.kill_count
        assert stats.finish is not None and close(stats.finish, job.finish_time)
        area = job.procs * (job.run_time + job.total_overhead)
        assert close(stats.busy, area)
    assert close(
        sum(s.busy for s in summary.per_job.values()), result.busy_proc_seconds
    )


def test_preemptive_schemes_actually_suspended(trace_jobs):
    """The fixture must exercise the interesting paths, or the

    consistency assertions above would pass vacuously."""
    for scheme in ("ss", "tss", "is"):
        result, _ = traced_run(trace_jobs, scheme)
        assert result.total_suspensions > 0, scheme


def test_counters_refold_from_stream(trace_jobs):
    """The summary's counts equal a from-scratch fold over the emitted
    events, for the SS sweep and for IS's timeslice grants."""
    for scheme in ("ss", "is"):
        _, recorder = traced_run(trace_jobs, scheme)
        events = recorder.dicts()
        summary = summarize_trace(events)
        by_type = {t: sum(1 for e in events if e["type"] == t) for t in EVENT_TYPES}
        assert sum(by_type.values()) == summary.events == len(events)
        assert len(summary.per_job) == by_type["arrival"]
        assert summary.starts == by_type["start"] + by_type["backfill_start"]
        assert summary.backfill_fills == by_type["backfill_start"]
        assert summary.resumes == by_type["resume"]
        assert summary.suspensions == by_type["suspend"]
        assert summary.kills == by_type["kill"]
        assert summary.finished == by_type["finish"]
        assert summary.decisions == by_type["decision"]

        grants = 0
        denials: dict[str, int] = {}
        rejections: dict[str, int] = {}
        for e in events:
            if e["type"] != "decision":
                continue
            if e["action"] in ("preempt", "timeslice_grant"):
                grants += 1
            elif e["action"] == "preempt_denied":
                denials[e["cause"]] = denials.get(e["cause"], 0) + 1
            for v in e.get("victims", []):
                if v["verdict"] != "candidate":
                    rejections[v["verdict"]] = rejections.get(v["verdict"], 0) + 1
        assert grants > 0 and denials and rejections, scheme
        assert summary.preempt_grants == grants
        assert summary.preempt_denials == denials
        assert summary.victim_rejections == rejections


# ----------------------------------------------------------------------
# decision records
# ----------------------------------------------------------------------
def test_ss_decision_records_explain_preemptions(trace_jobs):
    result, recorder = traced_run(trace_jobs, "ss")
    decisions = [e for e in recorder.dicts() if e["type"] == "decision"]
    assert decisions, "congested SS run must emit decisions"
    grants = [d for d in decisions if d["action"] == "preempt"]
    assert grants, "fixture must include at least one granted preemption"
    suspended_via_decisions = sum(len(d["suspended"]) for d in grants)
    assert suspended_via_decisions == result.total_suspensions
    for d in decisions:
        assert d["action"] in DECISION_ACTIONS
        assert d["sf"] == 1.5
        for v in d.get("victims", []):
            assert v["verdict"] == "candidate" or v["verdict"] in DENIAL_CAUSES
        if d["action"] == "preempt_denied":
            assert d["cause"] in DENIAL_CAUSES
        if d["action"] == "preempt":
            # every granted preemption documents a passing eq. 2 test
            # against each chosen victim
            chosen = set(d["suspended"])
            for v in d["victims"]:
                if v["job"] in chosen:
                    assert v["verdict"] == "candidate"
                    assert d["xfactor"] >= d["sf"] * v["xfactor"]


def test_tss_category_limit_verdicts_carry_limit(trace_jobs):
    _, recorder = traced_run(trace_jobs, "tss")
    verdicts = [
        v
        for e in recorder.dicts()
        if e["type"] == "decision"
        for v in e.get("victims", [])
        if v["verdict"] == "category_limit"
    ]
    for v in verdicts:
        assert v["limit"] > 0


def test_is_decisions_carry_path_and_timeslice(trace_jobs):
    _, recorder = traced_run(trace_jobs, "is")
    decisions = [e for e in recorder.dicts() if e["type"] == "decision"]
    assert decisions
    assert {d["path"] for d in decisions} <= {"arrival", "sweep", "reentry"}
    assert all(d["timeslice"] == 600.0 for d in decisions)
    causes = {d["cause"] for d in decisions if d["action"] == "preempt_denied"}
    assert causes <= {"protected", "priority", "insufficient"}


def test_ns_run_emits_reservations_but_no_preemptions(trace_jobs):
    _, recorder = traced_run(trace_jobs, "ns")
    summary = summarize_trace(recorder.dicts())
    assert summary.preempt_grants == 0 and not summary.preempt_denials
    actions = {e["action"] for e in recorder.dicts() if e["type"] == "decision"}
    assert actions <= {"reservation"}
    assert summary.backfill_fills > 0


# ----------------------------------------------------------------------
# vocabulary and recorder protocol, on every scheme and recorder
# ----------------------------------------------------------------------
def traced_scheme_runs() -> dict[str, list[dict]]:
    """One traced run per scheme id, on the input where speculative
    backfilling speculates and kills (tests/test_kernel_equivalence.py)."""
    jobs = generate_trace("SDSC", n_jobs=80, seed=7, estimate_model=InaccurateEstimates())
    runs = {}
    for scheme, build in sorted(SCHEMES.items()):
        recorder = InMemoryRecorder()
        SchedulingSimulation(Cluster(N_PROCS), build(), recorder=recorder).run(fresh_copies(jobs))
        runs[scheme] = recorder.dicts()
    return runs


def check_trace_vocabulary(runs: dict[str, list[dict]]) -> None:
    """Fail unless *runs* emit exactly the declared event types and
    decision actions, and the replay accounts for every event."""
    types = {e["type"] for events in runs.values() for e in events}
    actions = {e["action"] for events in runs.values() for e in events if e["type"] == "decision"}
    assert types == set(obs_events.EVENT_TYPES)
    assert actions == set(obs_events.DECISION_ACTIONS)
    for scheme, events in runs.items():
        s = summarize_trace(events)
        counted = 2 + len(s.per_job) + s.starts + s.resumes + s.suspensions + s.kills
        assert counted + s.finished + s.decisions == s.events == len(events), scheme
        assert s.matches_run_end, scheme


def test_every_scheme_emits_the_declared_vocabulary():
    check_trace_vocabulary(traced_scheme_runs())


def check_recorder(recorder, jobs: list[Job]) -> None:
    """Fail unless *recorder* keeps the TraceRecorder protocol and, when
    enabled, receives a traced run's every event."""
    assert isinstance(recorder.enabled, bool)
    assert callable(recorder.record) and callable(recorder.close)
    if recorder.enabled:
        seen, record = [], recorder.record
        recorder.record = lambda event: (seen.append(event.as_dict()), record(event))
        simulate(jobs, EasyBackfillScheduler(), N_PROCS, recorder=recorder)
        assert summarize_trace(seen).matches_run_end
    recorder.close()


def test_every_recorder_keeps_the_protocol(trace_jobs, tmp_path):
    classes = [
        cls
        for cls in vars(obs_recorder).values()
        if inspect.isclass(cls) and cls.__module__ == obs_recorder.__name__
    ]
    assert len(classes) == 4  # the protocol and three recorders
    for cls in classes:
        if cls is not obs_recorder.TraceRecorder:
            needs_path = "path" in inspect.signature(cls).parameters
            check_recorder(cls(tmp_path / "t.jsonl") if needs_path else cls(), trace_jobs[:60])


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip_matches_memory(trace_jobs, tmp_path):
    path = tmp_path / "ss.jsonl"
    with JsonlRecorder(path) as rec:
        simulate(trace_jobs, SCHEDULER_FACTORIES["ss"](), N_PROCS, recorder=rec)
    _, memory = traced_run(trace_jobs, "ss")
    from_disk = list(read_trace(path))
    assert from_disk == memory.dicts()
    disk_summary = summarize_trace(from_disk)
    mem_summary = summarize_trace(memory.dicts())
    assert disk_summary == mem_summary
    assert disk_summary.matches_run_end is True


def test_jsonl_lines_are_compact_json(trace_jobs, tmp_path):
    path = tmp_path / "ss.jsonl"
    with JsonlRecorder(path) as rec:
        simulate(trace_jobs[:40], SCHEDULER_FACTORIES["ss"](), N_PROCS, recorder=rec)
    lines = path.read_text().splitlines()
    assert lines and json.loads(lines[0])["type"] == "run_begin"
    assert all(": " not in line.split('"', 1)[0] for line in lines)  # compact separators


def test_overheaded_trace_accounts_for_overhead(trace_jobs, tmp_path):
    """With the disk-swap model on, suspend events carry the charge and

    the replayed busy integral still matches the driver's."""
    recorder = InMemoryRecorder()
    result = simulate(
        trace_jobs,
        SCHEDULER_FACTORIES["ss"](),
        N_PROCS,
        overhead_model=DiskSwapOverheadModel(),
        recorder=recorder,
    )
    assert result.total_suspensions > 0
    suspends = [e for e in recorder.dicts() if e["type"] == "suspend"]
    assert all(e["overhead_added"] > 0 for e in suspends)
    summary = summarize_trace(recorder.dicts())
    assert summary.matches_run_end is True
    assert close(summary.busy_proc_seconds, result.busy_proc_seconds)


# ----------------------------------------------------------------------
# replay self-checks
# ----------------------------------------------------------------------
def test_tampered_run_end_is_detected(trace_jobs):
    _, recorder = traced_run(trace_jobs, "ss")
    events = recorder.dicts()
    events[-1]["busy_proc_seconds"] += 1.0
    assert summarize_trace(events).matches_run_end is False


def test_trace_without_trailer_has_no_verdict(trace_jobs):
    _, recorder = traced_run(trace_jobs, "ns")
    events = [e for e in recorder.dicts() if e["type"] != "run_end"]
    assert summarize_trace(events).matches_run_end is None


def test_replay_rejects_ghost_release():
    events = [{"t": 1.0, "type": "finish", "job": 7}]
    with pytest.raises(ValueError, match="not running"):
        summarize_trace(events)


def test_replay_rejects_double_dispatch():
    events = [
        {"t": 0.0, "type": "start", "job": 1, "width": 2},
        {"t": 1.0, "type": "start", "job": 1, "width": 2},
    ]
    with pytest.raises(ValueError, match="dispatched twice"):
        summarize_trace(events)


def test_replay_rejects_truncated_stream():
    events = [{"t": 0.0, "type": "start", "job": 1, "width": 2}]
    with pytest.raises(ValueError, match="still on processors"):
        summarize_trace(events)


def test_replay_rejects_newer_schema():
    events = [{"t": 0.0, "type": "run_begin", "job": None, "schema": 99}]
    with pytest.raises(ValueError, match="newer"):
        summarize_trace(events)


@pytest.mark.parametrize("etype", ["arrival", "start", "resume", "suspend", "finish"])
@pytest.mark.parametrize("job", [None, "7", 7.0, True], ids=["none", "str", "float", "bool"])
def test_replay_rejects_lifecycle_event_without_int_job(etype, job):
    events = [{"t": 2.5, "type": etype, "job": job, "width": 2}]
    with pytest.raises(ValueError, match=f"{etype} event at t=2.5 has job id"):
        summarize_trace(events)
    missing = [{"t": 2.5, "type": etype, "width": 2}]
    with pytest.raises(ValueError, match=f"{etype} event at t=2.5 has job id None"):
        summarize_trace(missing)


def test_replay_rejects_missing_job_ids_under_python_O():
    """The job-id check raises, so it holds under ``python -O`` too,
    where an ``assert`` would let the events replay as job ``None``."""
    code = textwrap.dedent(
        """
        from repro.analysis.timeline import occupancy_intervals
        from repro.obs import summarize_trace

        stream = [
            {"t": 0.0, "type": "start", "width": 2},
            {"t": 5.0, "type": "finish"},
        ]
        for replay in (summarize_trace, occupancy_intervals):
            try:
                replay(stream)
            except ValueError as exc:
                print(exc)
            else:
                print("accepted")
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert out.stdout.splitlines() == [
        "start event at t=0.0 has job id None, not an int"
    ] * 2


def test_read_trace_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":0.0,"type":"run_begin","job":null}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        list(read_trace(path))


# ----------------------------------------------------------------------
# replayed states
# ----------------------------------------------------------------------
def test_queue_depth_series(trace_jobs):
    """One state per instant with a lifecycle event, in time order; the
    machine adds up, and the drained run ends with nothing queued or
    running."""
    _, recorder = traced_run(trace_jobs, "ss")
    events = recorder.dicts()
    states = summarize_trace(events).states
    assert states, "queue depth series must not be empty"
    times = [s.time for s in states]
    assert times == sorted(times)
    assert len(set(times)) == len(times), "same-t samples must coalesce"
    lifecycle = {"arrival", "start", "backfill_start", "resume", "suspend", "kill", "finish"}
    assert set(times) == {e["t"] for e in events if e["type"] in lifecycle}
    intervals = occupancy_intervals(events)
    for s in states:
        assert s.busy_procs + s.free_procs == N_PROCS
        assert min(s.running, s.queued_fresh, s.queued_suspended, s.busy_procs) >= 0
        # the jobs on processors just after the instant, from the intervals
        held = [iv for iv in intervals if iv.start <= s.time < iv.end]
        assert (s.running, s.busy_procs) == (len(held), sum(iv.width for iv in held))
    assert max(s.queued for s in states) > 0
    assert max(s.queued_suspended for s in states) > 0
    last = states[-1]
    assert (last.running, last.queued, last.busy_procs) == (0, 0, 0), (
        "a drained run ends with nothing queued or running"
    )
