"""Property-based tests (hypothesis) on core structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.bitset import lowest_bits, mask_from_ids, mask_to_ids, take_lowest
from repro.cluster.machine import AllocationError, Cluster
from repro.metrics.slowdown import bounded_slowdown, turnaround_time, wait_time
from repro.metrics.utilization import busy_area_from_jobs
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.profiles import AvailabilityProfile
from repro.sim.events import EventKind, EventQueue
from repro.workload.job import Job, JobState
from tests.conftest import run_sim

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
N_PROCS = 16

job_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0),  # submit
        st.floats(min_value=1.0, max_value=5000.0),  # run
        st.integers(min_value=1, max_value=N_PROCS),  # procs
        st.floats(min_value=1.0, max_value=4.0),  # estimate factor
    ),
    min_size=1,
    max_size=25,
)


def build_jobs(raw) -> list[Job]:
    return [
        Job(
            job_id=i,
            submit_time=submit,
            run_time=run,
            estimate=run * est_factor,
            procs=procs,
        )
        for i, (submit, run, procs, est_factor) in enumerate(raw)
    ]


# ----------------------------------------------------------------------
# event queue ordering
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
def test_event_queue_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.schedule(t, EventKind.GENERIC, t)
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
    st.data(),
)
def test_event_queue_cancellation_preserves_rest(times, data):
    q = EventQueue()
    events = [q.schedule(t, EventKind.GENERIC, i) for i, t in enumerate(times)]
    kill = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1)
    )
    for i in kill:
        q.cancel(events[i])
    expected = sorted(
        (t, i) for i, t in enumerate(times) if i not in kill
    )
    popped = [(e.time, e.payload) for e in q.drain()]
    assert [p[1] for p in popped] == [e[1] for e in expected] or [
        p[0] for p in popped
    ] == [e[0] for e in expected]


# ----------------------------------------------------------------------
# availability profile
# ----------------------------------------------------------------------
claims = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),  # start
        st.floats(min_value=0.1, max_value=1000.0),  # duration
        st.integers(min_value=1, max_value=4),  # count
    ),
    max_size=30,
)


@given(claims)
def test_profile_free_never_negative_or_above_capacity(claim_list):
    p = AvailabilityProfile(32, origin=0.0)
    for start, duration, count in claim_list:
        if p.min_free(start, start + duration) >= count:
            p.claim(start, duration, count)
    for _t, free in p.breakpoints():
        assert 0 <= free <= 32


@given(claims, st.floats(min_value=0.1, max_value=500.0), st.integers(1, 32))
def test_profile_anchor_window_actually_fits(claim_list, duration, count):
    p = AvailabilityProfile(32, origin=0.0)
    for start, dur, cnt in claim_list:
        if p.min_free(start, start + dur) >= cnt:
            p.claim(start, dur, cnt)
    anchor = p.find_anchor(duration, count)
    assert p.fits(anchor, duration, count)
    # and no earlier breakpoint admits the same window
    for t, _ in p.breakpoints():
        if t < anchor:
            assert not p.fits(t, duration, count)


# ----------------------------------------------------------------------
# whole-simulation invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_fcfs_schedule_invariants(raw):
    jobs = build_jobs(raw)
    result = run_sim(jobs, FCFSScheduler(), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_easy_schedule_invariants(raw):
    jobs = build_jobs(raw)
    result = run_sim(jobs, EasyBackfillScheduler(), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_ss_schedule_invariants(raw):
    from repro.core.selective_suspension import SelectiveSuspensionScheduler

    jobs = build_jobs(raw)
    result = run_sim(
        jobs,
        SelectiveSuspensionScheduler(suspension_factor=2.0, preemption_interval=60.0),
        n_procs=N_PROCS,
    )
    _assert_schedule_sane(jobs, result)


def _assert_schedule_sane(jobs: list[Job], result) -> None:
    """Invariants every valid schedule satisfies (DESIGN.md section 5)."""
    assert len(result.jobs) == len(jobs)
    for j in result.jobs:
        assert j.state is JobState.FINISHED
        assert j.first_start_time is not None and j.finish_time is not None
        # causality and duration
        assert j.first_start_time >= j.submit_time
        assert turnaround_time(j) >= j.run_time - 1e-6
        assert wait_time(j) >= -1e-6
        assert bounded_slowdown(j) >= 1.0
        # occupancy bookkeeping closed out
        assert j.pending_overhead == 0.0
        assert j.remaining_useful == 0.0
    # conservation: busy integral equals job areas
    assert abs(result.busy_proc_seconds - busy_area_from_jobs(result.jobs)) < 1e-6
    # utilisation in range
    assert 0.0 <= result.utilization <= 1.0 + 1e-9


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_determinism_across_runs(raw):
    """Two identical simulations produce identical schedules."""
    a = run_sim(build_jobs(raw), EasyBackfillScheduler(), n_procs=N_PROCS)
    b = run_sim(build_jobs(raw), EasyBackfillScheduler(), n_procs=N_PROCS)
    assert [(j.job_id, j.first_start_time, j.finish_time) for j in a.jobs] == [
        (j.job_id, j.first_start_time, j.finish_time) for j in b.jobs
    ]


# ----------------------------------------------------------------------
# cluster random-walk
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
        max_size=60,
    )
)
def test_cluster_random_walk_keeps_invariants(ops):
    c = Cluster(16)
    held: dict[int, int] = {}
    next_owner = 0
    for is_alloc, count in ops:
        if is_alloc and c.can_allocate(count):
            held[next_owner] = c.allocate(count, owner=next_owner)
            next_owner += 1
        elif not is_alloc and held:
            owner, procs = next(iter(held.items()))
            c.release(procs, owner)
            del held[owner]
        c.check_invariants()
        assert c.free_count + sum(p.bit_count() for p in held.values()) == 16


# ----------------------------------------------------------------------
# bitmask helpers
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 512) - 1), st.data())
def test_take_lowest_is_the_sorted_id_prefix(mask, data):
    """The run-at-a-time walk takes exactly the first *k* ids, and
    ``lowest_bits`` raises iff *mask* has fewer than *k* bits."""
    k = data.draw(st.integers(min_value=0, max_value=mask.bit_count() + 2))
    expected = mask_from_ids(mask_to_ids(mask)[:k])
    assert take_lowest(mask, k) == expected
    if k > mask.bit_count():
        with pytest.raises(ValueError):
            lowest_bits(mask, k)
    else:
        assert lowest_bits(mask, k) == expected


class _SetModelCluster:
    """Reference model for :class:`Cluster`: plain sets and dicts.

    Mirrors the machine-model semantics (lowest-id-first allocation,
    exclusive ownership, exact release of an owner's whole holding)
    with the most obvious data structures so the bitmask implementation
    can be checked operation for operation against it.
    """

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs
        self.free: set[int] = set(range(n_procs))
        self.owner_procs: dict[int, set[int]] = {}

    def allocate(self, count: int, owner: int) -> frozenset[int] | None:
        if count <= 0 or count > len(self.free):
            return None
        chosen = set(sorted(self.free)[:count])
        self.free -= chosen
        self.owner_procs.setdefault(owner, set()).update(chosen)
        return frozenset(chosen)

    def allocate_specific(self, procs: set[int], owner: int) -> frozenset[int] | None:
        if not procs or not procs <= self.free:
            return None
        self.free -= procs
        self.owner_procs.setdefault(owner, set()).update(procs)
        return frozenset(procs)

    def release(self, procs: set[int], owner: int) -> bool:
        if procs != self.owner_procs.get(owner, set()):
            return False  # exact: reject, change nothing
        self.owner_procs.pop(owner, None)
        self.free |= procs
        return True

    def owners_in(self, procs: set[int]) -> tuple[int, ...]:
        """Owners of *procs*, by the lowest processor each holds there."""
        firsts = {
            owner: min(held & procs)
            for owner, held in self.owner_procs.items()
            if held & procs
        }
        return tuple(sorted(firsts, key=firsts.__getitem__))


_cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=10)),
        st.tuples(
            st.just("alloc_specific"),
            st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
        ),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=12)),
        st.tuples(
            st.just("partial_release"),
            st.tuples(st.integers(min_value=0, max_value=12), st.integers(0, 15)),
        ),
        st.tuples(
            st.just("bad_release"),
            st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
        ),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=(1 << 16) - 1)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_cluster_ops)
def test_cluster_agrees_with_set_model(ops):
    """The bitmask Cluster is operation-for-operation equivalent to the
    set-based reference model: same allocations, same rejections, same
    owner lookups, same observable state after every step."""
    real = Cluster(16)
    model = _SetModelCluster(16)
    next_owner = 0

    for kind, arg in ops:
        if kind == "alloc":
            expected = model.allocate(arg, owner=next_owner)
            if expected is None:
                with pytest.raises(AllocationError):
                    real.allocate(arg, owner=next_owner)
            else:
                assert real.allocate(arg, owner=next_owner) == mask_from_ids(expected)
                next_owner += 1
        elif kind == "alloc_specific":
            expected = model.allocate_specific(set(arg), owner=next_owner)
            if expected is None:
                with pytest.raises(AllocationError):
                    real.allocate_mask(mask_from_ids(arg), owner=next_owner)
            else:
                got = real.allocate_mask(mask_from_ids(arg), owner=next_owner)
                assert got == mask_from_ids(expected)
                next_owner += 1
        elif kind == "release":
            # release some existing owner's full holding, chosen by index
            owners = sorted(model.owner_procs)
            if not owners:
                continue
            owner = owners[arg % len(owners)]
            procs = set(model.owner_procs[owner])
            assert model.release(procs, owner)
            real.release(mask_from_ids(procs), owner)
        elif kind == "partial_release":
            # drop one processor of some owner's holding: refused
            owners = sorted(model.owner_procs)
            if not owners:
                continue
            index, drop = arg
            owner = owners[index % len(owners)]
            held = sorted(model.owner_procs[owner])
            procs = set(held) - {held[drop % len(held)]}
            assert not model.release(procs, owner)
            with pytest.raises(AllocationError):
                real.release(mask_from_ids(procs), owner)
        elif kind == "bad_release":  # arbitrary procs under a bogus owner
            assert not model.release(set(arg), owner=-1)
            with pytest.raises(AllocationError):
                real.release(mask_from_ids(arg), owner=-1)
        else:  # query: owners of a random processor mask
            assert real.owners_in_mask(arg) == model.owners_in(set(mask_to_ids(arg)))

        # observable state identical after every operation
        real.check_invariants()
        assert real.free_mask == mask_from_ids(model.free)
        assert real.free_count == len(model.free)
        for owner, procs in model.owner_procs.items():
            assert real.owner_mask(owner) == mask_from_ids(procs)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_is_schedule_invariants(raw):
    from repro.core.immediate_service import ImmediateServiceScheduler

    jobs = build_jobs(raw)
    result = run_sim(jobs, ImmediateServiceScheduler(), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_gang_schedule_invariants(raw):
    from repro.schedulers.gang import GangScheduler

    jobs = build_jobs(raw)
    result = run_sim(jobs, GangScheduler(quantum=300.0), n_procs=N_PROCS)
    _assert_schedule_sane(jobs, result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_speculative_schedule_invariants(raw):
    """Kills discard progress but every invariant the auditor knows
    about must still hold (conservation includes wasted time)."""
    from repro.schedulers.speculative import SpeculativeBackfillScheduler
    from repro.sim.audit import audit_result

    jobs = build_jobs(raw)
    result = run_sim(
        jobs, SpeculativeBackfillScheduler(speculation_window=300.0), n_procs=N_PROCS
    )
    assert len(result.jobs) == len(jobs)
    audit_result(result)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(job_lists)
def test_audit_accepts_every_generated_schedule(raw):
    """The auditor must never flag a schedule the driver produced."""
    from repro.core.tss import TunableSelectiveSuspensionScheduler
    from repro.sim.audit import audit_result

    jobs = build_jobs(raw)
    result = run_sim(
        jobs, TunableSelectiveSuspensionScheduler(suspension_factor=2.0), n_procs=N_PROCS
    )
    audit_result(result)


# ----------------------------------------------------------------------
# timer-pass skipping: an untraced run skips the timer passes that cannot
# act, a traced run keeps every pass (each denial is a decision record),
# so the traced twin is the every-pass reference
# ----------------------------------------------------------------------
def _sweep_scheme(scheme: str, sf: float, jobs: list[Job], width_rule: bool = True):
    from repro.core.immediate_service import ImmediateServiceScheduler
    from repro.core.selective_suspension import SelectiveSuspensionScheduler
    from repro.core.tss import TunableSelectiveSuspensionScheduler, limits_from_result
    from repro.schedulers.hybrids import (
        SuspensionWithHeadGuarantee,
        TunableSuspensionWithGuarantees,
    )

    if scheme == "ss":
        return SelectiveSuspensionScheduler(suspension_factor=sf, width_rule=width_rule)
    if scheme == "tss-online":
        return TunableSelectiveSuspensionScheduler(
            suspension_factor=sf, width_rule=width_rule
        )
    if scheme == "tss-calibrated":
        baseline = run_sim(
            [j.copy_static() for j in jobs], EasyBackfillScheduler(), n_procs=N_PROCS
        )
        return TunableSelectiveSuspensionScheduler(
            suspension_factor=sf, limits=limits_from_result(baseline), width_rule=width_rule
        )
    if scheme == "tss-conservative":
        return TunableSuspensionWithGuarantees(suspension_factor=sf, width_rule=width_rule)
    if scheme == "ss-easy":
        return SuspensionWithHeadGuarantee(suspension_factor=sf, width_rule=width_rule)
    assert scheme == "is"
    return ImmediateServiceScheduler()


def _overhead_model(name: str):
    """Overheads well under one sweep interval: at SF 1 two jobs can swap
    at every sweep, and a charge that fills the interval leaves neither
    any progress (the run would never end)."""
    from repro.core.overhead import DiskSwapOverheadModel, FixedOverheadModel

    return {
        "none": None,
        "fixed": FixedOverheadModel(seconds=5.0),
        "disk": DiskSwapOverheadModel(default_memory_range_mb=(1.0, 10.0)),
    }[name]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    job_lists,
    st.sampled_from([1.0, 10.0, 100.0]),  # arrival compression
    st.sampled_from(
        ["ss", "tss-online", "tss-calibrated", "tss-conservative", "ss-easy", "is"]
    ),
    st.sampled_from([1.0, 1.5, 2.0, 5.0]),
    st.sampled_from(["none", "fixed", "disk"]),
    st.booleans(),
)
def test_untraced_timer_skip_matches_every_pass(raw, compress, scheme, sf, overhead, migratable):
    """Jumping the timer ticks that cannot act changes no decision and no total."""
    from repro.experiments.parallel import outcome_fingerprint
    from repro.experiments.runner import simulate
    from repro.obs import InMemoryRecorder

    jobs = build_jobs([(s / compress, r, p, e) for s, r, p, e in raw])

    def run(recorder):
        return simulate(
            jobs,
            _sweep_scheme(scheme, sf, jobs),
            N_PROCS,
            overhead_model=_overhead_model(overhead),
            migratable=migratable,
            recorder=recorder,
        )

    plain, traced = run(None), run(InMemoryRecorder())
    assert outcome_fingerprint(plain.jobs) == outcome_fingerprint(traced.jobs)
    for total in (
        "busy_proc_seconds",
        "makespan",
        "total_suspensions",
        "total_kills",
        "events_dispatched",
        "last_arrival",
        "busy_in_arrival_window",
        "arrival_window_closed",
    ):
        assert getattr(plain, total) == getattr(traced, total), total


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    job_lists,
    st.sampled_from([1.0, 10.0, 100.0]),  # arrival compression
    st.sampled_from(["ss", "tss-online", "tss-calibrated", "tss-conservative"]),
    st.sampled_from([1.0, 1.5, 2.0, 5.0]),
    st.booleans(),  # width rule
    st.sampled_from(["none", "fixed", "disk"]),
    st.booleans(),
)
def test_sorted_bound_walk_matches_the_generic_walk(
    raw, compress, scheme, sf, width_rule, overhead, migratable
):
    """Under the frozen suspension priority, the one-sort walk that
    answers ``quiet_until`` returns, at every call, exactly the float
    of the generic per-waiter walk."""
    from repro.experiments.runner import simulate
    from repro.schedulers.policy import SweepPreemption

    jobs = build_jobs([(s / compress, r, p, e) for s, r, p, e in raw])
    sorted_walk = SweepPreemption._first_crossing

    def checked(self):
        bound = sorted_walk(self)
        assert bound == self._first_action_time()
        return bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SweepPreemption, "_first_crossing", checked)
        simulate(
            jobs,
            _sweep_scheme(scheme, sf, jobs, width_rule),
            N_PROCS,
            overhead_model=_overhead_model(overhead),
            migratable=migratable,
        )
