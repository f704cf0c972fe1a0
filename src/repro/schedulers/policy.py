"""The composable policy kernel.

The paper's scheme family is a cross product: NS (EASY), conservative,
SS, TSS and IS differ only in which **queue ordering**, **reservation
discipline**, **backfill rule** and **preemption rule** they combine.
This module expresses each axis as a narrow policy class and composes
them under one dispatch loop:

* :class:`QueuePolicy` -- how waiting jobs are ordered for service
  (FIFO for the backfilling family, descending suspension priority for
  the SS family, descending instantaneous priority for IS).
* :class:`ReservationPolicy` -- which start-time guarantees exist and
  who owns the :class:`~repro.schedulers.profiles.AvailabilityProfile`
  lifecycle (none / single head reservation / per-job guarantees with
  compression).
* :class:`BackfillPolicy` -- how jobs behind the head are admitted
  (profile admission, relaxed what-if admission, speculative test runs,
  or greedy free-processor starts inside the sweep).
* :class:`PreemptionPolicy` -- whether and how running jobs are
  suspended (never / the SS sweep engine / IS timeslices).  The sweep
  engine is *parameterised*: TSS's category limits and the hybrids'
  reservation guard are constructor arguments, not subclass overrides.

:class:`PolicyKernel` is the single :class:`Scheduler` that drives any
composition from the :mod:`repro.sim.driver` hooks; it is built from a
scheme id, a display name and one policy per axis.  Every scheme
(``SelectiveSuspensionScheduler``, ``EasyBackfillScheduler``, ...) is a
constructor function that makes exactly one such call, and
:meth:`PolicyKernel.config` merges the policies' fragments into exactly
the ``config()`` mappings the scheme table, the result cache and the
golden traces pin (``tests/test_kernel_equivalence.py``).

The decomposition also unlocks hybrids (see
:mod:`repro.schedulers.hybrids`): ``ss-easy`` gives the queue head an
EASY-style reservation that the preemption sweep must honor, and
``tss-conservative`` combines per-job guarantees with category-limited
preemption -- the paper's open question of selective preemption *under
start-time guarantees*.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import insort
from dataclasses import dataclass
from math import inf, sqrt
from typing import TYPE_CHECKING, Any, Protocol

from repro.cluster.bitset import take_lowest
from repro.core.priorities import (
    PreemptionCriteria,
    instantaneous_priority,
    suspension_priority,
)
from repro.obs.events import victim_verdict
from repro.schedulers.base import Scheduler
from repro.schedulers.profiles import AvailabilityProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.driver import SchedulingSimulation
    from repro.workload.job import Job

#: Tie-break order when several rejection causes block one decision.
_CAUSE_PREFERENCE = {
    "sf_threshold": 0,
    "category_limit": 1,
    "width_rule": 2,
    "protected": 3,
    "priority": 4,
    "reservation_guard": 5,
}


def primary_denial_cause(verdicts: list[dict[str, Any]] | None) -> str:
    """The headline ``cause`` of a denied preemption decision.

    The most frequent non-``candidate`` verdict wins (ties broken by a
    fixed preference order); an empty or all-candidate list means the
    eligible victims simply did not cover the request --
    ``"insufficient"``.
    """
    counts: dict[str, int] = {}
    for v in verdicts or ():
        cause = v["verdict"]
        if cause != "candidate":
            counts[cause] = counts.get(cause, 0) + 1
    if not counts:
        return "insufficient"
    return min(counts, key=lambda c: (-counts[c], _CAUSE_PREFERENCE.get(c, 99)))


class PreemptionLimits(Protocol):
    """What the sweep engine needs from a per-victim protection table.

    :class:`repro.core.tss.CategoryLimits` is the canonical
    implementation; the engine only depends on this structural shape so
    the policy layer stays import-free of the TSS module.  ``reset``
    forgets whatever the table learned from earlier completions (online
    TSS limits); the engine calls it at every run start.
    """

    def limit_for(self, job: Job) -> float: ...

    def observe(self, job: Job) -> None: ...

    def to_config(self) -> dict[str, object]: ...

    def reset(self) -> None: ...


# ======================================================================
# policy protocol roots
# ======================================================================
class Policy(ABC):
    """Shared base for all four policy axes.

    A policy belongs to exactly one :class:`PolicyKernel` (policies are
    stateful, so each kernel needs its own).  Both links are plain
    attributes, so reaching either costs no call; reading one before it
    is set raises ``AttributeError``.
    """

    #: the kernel composed from this policy, set by its constructor
    kernel: "PolicyKernel"
    #: the driver of the current run, set by :meth:`PolicyKernel.bind`
    #: before every run
    driver: "SchedulingSimulation"

    def on_begin(self) -> None:
        """Reset run-scoped state; called once at simulation start."""

    def config_fragment(self) -> dict[str, object]:
        """This policy's knobs, merged into :meth:`PolicyKernel.config`.

        Every behavioural constructor knob must surface here (or be
        fully determined by the composition's ``scheme_id``) so cache
        fingerprints compose correctly -- a knob missing here fails
        ``tests/test_policy_kernel.py::test_parameterised_config_round_trips``.
        """
        return {}


class QueuePolicy(Policy):
    """Ordering of waiting jobs for one service pass.

    Besides ordering, a queue policy that can forecast its priorities
    answers :meth:`crossing_time`, which lets the preemption engines
    skip timer passes that cannot act (see :meth:`PolicyKernel.on_timer`).
    An ordering that overrides :meth:`priority` must override
    :meth:`crossing_time` to match, or leave the base's "cannot tell".
    """

    @abstractmethod
    def priority(self, job: Job, now: float) -> float:
        """The job's service priority at *now* (higher serves earlier)."""

    def crossing_time(
        self, waiter: Job, runner: Job, factor: float, now: float
    ) -> float | None:
        """When *waiter*'s priority first reaches ``factor x`` *runner*'s.

        Assumes neither changes state after *now*: *waiter* stays queued
        and *runner* keeps running.  Returns a time ``>= now`` (*now* when
        already reached), ``inf`` when never, or ``None`` when this
        ordering cannot tell -- the default, which keeps every timer pass.
        """
        return None

    def order(
        self,
        queued: list[Job],
        now: float,
        priorities: dict[int, float] | None = None,
    ) -> list[Job]:
        """Waiting jobs in service order (priority desc, then FIFO).

        *priorities* lets sweep engines pass their once-per-sweep
        snapshot instead of recomputing the priority inside the sort.
        """
        if priorities is None:
            return sorted(
                queued,
                key=lambda j: (-self.priority(j, now), j.submit_time, j.job_id),
            )
        snapshot = priorities
        return sorted(
            queued,
            key=lambda j: (-snapshot[j.job_id], j.submit_time, j.job_id),
        )


class ReservationPolicy(Policy):
    """Start-time-guarantee discipline; owns the planning profiles."""

    #: True when the policy serves arrivals itself (per-job guarantees
    #: anchor each arrival individually instead of running a pass)
    handles_arrival = False
    #: True when the policy serves completions itself (compression)
    handles_finish = False
    #: True when a preemption sweep must honor this policy's guarantee
    #: (consulted by :class:`SweepPreemption`)
    guards_preemption = False

    def on_arrival(self, job: Job) -> None:
        """Serve one arrival (only called when :attr:`handles_arrival`)."""
        raise NotImplementedError

    def on_finish(self, job: Job) -> None:
        """Serve one completion (only called when :attr:`handles_finish`)."""
        raise NotImplementedError

    def plan_head(self, head: Job) -> "HeadPlan | None":
        """Plan the queue head's reservation for a backfill pass.

        ``None`` means no reservation exists and the pass ends after its
        FIFO phase (FCFS, and the per-job discipline which never runs a
        backfill pass at all).
        """
        return None

    def sweep_guard(self, head: Job) -> float:
        """The head's guaranteed start, for a preemption sweep to honor
        (only called when :attr:`guards_preemption`)."""
        raise NotImplementedError

    def _running_profile(self) -> AvailabilityProfile:
        """Free processors over time as the running jobs release them."""
        driver = self.driver
        return AvailabilityProfile(
            driver.cluster.n_procs,
            driver.now,
            [(running.procs, running.expected_end) for running in driver.running_jobs()],
        )


@dataclass
class HeadPlan:
    """One backfill pass's planning state, produced by ``plan_head``."""

    #: availability profile over running jobs (and the head's claim,
    #: when the reservation discipline claims it)
    profile: AvailabilityProfile
    #: the reserved queue head
    head: Job
    #: earliest forecast start of the head
    anchor: float
    #: the head's remaining estimate used for the anchor
    duration: float


class BackfillPolicy(Policy):
    """Admission of jobs behind the reserved head."""

    #: True when a killed speculative run must trigger a new pass
    resched_on_kill = False

    @abstractmethod
    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        """Admit whatever fits behind the head without breaking *plan*."""


class PreemptionPolicy(Policy):
    """Whether and how running jobs are suspended."""

    #: the kernel's periodic-tick interval (``None`` = no timer)
    timer_interval: float | None = None

    def __init__(self) -> None:
        super().__init__()
        #: (eligible-at, width) per running job, reused by _first_action_time
        self._scratch_times: list[tuple[float, int]] = []

    def on_arrival(self, job: Job) -> None:
        """Arrival-time action before the service pass (IS grants the
        arriving job its immediate timeslice here)."""

    def observe_finish(self, job: Job) -> None:
        """Fold one completion into policy state (TSS online limits,
        IS protection windows) before the completion's service pass."""

    def service_pass(self, allow_suspension: bool) -> None:
        """Serve the queue once.  The default is the non-preemptive
        backfill pass; sweep engines override with their own walk."""
        self.kernel.backfill_pass()

    # ------------------------------------------------------------------
    # timer-tick skipping (see Scheduler.quiet_until)
    # ------------------------------------------------------------------
    def quiet_until(self) -> float:
        """Right after any hook's pass: a time before which no
        suspension-allowed pass can start, resume or suspend anything,
        if no arrival, finish or kill comes first.

        The default, ``-inf``, keeps every pass; the sweep engines
        answer through :meth:`_first_action_time` or, under the frozen
        suspension priority, its one-sort twin
        :meth:`SweepPreemption._first_crossing`.
        """
        return -inf

    def _first_action_time(self) -> float:
        """The earliest time any waiting job's own test could pass.

        ``-inf`` when an eligibility time cannot be told.  Skipping the
        passes before this time is exact: between events nothing a pass
        tests changes except the clocks :meth:`_eligible_at` forecasts.
        The walk reads only the current state, so the bound holds
        whichever hook's pass left it and whether or not that pass acted.
        """
        driver = self.driver
        now = driver.now
        cluster = driver.cluster
        free = cluster.free_count
        running = driver.running_jobs()
        times = self._scratch_times
        first = inf
        for job in driver.queued_jobs():
            if job.suspended_mask:
                # a re-entry acts once every owner of its processors is
                # eligible
                at = now
                for owner_id in cluster.owners_in_mask(job.suspended_mask):
                    owner = driver.running_job(owner_id)
                    if owner is None:  # pragma: no cover - busy bits are owned
                        continue
                    eligible = self._eligible_at(job, owner, True, now)
                    if eligible is None:
                        return -inf
                    at = max(at, eligible)
                    if at >= first:
                        break  # cannot lower the bound
                first = min(first, at)
                continue
            # a fresh start acts once free processors plus the victims
            # eligible by then cover its request
            times.clear()
            for victim in running:
                eligible = self._eligible_at(job, victim, False, now)
                if eligible is None:
                    return -inf
                if eligible < first:  # none at or past the bound can lower it
                    times.append((eligible, victim.procs))
            times.sort()
            need = job.procs - free
            at = now
            for eligible, width in times:
                if need <= 0:
                    break
                need -= width
                at = eligible
            if need <= 0:
                first = at
        return first

    def _eligible_at(
        self, waiter: Job, victim: Job, reentry: bool, now: float
    ) -> float | None:
        """When *victim* first passes *waiter*'s per-victim tests, with
        nothing changing state after *now*: ``inf`` when not before the
        next event, ``None`` when this policy cannot tell (the default)."""
        return None


# ======================================================================
# queue orderings
# ======================================================================
class FifoOrder(QueuePolicy):
    """Strict arrival order (the backfilling family)."""

    def priority(self, job: Job, now: float) -> float:
        return 0.0

    def order(
        self,
        queued: list[Job],
        now: float,
        priorities: dict[int, float] | None = None,
    ) -> list[Job]:
        return list(queued)


def _xfactor_crossing(
    waiter_x: float, estimate: float, runner_x: float, factor: float, now: float
) -> float:
    """When a waiting job's xfactor *waiter_x*, rising at ``1 / estimate``
    per second, first reaches *factor* x a frozen running xfactor.

    Nondecreasing in *runner_x*, since every step is a monotone float
    operation: the sorted walk of :meth:`SweepPreemption.quiet_until`
    relies on it.
    """
    return now + max(factor * runner_x - waiter_x, 0.0) * estimate


class SuspensionPriorityOrder(QueuePolicy):
    """Descending xfactor -- the SS/TSS suspension priority (section IV)."""

    def priority(self, job: Job, now: float) -> float:
        return suspension_priority(job, now)

    def crossing_time(
        self, waiter: Job, runner: Job, factor: float, now: float
    ) -> float:
        """Linear: a waiter's xfactor rises at ``1 / estimate`` per
        second and a runner's is frozen."""
        return _xfactor_crossing(
            waiter.xfactor(now), waiter.estimate, runner.xfactor(now), factor, now
        )


class InstantaneousPriorityOrder(QueuePolicy):
    """Descending instantaneous xfactor -- the IS victim/service order."""

    def priority(self, job: Job, now: float) -> float:
        return instantaneous_priority(job, now)

    def crossing_time(
        self, waiter: Job, runner: Job, factor: float, now: float
    ) -> float:
        """The positive root of a quadratic.

        ``(w + a) / a`` with the waiter's wait ``w`` rising and its
        service ``a`` fixed, against ``(W + A) / A`` with the runner's
        service ``A`` rising and its wait ``W`` fixed.  At ``now + t``
        the test ``waiter >= factor x runner`` reads, times
        ``a (A + t) > 0``::

            t^2 + (w + a + A - factor a) t + (w + a) A - factor a (W + A) >= 0

        The waiter's priority rises and the runner's falls, so the sign
        changes at most once: reached now if the constant term is
        ``>= 0``, else at the one positive root.
        """
        a = waiter.accrued(now)
        if a <= 0.0:
            return now  # never run: infinite priority
        w = waiter.waited(now)
        big_a = runner.accrued(now)
        b = w + a + big_a - factor * a
        c = (w + a) * big_a - factor * a * (runner.waited(now) + big_a)
        if c >= 0.0:
            return now
        root = sqrt(b * b - 4.0 * c)
        # the cancellation-free form of (root - b) / 2 when b > 0
        return now + ((root - b) / 2.0 if b <= 0.0 else -2.0 * c / (b + root))


# ======================================================================
# reservation disciplines
# ======================================================================
class NoReservations(ReservationPolicy):
    """No start-time guarantees at all (FCFS, SS, TSS, IS)."""


class HeadReservation(ReservationPolicy):
    """The single EASY-style reservation for the first blocked job.

    Parameters
    ----------
    claim_head:
        Claim the head's slot in the planning profile (EASY,
        speculative).  Relaxed backfilling plans the head's anchor
        *without* claiming it -- the anchor is re-derived per candidate.
    announce:
        Emit the ``reservation`` decision record.  Relaxed backfilling
        treats the anchor as an internal allowance and stays silent.

    Both knobs are fully determined by the composing ``scheme_id``
    (they are what distinguishes EASY from relaxed), so they add no
    :meth:`config_fragment` keys.
    """

    guards_preemption = True

    def __init__(self, claim_head: bool = True, announce: bool = True) -> None:
        super().__init__()
        self.claim_head = claim_head
        self.announce = announce

    def _anchor_head(self, head: Job) -> HeadPlan:
        """Plan *head*'s earliest start against the running jobs and
        announce it (when :attr:`announce`); nothing claimed yet."""
        driver = self.driver
        profile = self._running_profile()
        duration = head.remaining_estimate()
        anchor = profile.find_anchor(duration, head.procs)
        if self.announce and driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "reservation",
                head.job_id,
                anchor=anchor,
                requested=head.procs,
                duration=duration,
            )
        return HeadPlan(profile=profile, head=head, anchor=anchor, duration=duration)

    def plan_head(self, head: Job) -> HeadPlan:
        plan = self._anchor_head(head)
        if self.claim_head:
            plan.profile.claim(plan.anchor, plan.duration, head.procs)
        return plan

    def sweep_guard(self, head: Job) -> float:
        """The head's anchor for a preemption sweep to honor.

        Planned against running jobs only (suspended jobs hold no
        processors, so their pinned sets are counted as free -- the
        guarantee is an estimate re-derived every sweep, exactly as
        EASY re-plans on every pass).
        """
        return self._anchor_head(head).anchor


class PerJobReservations(ReservationPolicy):
    """Conservative backfilling: every job gets a guarantee; early
    completions compress the schedule (section II-A-1).

    This is the former ``ConservativeBackfillScheduler`` body.  As a
    policy it also composes with a preemption sweep
    (``tss-conservative``): jobs the sweep starts or suspends simply
    drop out of / re-enter the anchor table at the next compression --
    ``_profile_with_reservations`` already filters anchors against the
    live queue, so stale entries self-correct.
    """

    handles_arrival = True
    handles_finish = True

    def __init__(self) -> None:
        super().__init__()
        #: job_id -> guaranteed start time, for every queued job
        self._anchors: dict[int, float] = {}

    def on_begin(self) -> None:
        self._anchors.clear()

    def on_arrival(self, job: Job) -> None:
        """Anchor the new job behind all existing reservations."""
        driver = self.driver
        profile = self._profile_with_reservations(exclude=job.job_id)
        anchor = profile.find_anchor(job.remaining_estimate(), job.procs)
        self._anchors[job.job_id] = anchor
        if anchor <= driver.now and driver.can_start(job):
            del self._anchors[job.job_id]
            driver.start_job(job)
        elif driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "reservation",
                job.job_id,
                anchor=anchor,
                requested=job.procs,
                duration=job.remaining_estimate(),
            )

    def on_finish(self, job: Job) -> None:
        """Compress: re-anchor every queued job in guarantee order."""
        driver = self.driver
        tracer = driver.tracer
        old_anchors = dict(self._anchors) if tracer is not None else {}
        queue = sorted(
            driver.queued_jobs(),
            key=lambda j: (self._anchors.get(j.job_id, float("inf")), j.job_id),
        )
        # Rebuild from running jobs only, then re-admit reservations in
        # guarantee order; each job's new anchor is <= its old one
        # because the profile it sees is a subset of the old claims.
        profile = self._running_profile()
        self._anchors.clear()
        for queued in queue:
            duration = queued.remaining_estimate()
            anchor = profile.find_anchor(duration, queued.procs)
            if anchor <= driver.now and driver.can_start(queued):
                driver.start_job(queued)
                profile.claim(driver.now, duration, queued.procs)
            else:
                self._anchors[queued.job_id] = anchor
                profile.claim(anchor, duration, queued.procs)
                # compression moved the guarantee: record the new anchor
                # (unchanged reservations are not re-emitted)
                # repro-lint: disable=RPR003 -- trace-only dedup of a bitwise-unchanged anchor; an ulp difference re-emits one trace line and steers no decision
                if tracer is not None and old_anchors.get(queued.job_id) != anchor:
                    tracer.decision(
                        driver.now,
                        "reservation",
                        queued.job_id,
                        anchor=anchor,
                        requested=queued.procs,
                        duration=duration,
                        compressed_from=old_anchors.get(queued.job_id),
                    )

    # ------------------------------------------------------------------
    def _profile_with_reservations(self, exclude: int) -> AvailabilityProfile:
        driver = self.driver
        profile = self._running_profile()
        by_anchor = sorted(
            (anchor, jid) for jid, anchor in self._anchors.items() if jid != exclude
        )
        queued_by_id = {j.job_id: j for j in driver.queued_jobs()}
        for anchor, jid in by_anchor:
            queued = queued_by_id.get(jid)
            if queued is None:  # reservation for a job that just started
                continue
            earliest = max(anchor, driver.now)
            # Under pure conservative discipline the stored anchor always
            # fits (claims were made against this very profile), so
            # find_anchor returns `earliest` unchanged.  Composed with a
            # preemption sweep the machine can change between
            # compressions, leaving anchors that no longer fit; pushing
            # the claim to the next feasible slot keeps the profile
            # consistent until the next compression re-anchors properly.
            duration = queued.remaining_estimate()
            start = profile.find_anchor(duration, queued.procs, earliest=earliest)
            if start != earliest:
                self._anchors[jid] = start
            profile.claim(start, duration, queued.procs)
        return profile

    def guaranteed_start(self, job: Job) -> float | None:
        """The job's current start-time guarantee (None once running)."""
        return self._anchors.get(job.job_id)


# ======================================================================
# backfill rules
# ======================================================================
class NoBackfill(BackfillPolicy):
    """Nothing jumps the queue (FCFS; also the per-job discipline,
    whose anchor-due starts are its own form of admission)."""

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        return


class GreedyBackfill(BackfillPolicy):
    """Greedy free-processor starts in queue-priority order.

    Declarative marker for the sweep compositions: the sweep engine
    (:class:`SweepPreemption` / :class:`TimeslicePreemption`) performs
    the greedy admission itself inside its walk -- starting any job
    that fits free processors, highest priority first -- because the
    same walk interleaves starts with suspensions and resumes.
    """

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:  # pragma: no cover
        return


class ProfileBackfill(BackfillPolicy):
    """EASY admission: a job backfills iff the profile (running jobs +
    the head's claimed reservation) admits it starting now."""

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if profile.fits(driver.now, duration, job.procs):
                driver.start_job(job, via="backfill")
                profile.claim(driver.now, duration, job.procs)


class RelaxedBackfill(BackfillPolicy):
    """Bounded head-delay admission (Ward, Mahood & West).

    Each candidate is evaluated on a cloned profile: claim it now,
    re-anchor the head, accept iff the what-if anchor stays within
    ``anchor + relaxation x head estimate``.  ``relaxation = inf`` stays
    legal (any job that fits now backfills); NaN is refused.
    """

    def __init__(self, relaxation: float = 0.5) -> None:
        super().__init__()
        if not 0 <= relaxation <= inf:  # also rejects NaN
            raise ValueError(f"'relaxation' must be >= 0 (inf allowed), got {relaxation!r}")
        self.relaxation = float(relaxation)

    def config_fragment(self) -> dict[str, object]:
        return {"relaxation": self.relaxation}

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        head = plan.head
        allowance = plan.anchor + self.relaxation * head.remaining_estimate()
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if not profile.fits(driver.now, duration, job.procs):
                continue
            trial = profile.clone()
            trial.claim(driver.now, duration, job.procs)
            new_anchor = trial.find_anchor(plan.duration, head.procs)
            if new_anchor <= allowance:
                driver.start_job(job, via="backfill")
                profile.claim(driver.now, duration, job.procs)


class SpeculativeBackfill(BackfillPolicy):
    """EASY admission plus bounded test runs into pre-reservation holes
    (Perkovic & Keleher); see :mod:`repro.schedulers.speculative`."""

    resched_on_kill = True

    def __init__(self, speculation_window: float = 900.0, max_kills: int = 2) -> None:
        super().__init__()
        if not 0 < speculation_window < inf:  # also rejects NaN
            raise ValueError(
                f"'speculation_window' must be positive and finite, got {speculation_window!r}"
            )
        if not 0 <= max_kills < inf:
            raise ValueError(f"'max_kills' must be finite and >= 0, got {max_kills!r}")
        self.speculation_window = float(speculation_window)
        self.max_kills = int(max_kills)

    def config_fragment(self) -> dict[str, object]:
        return {
            "speculation_window": self.speculation_window,
            "max_kills": self.max_kills,
        }

    def fill(self, rest: list[Job], plan: HeadPlan) -> None:
        driver = self.driver
        profile = plan.profile
        for job in rest:
            if not driver.can_start(job):
                continue
            duration = job.remaining_estimate()
            if profile.fits(driver.now, duration, job.procs):
                driver.start_job(job, via="backfill")
                profile.claim(driver.now, duration, job.procs)
                continue
            self._try_speculate(job, profile)

    def _try_speculate(self, job: Job, profile: AvailabilityProfile) -> bool:
        """Test-run *job* in the hole before the profile next tightens."""
        driver = self.driver
        if job.kill_count >= self.max_kills:
            return False
        if job.suspended_mask:
            return False  # never gamble away a suspension checkpoint
        if job.remaining_estimate() <= self.speculation_window:
            return False  # not a gamble; conventional backfill territory
        # hole length on job.procs processors starting now: scan the
        # profile breakpoints for the first time free drops below need
        hole_end = float("inf")
        for t, free in profile.breakpoints():
            if t <= driver.now:
                if free < job.procs:
                    return False  # no room even now (reservation at now)
                continue
            if free < job.procs:
                hole_end = t
                break
        hole = hole_end - driver.now
        if hole < self.speculation_window:
            return False  # too short for a meaningful test run
        deadline = driver.now + self.speculation_window
        if driver.tracer is not None:
            driver.tracer.decision(
                driver.now,
                "speculate",
                job.job_id,
                deadline=deadline,
                window=self.speculation_window,
                hole=hole if hole != float("inf") else None,
                requested=job.procs,
                kills_so_far=job.kill_count,
            )
        driver.start_speculative(job, deadline=deadline)
        profile.claim(driver.now, self.speculation_window, job.procs)
        return True


# ======================================================================
# preemption rules
# ======================================================================
class NoPreemption(PreemptionPolicy):
    """Running jobs are never disturbed; service is the backfill pass."""


class SweepPreemption(PreemptionPolicy):
    """The SS preemption sweep engine (section IV), parameterised.

    This is the former ``SelectiveSuspensionScheduler`` dispatch body:
    the periodic walk over the idle queue in descending suspension
    priority that assembles processors for jobs that do not fit by
    suspending running victims -- SF threshold, half-width rule for
    fresh starts, local re-entry (``suspend_jobs_2``), widest-first
    victim choice (``suspend_jobs_1``).  What used to be subclass
    overrides are now parameters:

    * *limits* -- a :class:`PreemptionLimits` table (TSS's category
      limits); ``None`` means no victim is ever protected (plain SS).
    * the **reservation guard** -- when the composition's reservation
      policy sets ``guards_preemption``, each suspension sweep first
      plans the queue head's anchor and then refuses to suspend victims
      for any other job that would still be running at that anchor
      (denial cause ``reservation_guard``).  This is how ``ss-easy``
      honors an EASY head reservation inside the SS sweep.

    All the incremental fast paths of the optimised kernel are kept:
    the once-per-sweep priority snapshot, the insort-maintained victim
    list with its lazy dead set, the incrementally-updated pinned mask,
    and the empty-queue / no-free-processor early exits
    (``tools/bench_gate.py`` pins their effect as exact call counts).

    After every hook, :meth:`quiet_until` tells the driver when the
    next sweep could act: a victim qualifies for a waiting job once the
    queue policy's :meth:`~QueuePolicy.crossing_time` says the job's
    xfactor reaches SF x the victim's; width-ruled and limit-protected
    victims never qualify before the next event.  Under the suspension
    priority one walk over the running jobs, sorted once by their
    frozen xfactor, answers for every waiter (:meth:`_first_crossing`).
    An untraced driver does not schedule the ticks before then.
    Under the reservation guard (``ss-easy``) the engine gives
    no bound and every sweep runs.
    """

    def __init__(
        self,
        criteria: PreemptionCriteria,
        preemption_interval: float = 60.0,
        limits: PreemptionLimits | None = None,
    ) -> None:
        super().__init__()
        # ``not 0 < x < inf`` also rejects NaN
        if not 0 < preemption_interval < inf:
            raise ValueError(
                "'preemption_interval' must be positive and finite, "
                f"got {preemption_interval!r}"
            )
        self.criteria = criteria
        self.timer_interval = float(preemption_interval)
        self.limits = limits
        # -- sweep-scoped scratch state ---------------------------------
        # Valid only while sweep() is on the stack; see sweep() for the
        # invalidation protocol.  Buffers are instance-level so repeated
        # sweeps reuse the same allocations instead of rebuilding them
        # per idle job (the old quadratic term in congested queues).
        self._sweep_active = False
        self._sweep_suspension = False
        #: mask of processors some suspended job must reacquire; kept
        #: current across mid-sweep suspends (|=) and resumes (&= ~)
        self._sweep_pinned = 0
        #: running victims as (priority, job_id, Job), ascending -- built
        #: once per suspension sweep, extended by insort on mid-sweep
        #: starts, lazily invalidated through _sweep_dead on suspends
        self._sweep_victims: list[tuple[float, int, Job]] = []
        #: job ids suspended mid-sweep (membership tests only)
        self._sweep_dead: set[int] = set()
        self._scratch_candidates: list[Job] = []
        self._scratch_chosen: list[Job] = []
        #: reservation guard, set per suspension sweep when the
        #: composition's reservation policy guards preemption
        self._guard_head: int | None = None
        self._guard_anchor: float | None = None

    def config_fragment(self) -> dict[str, object]:
        cfg: dict[str, object] = {
            "suspension_factor": self.criteria.suspension_factor,
            "preemption_interval": self.timer_interval,
            "width_rule": self.criteria.width_rule,
        }
        if self.limits is not None:
            cfg["limits"] = self.limits.to_config()
        return cfg

    def on_begin(self) -> None:
        # online limits learn from this run's completions only; a table
        # shared with an earlier run must not carry that run's averages
        if self.limits is not None:
            self.limits.reset()

    def observe_finish(self, job: Job) -> None:
        if self.limits is not None:
            self.limits.observe(job)

    def service_pass(self, allow_suspension: bool) -> None:
        self.sweep(allow_suspension)

    # ------------------------------------------------------------------
    # victim protection (the former TSS override points)
    # ------------------------------------------------------------------
    def victim_preemptable(self, victim: Job, priority: float) -> bool:
        """Whether policy allows suspending *victim* at all.

        With no *limits* table nothing is ever protected (plain SS);
        with one, the victim is protected once its xfactor (*priority*,
        the sweep-precomputed value) exceeds its category limit.
        """
        if self.limits is None:
            return True
        return priority <= self.limits.limit_for(victim)

    def victim_protection_limit(self, victim: Job) -> float | None:
        """The xfactor ceiling protecting *victim*, for decision records.

        ``None`` without a limits table (no protection exists), else the
        victim's category limit so ``category_limit`` verdicts carry the
        threshold that was hit.  Trace-only -- never consulted on the
        scheduling path.
        """
        if self.limits is None:
            return None
        limit = self.limits.limit_for(victim)
        return None if limit == float("inf") else limit

    # ------------------------------------------------------------------
    # timer-pass skipping
    # ------------------------------------------------------------------
    def quiet_until(self) -> float:
        kernel = self.kernel
        if kernel.reservation.guards_preemption:
            # the guard's anchor can move with `now` (remaining_estimate
            # floors at 1 s once a job outlives its estimate): no bound
            return -inf
        if isinstance(kernel.queue, SuspensionPriorityOrder):
            return self._first_crossing()
        return self._first_action_time()

    def _first_crossing(self) -> float:
        """:meth:`_first_action_time` in one walk, for the frozen
        suspension priority.

        A running job's xfactor is frozen, so a fresh waiter's crossing
        time (:func:`_xfactor_crossing`) never falls as the victim's
        xfactor rises.  The running jobs sorted once by xfactor are then
        in crossing order for every waiter, and the first prefix that
        covers a request gives the time the per-waiter sort of the
        generic walk gives.  Limit-protected victims never qualify and
        are dropped once; width-ruled ones are skipped per waiter.
        Re-entries read their owners' xfactors from the same snapshot.
        """
        driver = self.driver
        queued = driver.queued_jobs()
        if not queued:
            return inf
        now = driver.now
        cluster = driver.cluster
        factor = self.criteria.suspension_factor
        width_allows = self.criteria.width_allows
        # job_id -> xfactor of each running job, inf when protected (so
        # is its crossing); victims: (xfactor, width) of the unprotected
        frozen: dict[int, float] = {}
        victims: list[tuple[float, int]] = []
        for running in driver.running_jobs():
            x = running.xfactor(now)
            if self.limits is not None and not self.victim_preemptable(running, x):
                x = inf
            else:
                victims.append((x, running.procs))
            frozen[running.job_id] = x
        victims.sort()
        free = cluster.free_count
        first = inf
        for job in queued:
            waiter_x = job.xfactor(now)
            if job.suspended_mask:
                at = now
                for owner_id in cluster.owners_in_mask(job.suspended_mask):
                    crossing = _xfactor_crossing(
                        waiter_x, job.estimate, frozen[owner_id], factor, now
                    )
                    at = max(at, crossing)
                    if at >= first:
                        break
                first = min(first, at)
                continue
            need = job.procs - free
            if need <= 0:
                return now  # no time is earlier
            for x, width in victims:
                at = _xfactor_crossing(waiter_x, job.estimate, x, factor, now)
                if at >= first:
                    break  # nor can any later victim lower the bound
                if width_allows(job.procs, width, False):
                    need -= width
                    if need <= 0:
                        first = at
                        break
        return first

    def _eligible_at(
        self, waiter: Job, victim: Job, reentry: bool, now: float
    ) -> float | None:
        """Width-ruled and limit-protected victims never qualify before
        the next event; the rest once *waiter* clears the SF threshold."""
        if not self.criteria.width_allows(waiter.procs, victim.procs, reentry):
            return inf
        queue = self.kernel.queue
        if self.limits is not None and not self.victim_preemptable(
            victim, queue.priority(victim, now)
        ):
            # the limit holds while the victim's priority cannot fall:
            # the suspension order freezes it while the victim runs
            return inf if isinstance(queue, SuspensionPriorityOrder) else None
        return queue.crossing_time(
            waiter, victim, self.criteria.suspension_factor, now
        )

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def sweep(self, allow_suspension: bool) -> None:
        """One pass over the idle queue in descending queue priority.

        With ``allow_suspension=False`` this is plain greedy backfilling
        onto free processors (what arrivals and completions trigger);
        with ``True`` it is the full periodic preemption routine.

        Priorities are computed **once per sweep** into ``priorities``
        (job_id -> xfactor at *now*) and threaded through
        :meth:`_try_start` / :meth:`_try_resume`.  This is safe because
        the xfactor is an exact integral over past state intervals: a
        job suspended or started *at* ``now`` has the same xfactor
        before and after the transition, so mid-sweep state changes
        cannot invalidate the snapshot.  The naive form recomputed
        the priority O(queue x running) times per sweep inside sort
        keys and per-victim filters -- the dominant cost of congested
        simulations (``benchmarks/bench_micro.py`` keeps that form as
        ``LegacySweepScheduler``; ``tools/bench_gate.py`` counts the
        priority calls exactly).

        Two more sweep-scoped structures extend the same idea to the
        remaining quadratic terms.  The **victim list** is sorted once
        per suspension sweep (ascending ``(priority, job_id)``, the
        per-victim walk order) instead of re-sorting ``running_jobs()``
        inside every :meth:`_try_start`; jobs started mid-sweep are
        insort-ed in, jobs suspended mid-sweep are lazily skipped via a
        dead set -- both preserve the exact order the per-call sort
        produced, because ``(priority, job_id)`` is a total order over
        an identical membership.  The **pinned mask** (processors
        suspended jobs must reacquire) is snapshotted at sweep entry and
        updated incrementally: a suspend pins the victim's processors,
        a resume unpins the job's -- the only two events that can change
        it mid-sweep -- replacing the per-:meth:`_place_mask` rescan of the
        whole queue.
        """
        driver = self.driver
        if not allow_suspension and not driver.cluster.free_mask:
            # Decision-equivalent fast path: without suspension, every
            # start (can_allocate) and resume (can_allocate_mask on a
            # nonempty set) needs at least one free processor, and a
            # no-suspension sweep has no other observable effect -- the
            # full walk would deny every job and emit nothing.
            return
        queued = driver.queued_jobs()
        if not queued:
            # Nothing to start or resume: the idle walk is empty and a
            # sweep has no other observable effect.  Most timer sweeps
            # on moderately loaded traces hit this, so skipping the
            # victim-list build and priority snapshot here is the
            # cheapest win in the whole kernel.
            return
        now = driver.now
        queue_policy = self.kernel.queue
        prio = queue_policy.priority  # bound once: hottest call in the sweep
        priorities = {j.job_id: prio(j, now) for j in queued}
        victims = self._sweep_victims
        victims.clear()
        self._sweep_dead.clear()
        if allow_suspension:
            # victims come from the running set; a job started earlier in
            # this sweep was queued at sweep start and is already present
            for r in driver.running_jobs():
                p = prio(r, now)
                priorities[r.job_id] = p
                victims.append((p, r.job_id, r))
            victims.sort()
        pinned = 0
        for j in queued:
            pinned |= j.suspended_mask  # 0 unless awaiting local resume
        self._sweep_pinned = pinned
        self._sweep_suspension = allow_suspension
        self._guard_head = None
        self._guard_anchor = None
        reservation = self.kernel.reservation
        if allow_suspension and reservation.guards_preemption:
            # plan (and announce) the head's guarantee once per sweep;
            # _try_start/_try_resume refuse suspensions for any other
            # job that would overrun it
            head = queued[0]
            self._guard_head = head.job_id
            self._guard_anchor = reservation.sweep_guard(head)
        self._sweep_active = True
        try:
            idle = queue_policy.order(queued, now, priorities)
            for job in idle:
                if not allow_suspension and not driver.cluster.free_mask:
                    break  # same argument as above, mid-sweep
                if job.suspended_mask:
                    self._try_resume(job, allow_suspension, priorities)
                else:
                    self._try_start(job, allow_suspension, priorities)
        finally:
            self._sweep_active = False
            victims.clear()
            self._sweep_dead.clear()
            self._guard_head = None
            self._guard_anchor = None

    # ------------------------------------------------------------------
    # sweep-scoped bookkeeping
    # ------------------------------------------------------------------
    def _note_started(self, job: Job, priorities: dict[int, float]) -> None:
        """A queued job entered running mid-sweep: it is now a potential
        victim for later idle jobs, exactly as the old per-call re-sort
        would have picked it up."""
        if self._sweep_active and self._sweep_suspension:
            insort(self._sweep_victims, (priorities[job.job_id], job.job_id, job))

    def _note_resumed(
        self, job: Job, needed_mask: int, priorities: dict[int, float]
    ) -> None:
        """A suspended job resumed mid-sweep: its processors unpin."""
        if self._sweep_active:
            self._sweep_pinned &= ~needed_mask
            self._note_started(job, priorities)

    def _note_suspended(self, victim: Job, released_mask: int) -> None:
        """A running job was suspended mid-sweep: its processors pin and
        it leaves the victim list (lazily, via the dead set)."""
        if self._sweep_active:
            self._sweep_pinned |= released_mask
            self._sweep_dead.add(victim.job_id)

    # ------------------------------------------------------------------
    # the reservation guard (hybrid compositions only)
    # ------------------------------------------------------------------
    def _guard_blocks(self, job: Job, now: float) -> bool:
        """Whether the head's guaranteed start forbids preempting for
        *job*: any non-head job still running at the anchor would
        squat on processors the guarantee promised the head."""
        anchor = self._guard_anchor
        if anchor is None or job.job_id == self._guard_head:
            return False
        return now + job.remaining_estimate() > anchor

    # ------------------------------------------------------------------
    # fresh starts (pseudocode path suspend_jobs_1)
    # ------------------------------------------------------------------
    def _pinned_mask(self) -> int:
        """Mask of processors some suspended job must reacquire to resume.

        Recomputed from the queue; during a sweep the maintained
        ``_sweep_pinned`` snapshot is used instead (same value, O(1)).
        """
        pinned = 0
        for j in self.driver.queued_jobs():
            pinned |= j.suspended_mask  # 0 unless awaiting local resume
        return pinned

    def _place_mask(self, job: Job, preferred_mask: int = 0) -> int:
        """Choose processors for a fresh start.

        Priority order: (1) *preferred_mask* (the just-suspended victims'
        processors, per the pseudocode's ``available_processor_set`` --
        so a victim unpins the moment its preemptor finishes), (2) free
        processors no suspended job is waiting for, (3) the rest.
        Skipping pinned processors where possible keeps suspended jobs'
        resume sets clear, which is what lets SS hold NS-level
        utilisation under load.

        Each tier takes the lowest free ids it can -- identical choices
        to the old ``sorted(tier)[:remaining]`` on id sets, because the
        lowest set bits of a mask *are* the sorted prefix.
        """
        free = self.driver.cluster.free_mask
        pinned = self._sweep_pinned if self._sweep_active else self._pinned_mask()
        chosen = take_lowest(preferred_mask & free, job.procs)
        n = chosen.bit_count()
        if n < job.procs:
            chosen |= take_lowest(free & ~chosen & ~pinned, job.procs - n)
            n = chosen.bit_count()
        if n < job.procs:
            chosen |= take_lowest(free & ~chosen, job.procs - n)
        return chosen

    def _try_start(
        self, job: Job, allow_suspension: bool, priorities: dict[int, float]
    ) -> bool:
        driver = self.driver
        if driver.cluster.can_allocate(job.procs):
            driver.start_job(job, procs=self._place_mask(job))
            self._note_started(job, priorities)
            return True
        if not allow_suspension:
            return False

        now = driver.now
        tracer = driver.tracer
        idle_priority = priorities[job.job_id]
        free = driver.cluster.free_count
        if self._guard_anchor is not None and self._guard_blocks(job, now):
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause="reservation_guard",
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    free=free,
                    reentry=False,
                    anchor=self._guard_anchor,
                )
            return False
        candidates = self._scratch_candidates
        candidates.clear()
        #: per-victim verdicts, built only when tracing is on (decision
        #: records are the one place per-victim reasoning is preserved)
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        covered = free  # free + candidate processors
        dead = self._sweep_dead
        # Per-victim checks bound outside the loop; without a limits
        # table victim_preemptable is unconditionally True, so the call
        # is skipped entirely (plain SS's densest inner loop).
        protected = self.limits is not None
        priority_allows = self.criteria.priority_allows
        width_allows = self.criteria.width_allows
        needed = job.procs
        # Victims in ascending priority: cheapest (least entitled) first.
        # The sweep-sorted list replaces the old per-call
        # ``sorted(driver.running_jobs(), key=(priority, job_id))``:
        # same membership (insort on mid-sweep starts, dead set on
        # mid-sweep suspends), same total order.
        for victim_priority, victim_id, victim in self._sweep_victims:
            if covered >= needed:
                break
            if victim_id in dead:
                continue
            width = victim.procs
            if protected and not self.victim_preemptable(victim, victim_priority):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id,
                            victim_priority,
                            width,
                            "category_limit",
                            self.victim_protection_limit(victim),
                        )
                    )
                continue
            if not priority_allows(idle_priority, victim_priority):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id, victim_priority, width, "sf_threshold"
                        )
                    )
                continue
            if not width_allows(needed, width, reentry=False):
                if verdicts is not None:
                    verdicts.append(
                        victim_verdict(
                            victim.job_id, victim_priority, width, "width_rule"
                        )
                    )
                continue
            candidates.append(victim)
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(victim.job_id, victim_priority, width, "candidate")
                )
            covered += width

        if covered < needed:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=primary_denial_cause(verdicts),
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    free=free,
                    reentry=False,
                    victims=verdicts,
                )
            return False

        # Suspend the widest candidates first, stopping once the request
        # is covered (the paper sorts the candidate set in descending
        # processor count so the fewest jobs are disturbed).  The chosen
        # set is fixed *before* any suspension -- free_count only changes
        # through our own suspends, so precomputing it is equivalent and
        # lets the decision record precede the suspend events it causes.
        chosen = self._scratch_chosen
        chosen.clear()
        covered_free = free
        for victim in sorted(candidates, key=lambda c: (-c.procs, c.job_id)):
            if covered_free >= job.procs:
                break
            chosen.append(victim)
            covered_free += victim.procs
        if tracer is not None:
            tracer.decision(
                now,
                "preempt",
                job.job_id,
                xfactor=idle_priority,
                sf=self.criteria.suspension_factor,
                requested=job.procs,
                free=free,
                reentry=False,
                suspended=[v.job_id for v in chosen],
                victims=verdicts,
            )
        freed_mask = 0
        for victim in chosen:
            released = victim.allocated_mask
            freed_mask |= released
            driver.suspend_job(victim, preemptor=job.job_id)
            self._note_suspended(victim, released)
        # run the preemptor on its victims' processors (the pseudocode's
        # available_processor_set) so each victim's resume set clears
        # when the preemptor finishes
        driver.start_job(job, procs=self._place_mask(job, preferred_mask=freed_mask))
        self._note_started(job, priorities)
        return True

    # ------------------------------------------------------------------
    # re-entry of suspended jobs (pseudocode path suspend_jobs_2)
    # ------------------------------------------------------------------
    def _try_resume(
        self, job: Job, allow_suspension: bool, priorities: dict[int, float]
    ) -> bool:
        driver = self.driver
        needed_mask = job.suspended_mask  # cached at suspension time
        if driver.cluster.can_allocate_mask(needed_mask):
            driver.start_job(job)
            self._note_resumed(job, needed_mask, priorities)
            return True
        if not allow_suspension:
            return False

        now = driver.now
        tracer = driver.tracer
        idle_priority = priorities[job.job_id]
        if self._guard_anchor is not None and self._guard_blocks(job, now):
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause="reservation_guard",
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    reentry=True,
                    anchor=self._guard_anchor,
                )
            return False
        # sorted for determinism: both the verdict-list order and the
        # reported primary blocking cause must reproduce run to run
        # (traces are byte-identical for identical inputs --
        # docs/TRACING.md), so the order is pinned to job ids rather
        # than to whatever order the owners are discovered in.
        owners: list[Job] = []
        for owner_id in sorted(driver.cluster.owners_in_mask(needed_mask)):
            owner = driver.running_job(owner_id)
            if owner is None:  # pragma: no cover - defensive
                return False
            owners.append(owner)
        # Every squatter must clear the SF threshold (no width rule on
        # re-entry); one protected occupant blocks the whole resume.
        # When tracing, keep walking past the first blocker so the
        # decision record carries *every* owner's verdict (the extra
        # checks are pure -- no scheduling effect).
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        blocking: str | None = None
        protected = self.limits is not None
        priority_allows = self.criteria.priority_allows
        for victim in owners:
            victim_priority = priorities[victim.job_id]
            if protected and not self.victim_preemptable(victim, victim_priority):
                cause = "category_limit"
            elif not priority_allows(idle_priority, victim_priority):
                cause = "sf_threshold"
            else:
                cause = None
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(
                        victim.job_id,
                        victim_priority,
                        victim.procs,
                        cause or "candidate",
                        self.victim_protection_limit(victim)
                        if cause == "category_limit"
                        else None,
                    )
                )
            if cause is not None:
                blocking = blocking or cause
                if verdicts is None:
                    break  # untraced: first blocker settles it
        if blocking is not None:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=blocking,
                    xfactor=idle_priority,
                    sf=self.criteria.suspension_factor,
                    requested=job.procs,
                    reentry=True,
                    victims=verdicts,
                )
            return False
        if tracer is not None:
            tracer.decision(
                now,
                "preempt",
                job.job_id,
                xfactor=idle_priority,
                sf=self.criteria.suspension_factor,
                requested=job.procs,
                reentry=True,
                suspended=sorted(o.job_id for o in owners),
                victims=verdicts,
            )
        for victim in owners:  # already ascending by job id
            released = victim.allocated_mask
            driver.suspend_job(victim, preemptor=job.job_id)
            self._note_suspended(victim, released)
        if driver.cluster.can_allocate_mask(needed_mask):
            driver.start_job(job)
            self._note_resumed(job, needed_mask, priorities)
            return True
        return False  # pragma: no cover - owners covered all of `needed`


class TimeslicePreemption(PreemptionPolicy):
    """The IS timeslice engine: serve-on-arrival with protection windows.

    The former ``ImmediateServiceScheduler`` body (Chiang & Vernon's
    "immediate service" comparator): every arriving job is offered an
    immediate timeslice, suspending the running jobs with the lowest
    queue priority (instantaneous xfactor in the IS composition) if
    needed; every dispatch opens a protection window of one *timeslice*
    past the job's pending suspend/restart overhead; and the periodic
    sweep re-serves waiting jobs against unprotected victims of
    *strictly lower* priority.  See :mod:`repro.core.immediate_service`
    for the policy rationale and the pinned-down unstated details.

    After every hook, :meth:`quiet_until` bounds when the next sweep
    could act: a victim qualifies once its protection window has ended
    and the waiting job's priority has reached its own
    (:meth:`~QueuePolicy.crossing_time` with factor 1: a quadratic,
    since a running job's instantaneous xfactor falls while a waiter's
    rises).  An untraced driver does not schedule the ticks before
    then.

    Passes do not re-derive what no event changed, and each shortcut
    is exact:

    * each job's priority is computed at most once per instant
      (:meth:`_snapshot`);
    * an untraced run remembers, per suspended job, one running job
      seen blocking its re-entry, and re-tests that one before scanning
      the owners of the re-entry's processors; a sweep in which every
      waiting job is a re-entry so denied returns at once;
    * :meth:`quiet_until` keeps its answer until the driver's
      :attr:`~repro.sim.driver.SchedulingSimulation.transitions` moves.
    """

    def __init__(
        self,
        timeslice: float = 600.0,
        sweep_interval: float = 60.0,
    ) -> None:
        super().__init__()
        # ``not 0 < x < inf`` also rejects NaN
        if not 0 < timeslice < inf:
            raise ValueError(
                f"'timeslice' must be positive and finite, got {timeslice!r}"
            )
        if not 0 < sweep_interval < inf:
            raise ValueError(
                f"'sweep_interval' must be positive and finite, got {sweep_interval!r}"
            )
        self.timeslice = float(timeslice)
        self.timer_interval = float(sweep_interval)
        #: job_id -> end of its current protection window
        self._protected_until: dict[int, float] = {}
        #: job_id -> queue priority at ``_snapshot_now`` (see _snapshot)
        self._priorities: dict[int, float] = {}
        self._snapshot_now = -inf
        #: suspended job_id -> a job once seen blocking its re-entry
        #: (read by untraced runs only, and re-tested at each read)
        self._blockers: dict[int, Job] = {}
        #: quiet_until's last answer and the driver's transitions then
        self._bound = -inf
        self._bound_transitions = -1

    def config_fragment(self) -> dict[str, object]:
        return {"timeslice": self.timeslice, "sweep_interval": self.timer_interval}

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_begin(self) -> None:
        self._protected_until.clear()
        self._priorities.clear()
        self._snapshot_now = -inf
        self._blockers.clear()
        self._bound_transitions = -1

    def on_arrival(self, job: Job) -> None:
        # a job that cannot get processors even by preemption waits and
        # competes in later sweeps
        self._serve_fresh(job, arrival=True)

    def observe_finish(self, job: Job) -> None:
        self._protected_until.pop(job.job_id, None)
        self._blockers.pop(job.job_id, None)

    def service_pass(self, allow_suspension: bool) -> None:
        self._sweep()

    # ------------------------------------------------------------------
    # mechanics
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict[int, float]:
        """job_id -> queue priority at *now*, for the jobs priced so far.

        Valid for the whole instant: a priority at *now* integrates the
        job's past only, so a start or suspension at *now* changes none
        (the reason the SS sweep's snapshot is exact).
        """
        now = self.driver.now
        # repro-lint: disable=RPR003 -- the snapshot belongs to this exact instant; any other float is another instant
        if now != self._snapshot_now:
            self._snapshot_now = now
            self._priorities.clear()
        return self._priorities

    def _priority(self, job: Job, snapshot: dict[int, float]) -> float:
        """*job*'s priority from *snapshot*, computed on first use."""
        p = snapshot.get(job.job_id)
        if p is None:
            p = snapshot[job.job_id] = self.kernel.queue.priority(job, self._snapshot_now)
        return p

    def _is_protected(self, job: Job) -> bool:
        return self.driver.now < self._protected_until.get(job.job_id, -inf)

    def _start(self, job: Job) -> None:
        driver = self.driver
        # The 10-minute timeslice is ten minutes of *service*: a resumed
        # job first pays its suspend/restart overhead on the processors,
        # so protection must cover overhead + timeslice.  Without this,
        # a job whose per-cycle overhead exceeds the timeslice makes
        # zero progress per cycle and two such jobs can suspend each
        # other forever (observed livelock under the disk-swap model).
        pending = job.pending_overhead
        driver.start_job(job)
        self._protected_until[job.job_id] = driver.now + pending + self.timeslice

    def _suspend(self, victim: Job, preemptor: Job) -> None:
        self.driver.suspend_job(victim, preemptor=preemptor.job_id)
        self._protected_until.pop(victim.job_id, None)
        # the preemptor starts next, protected: the likeliest blocker of
        # the victim's re-entry
        self._blockers[victim.job_id] = preemptor

    def _still_blocked(
        self, job: Job, snapshot: dict[int, float], now: float
    ) -> bool:
        """Whether re-entry *job*'s remembered blocker denies it at *now*.

        It does while it holds a processor of *job*'s set (so it runs)
        and is protected or has priority at or above *job*'s: the owner
        scan of :meth:`_serve_reentry` would then deny *job* too.
        """
        owner = self._blockers.get(job.job_id)
        if owner is None or not owner.allocated_mask & job.suspended_mask:
            return False
        if now < self._protected_until.get(owner.job_id, -inf):
            return True
        return self._priority(owner, snapshot) >= self._priority(job, snapshot)

    # ------------------------------------------------------------------
    # timer-pass skipping
    # ------------------------------------------------------------------
    def quiet_until(self) -> float:
        """The first action time, kept until the driver's state moves.

        Between two transitions nothing a pass tests changes but the
        clocks, so the bound found after the last one still holds.
        Recomputed at a later *now*, a quadratic root would move by a
        few ulps only; the driver's margin tick absorbs that.
        """
        transitions = self.driver.transitions
        if transitions != self._bound_transitions:
            self._bound_transitions = transitions
            queue = self.kernel.queue
            if isinstance(queue, InstantaneousPriorityOrder):
                self._bound = self._first_eligibility(queue)
            else:
                self._bound = self._first_action_time()
        return self._bound

    def _eligible_at(
        self, waiter: Job, victim: Job, reentry: bool, now: float
    ) -> float | None:
        """Once its protection window ends and *waiter*'s priority
        reaches the victim's (the test itself is strict)."""
        crossing = self.kernel.queue.crossing_time(waiter, victim, 1.0, now)
        if crossing is None:
            return None
        return max(crossing, self._protected_until.get(victim.job_id, -inf))

    def _first_eligibility(self, queue: InstantaneousPriorityOrder) -> float:
        """:meth:`_first_action_time`'s float, for the instantaneous
        priority, whose :meth:`~QueuePolicy.crossing_time` always tells.

        A victim still protected at the bound found so far cannot lower
        it, so its crossing (a square root) is not computed.  For each
        re-entry the owner that becomes eligible last is remembered as
        its blocker: it blocks every pass before the bound, the margin
        tick the driver keeps included.
        """
        driver = self.driver
        now = driver.now
        cluster = driver.cluster
        crossing = queue.crossing_time
        protected_until = self._protected_until
        blockers = self._blockers
        free = cluster.free_count
        running = driver.running_jobs()
        times = self._scratch_times
        first = inf
        for job in driver.queued_jobs():
            mask = job.suspended_mask
            if mask:
                # a re-entry acts once every owner of its processors is
                # eligible
                at = now
                for owner_id in cluster.owners_in_mask(mask):
                    owner = driver.running_job(owner_id)
                    if owner is None:  # pragma: no cover - busy bits are owned
                        continue
                    eligible = protected_until.get(owner_id, -inf)
                    if eligible < first:
                        eligible = max(crossing(job, owner, 1.0, now), eligible)
                    if eligible > at:
                        at = eligible
                        blockers[job.job_id] = owner
                    if at >= first:
                        break  # cannot lower the bound
                if at < first:
                    first = at
                continue
            # a fresh start acts once free processors plus the victims
            # eligible by then cover its request
            need = job.procs - free
            if need <= 0:
                return now  # no time is earlier
            times.clear()
            for victim in running:
                eligible = protected_until.get(victim.job_id, -inf)
                if eligible < first:  # none at or past the bound can lower it
                    eligible = max(crossing(job, victim, 1.0, now), eligible)
                    if eligible < first:
                        times.append((eligible, victim.procs))
            times.sort()
            for eligible, width in times:
                need -= width
                if need <= 0:
                    first = eligible
                    break
        return first

    # ------------------------------------------------------------------
    # decision records (trace-only; never consulted by the policy)
    # ------------------------------------------------------------------
    def _victim_verdicts(self, limit_priority: float | None) -> list[dict[str, Any]]:
        """Per-running-job verdicts for a decision record.

        ``protected`` -- inside its timeslice protection window;
        ``priority`` -- queue priority not strictly below the waiter's
        (sweep/re-entry paths only); else ``candidate``.
        """
        snapshot = self._snapshot()
        out: list[dict[str, Any]] = []
        for r in sorted(self.driver.running_jobs(), key=lambda r: r.job_id):
            p = self._priority(r, snapshot)
            if self._is_protected(r):
                verdict = "protected"
            elif limit_priority is not None and p >= limit_priority:
                verdict = "priority"
            else:
                verdict = "candidate"
            out.append(victim_verdict(r.job_id, p, r.procs, verdict))
        return out

    def _record_denial(
        self, job: Job, limit_priority: float | None, path: str
    ) -> None:
        driver = self.driver
        tracer = driver.tracer
        if tracer is None:
            return
        verdicts = self._victim_verdicts(limit_priority)
        tracer.decision(
            driver.now,
            "preempt_denied",
            job.job_id,
            cause=primary_denial_cause(verdicts),
            requested=job.procs,
            free=driver.cluster.free_count,
            path=path,
            timeslice=self.timeslice,
            victims=verdicts,
        )

    def _record_grant(
        self,
        job: Job,
        chosen: list[Job],
        limit_priority: float | None,
        path: str,
    ) -> None:
        driver = self.driver
        tracer = driver.tracer
        if tracer is None:
            return
        tracer.decision(
            driver.now,
            "timeslice_grant",
            job.job_id,
            requested=job.procs,
            free=driver.cluster.free_count,
            path=path,
            timeslice=self.timeslice,
            suspended=[v.job_id for v in chosen],
            victims=self._victim_verdicts(limit_priority),
        )

    def _cheapest_victims(self, limit_priority: float | None) -> list[Job]:
        """Unprotected running jobs in ascending queue priority.

        If *limit_priority* is given, only victims strictly below it are
        eligible (the waiting-job service path).
        """
        driver = self.driver
        now = driver.now
        snapshot = self._snapshot()
        protected_until = self._protected_until
        ranked: list[tuple[float, int, Job]] = []
        for r in driver.running_jobs():
            if now < protected_until.get(r.job_id, -inf):
                continue
            p = self._priority(r, snapshot)
            if limit_priority is None or p < limit_priority:
                ranked.append((p, r.job_id, r))
        ranked.sort()  # job ids are unique: jobs are never compared
        return [r for _, _, r in ranked]

    def _sweep(self) -> None:
        """Serve waiting jobs: free processors first, then preemption.

        An untraced sweep returns before ordering the queue when every
        waiting job is a re-entry whose remembered blocker still denies
        it: each would be denied again, and an untraced denial changes
        nothing.
        """
        driver = self.driver
        queued = driver.queued_jobs()
        if not queued:
            return
        now = driver.now
        snapshot = self._snapshot()
        if driver.tracer is None:
            for job in queued:
                if not (job.suspended_mask and self._still_blocked(job, snapshot, now)):
                    break
            else:
                return
        priority = self.kernel.queue.priority
        for job in queued:
            if job.job_id not in snapshot:
                snapshot[job.job_id] = priority(job, now)
        for job in self.kernel.queue.order(queued, now, snapshot):
            if job.suspended_mask:
                self._serve_reentry(job, snapshot)
            else:
                self._serve_fresh(job, arrival=False)

    def _serve_fresh(self, job: Job, arrival: bool) -> bool:
        """Start *job* now, suspending the cheapest unprotected victims
        if needed: on *arrival* any of them, in a sweep only those of
        strictly lower priority than *job*."""
        driver = self.driver
        if driver.cluster.can_allocate(job.procs):
            self._start(job)
            return True
        limit = None if arrival else self._snapshot()[job.job_id]
        path = "arrival" if arrival else "sweep"
        victims = self._cheapest_victims(limit_priority=limit)
        freed = driver.cluster.free_count
        chosen: list[Job] = []
        for victim in victims:
            if freed >= job.procs:
                break
            chosen.append(victim)
            freed += victim.procs
        if freed < job.procs:
            self._record_denial(job, limit_priority=limit, path=path)
            return False
        self._record_grant(job, chosen, limit_priority=limit, path=path)
        for victim in chosen:
            self._suspend(victim, job)
        self._start(job)
        return True

    def _serve_reentry(self, job: Job, snapshot: dict[int, float]) -> bool:
        driver = self.driver
        needed_mask = job.suspended_mask  # cached at suspension time
        if driver.cluster.can_allocate_mask(needed_mask):
            self._start(job)
            return True
        tracer = driver.tracer
        now = driver.now
        if tracer is None and self._still_blocked(job, snapshot, now):
            return False  # the owner scan would deny it too
        protected_until = self._protected_until
        my_priority = snapshot[job.job_id]
        # ascending job id, so verdicts and suspensions keep one order
        owners: list[Job] = []
        for owner_id in sorted(driver.cluster.owners_in_mask(needed_mask)):
            owner = driver.running_job(owner_id)
            if owner is None:  # pragma: no cover - busy bits are owned
                return False
            owners.append(owner)
        # One protected or higher-priority squatter blocks the resume.
        # When tracing, classify every owner so the decision record is
        # complete (the checks are pure; scheduling is unchanged).
        verdicts: list[dict[str, Any]] | None = [] if tracer is not None else None
        blocking: str | None = None
        for victim in owners:
            if now < protected_until.get(victim.job_id, -inf):
                cause = "protected"
            elif self._priority(victim, snapshot) >= my_priority:
                cause = "priority"
            else:
                cause = None
            if verdicts is not None:
                verdicts.append(
                    victim_verdict(
                        victim.job_id,
                        self._priority(victim, snapshot),
                        victim.procs,
                        cause or "candidate",
                    )
                )
            if cause is not None:
                blocking = blocking or cause
                if verdicts is None:
                    # untraced: first blocker settles it, and is re-tested
                    # before the next scan
                    self._blockers[job.job_id] = victim
                    break
        if blocking is not None:
            if tracer is not None:
                tracer.decision(
                    now,
                    "preempt_denied",
                    job.job_id,
                    cause=blocking,
                    requested=job.procs,
                    path="reentry",
                    timeslice=self.timeslice,
                    victims=verdicts,
                )
            return False
        if tracer is not None:
            tracer.decision(
                now,
                "timeslice_grant",
                job.job_id,
                requested=job.procs,
                path="reentry",
                timeslice=self.timeslice,
                suspended=[o.job_id for o in owners],
                victims=verdicts,
            )
        for victim in owners:
            self._suspend(victim, job)
        if driver.cluster.can_allocate_mask(needed_mask):
            self._start(job)
            return True
        return False  # pragma: no cover - owners covered all of `needed`


# ======================================================================
# composition
# ======================================================================
class PolicyKernel(Scheduler):
    """One dispatch loop composing the four policy axes.

    A scheme is one constructor call naming its id, its display name and
    one policy per axis; the scheme functions of :mod:`repro.core` and
    :mod:`repro.schedulers` each make exactly that call.  Policies are
    stateful and bind to the kernel built from them, so each kernel
    needs fresh policy objects.

    Driver hooks route to the composition:

    * ``on_arrival`` -- the preemption policy may serve immediately
      (IS); a reservation policy that handles arrivals (conservative)
      admits the job itself; otherwise a no-suspension service pass.
    * ``on_finish`` -- the preemption policy observes the completion
      (TSS calibration), then either the reservation policy recomputes
      guarantees or a no-suspension service pass fills the hole.
    * ``on_timer`` -- the full (suspension-allowed) service pass.
      :meth:`quiet_until`, asked after every hook, lets an untraced
      driver skip the ticks that provably cannot act.
    * ``on_kill`` -- reschedules when the backfill policy asks for it
      (speculative test runs).

    The default service pass is :meth:`backfill_pass`: start jobs in
    queue order while they fit, then let the reservation policy plan
    the head and the backfill policy fill around it.  Preemption
    policies override ``service_pass`` with their own engines.

    Scheme identity (``scheme_id``, ``name``, ``timer_interval``,
    ``config()``) comes entirely from the constructor arguments.
    :meth:`config` merges the axes' :meth:`Policy.config_fragment` dicts
    in a fixed order (queue, reservation, backfill, preemption) after
    the scheme id, so cache fingerprints compose automatically and keep
    the key order the golden traces embed in ``run_begin`` events.
    """

    def __init__(
        self,
        *,
        scheme_id: str,
        display_name: str,
        queue: QueuePolicy,
        reservation: ReservationPolicy,
        backfill: BackfillPolicy,
        preemption: PreemptionPolicy,
    ) -> None:
        super().__init__()
        self.scheme_id = scheme_id
        self.name = display_name
        self.queue = queue
        self.reservation = reservation
        self.backfill = backfill
        self.preemption = preemption
        self.timer_interval = preemption.timer_interval
        for policy in self._axes():
            policy.kernel = self

    def _axes(self) -> tuple[Policy, ...]:
        """The four policies in config merge order."""
        return (self.queue, self.reservation, self.backfill, self.preemption)

    # ------------------------------------------------------------------
    def bind(self, driver: "SchedulingSimulation") -> None:
        """Attach the kernel and each of its policies to *driver*; called
        before every run, so one kernel can drive several in turn."""
        super().bind(driver)
        for policy in self._axes():
            policy.driver = driver

    def config(self) -> dict[str, object]:
        cfg: dict[str, object] = {"scheme": self.scheme_id}
        for policy in self._axes():
            cfg.update(policy.config_fragment())
        return cfg

    def on_begin(self) -> None:
        for policy in self._axes():
            policy.on_begin()

    def on_arrival(self, job: Job) -> None:
        self.preemption.on_arrival(job)
        if self.reservation.handles_arrival:
            self.reservation.on_arrival(job)
            return
        self.preemption.service_pass(False)

    def on_finish(self, job: Job) -> None:
        self.preemption.observe_finish(job)
        if self.reservation.handles_finish:
            self.reservation.on_finish(job)
            return
        self.preemption.service_pass(False)

    def on_timer(self) -> None:
        """The full, suspension-allowed service pass."""
        self.preemption.service_pass(True)

    def quiet_until(self) -> float:
        """The preemption policy's bound (:meth:`PreemptionPolicy.quiet_until`)."""
        return self.preemption.quiet_until()

    def on_kill(self, job: Job) -> None:
        if self.backfill.resched_on_kill:
            self.preemption.service_pass(False)

    # ------------------------------------------------------------------
    # the default service pass (non-preemptive schemes)
    # ------------------------------------------------------------------
    def backfill_pass(self) -> None:
        """Start in order while the head fits, then backfill behind it.

        Phase 1 starts the queue head while it fits, refetching the
        queue each iteration (a start removes exactly the head, so this
        is equivalent to the legacy snapshot walks in FCFS and EASY).
        Phase 2 asks the reservation policy to plan the (now blocked)
        head; if the scheme reserves nothing, dispatch stops at the
        head.  Phase 3 lets the backfill policy fill around the plan.

        An untraced pass skips phases 2 and 3 when no job behind the head
        passes ``can_start``: no fill starts such a job, and starts only
        take processors, so the plan could start nothing.  Its only other
        effect is the traced ``reservation`` record, so traced passes
        plan every time.
        """
        driver = self.driver
        while True:
            queue = driver.queued_jobs()
            if not queue:
                return
            ordered = self.queue.order(queue, driver.now)
            head = ordered[0]
            if not driver.can_start(head):
                break
            driver.start_job(head)
        queue = driver.queued_jobs()
        if not queue:
            return  # pragma: no cover - loop returned already
        rest = queue[1:]
        if driver.tracer is None and not any(driver.can_start(job) for job in rest):
            return
        plan = self.reservation.plan_head(queue[0])
        if plan is None:
            return
        self.backfill.fill(rest, plan)
