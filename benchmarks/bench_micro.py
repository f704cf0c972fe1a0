"""Fixed kernel workloads, the call-count collector, and legacy references.

``tools/bench_gate.py`` runs every workload of :func:`workloads` under
:func:`count_calls` and compares the counts, call for call, with the
committed ``tools/bench_baseline.json``.  A count is a property of the
code, not of the machine or the run: it is the same on every run and
under every hash seed (``tests/test_call_counts.py``), so any change in
a count is a change in the code.  Wall-clock numbers live in
``perfbench/``.

The pre-optimisation kernel survives here as *executable references*:

* :class:`LegacyCluster` -- the set/dict free-pool bookkeeping that the
  bitmask :class:`repro.cluster.machine.Cluster` replaced;
* :class:`LegacySweepScheduler` -- the SS sweep that recomputed
  priorities per access, re-sorted ``running_jobs()`` per idle job and
  rebuilt the pinned set per placement;
* :class:`LegacyAvailabilityProfile` -- the candidates-times-``fits``
  anchor rescan and the double-``list.insert`` claim.

The ``test_*_identical`` cases assert the optimised kernel makes
byte-for-byte the same scheduling decisions as the legacy one.
"""

from __future__ import annotations

import gc
import sys
from functools import partial
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable

import repro
from repro.cluster.bitset import iter_bits, mask_from_ids, mask_to_ids
from repro.cluster.machine import AllocationError, Cluster
from repro.core.priorities import PreemptionCriteria, suspension_priority
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.obs import NULL_RECORDER
from repro.schedulers.base import Scheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.profiles import AvailabilityProfile, ProfileError
from repro.sim.driver import SchedulingSimulation, SimulationResult
from repro.sim.events import EventKind, EventQueue
from repro.workload.job import Job, fresh_copies
from repro.workload.load import scale_load
from repro.workload.swf import stream_jobs, stream_swf
from repro.workload.synthetic import generate_trace

JOBS_SDSC = generate_trace("SDSC", n_jobs=400, seed=3)
#: the regime the ROADMAP cares about: a long, overloaded SDSC trace
#: where queues stay deep and the kernel's quadratic terms dominate
JOBS_CONGESTED = scale_load(generate_trace("SDSC", n_jobs=700, seed=5), 1.8)
#: records in the ingestion workloads' log (``write_synthetic_swf``)
INGEST_LINES = 20_000


# ----------------------------------------------------------------------
# the call-count collector
# ----------------------------------------------------------------------
#: the package whose functions :func:`count_calls` counts
SRC_ROOT = Path(repro.__file__).resolve().parent
#: frames Python 3.12 inlines into their caller (PEP 709); skipped, so a
#: count names a function and not an interpreter detail
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(fn: Callable[[], object]) -> dict[str, int]:
    """Python-level calls *fn* makes to functions under ``src/repro``.

    Keys are ``path:qualname``, with the path relative to the package
    (Python 3.10 code objects carry no qualname, so there a key holds
    the bare function name); values count ``call`` events, so a
    generator counts once per resumption.  *fn* first runs once
    uncounted, so lazy imports and first-use caches stay out of the
    count, and the garbage collector is off while counting, so no
    finaliser runs at an allocation-dependent point.
    """
    fn()
    calls: dict[CodeType, int] = {}

    def profile(frame: FrameType, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            calls[code] = calls.get(code, 0) + 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    counts: dict[str, int] = {}
    for code, n in calls.items():
        path = Path(code.co_filename).resolve()
        if code.co_name in _COMPREHENSIONS or not path.is_relative_to(SRC_ROOT):
            continue
        name = getattr(code, "co_qualname", code.co_name)
        key = f"{path.relative_to(SRC_ROOT).as_posix()}:{name}"
        counts[key] = counts.get(key, 0) + n
    return dict(sorted(counts.items()))


# ----------------------------------------------------------------------
# the counted workloads
# ----------------------------------------------------------------------
def simulate(
    jobs: list[Job],
    scheduler: Scheduler,
    cluster: Any = None,
    recorder: Any = None,
) -> SimulationResult:
    """One run over fresh copies of *jobs* on a 128-processor machine."""
    driver = SchedulingSimulation(
        cluster=Cluster(128) if cluster is None else cluster,
        scheduler=scheduler,
        recorder=recorder,
    )
    return driver.run(fresh_copies(jobs))


def _event_queue_push_pop() -> None:
    q = EventQueue()
    for i in range(2000):
        q.schedule(float(i % 97), EventKind.GENERIC, i)
    while q:
        q.pop()


def _event_queue_with_cancellation() -> None:
    q = EventQueue()
    events = [q.schedule(float(i % 53), EventKind.GENERIC, i) for i in range(2000)]
    for ev in events[::2]:
        q.cancel(ev)
    while q:
        q.pop()


def _profile_workload(profile_cls: type[AvailabilityProfile]) -> AvailabilityProfile:
    p = profile_cls(430, origin=0.0)
    for i in range(300):
        width = 8 + (i * 7) % 48
        anchor = p.find_anchor(100.0 + (i % 60), width)
        p.claim(anchor, 100.0 + (i % 60), width)
    return p


def _cluster_workload(cluster_cls: Callable[[int], Any]) -> Any:
    c = cluster_cls(430)
    for _ in range(50):
        held = [(i, c.allocate(4, owner=i)) for i in range(100)]
        for owner, procs in held:
            c.release(procs, owner)
    return c


def _ss(jobs: list[Job], recorder: Any = None) -> SimulationResult:
    return simulate(jobs, SelectiveSuspensionScheduler(suspension_factor=2.0), recorder=recorder)


def _swf_stream_parse(log: Path) -> int:
    """Streaming parse: lines -> SWFRecord, no conversion."""
    return sum(1 for _ in stream_swf(log))


def _swf_stream_to_jobs(log: Path) -> int:
    """Streaming ingestion: parse, hygiene filters and Job construction."""
    return sum(1 for _ in stream_jobs(stream_swf(log), max_procs=128))


def workloads(swf_log: Path) -> dict[str, Callable[[], object]]:
    """The counted workloads by name; the two ``swf_*`` ones read
    *swf_log*, a ``write_synthetic_swf`` log of :data:`INGEST_LINES`
    records."""
    return {
        "event_queue_push_pop": _event_queue_push_pop,
        "event_queue_with_cancellation": _event_queue_with_cancellation,
        "profile_claim_and_anchor": partial(_profile_workload, AvailabilityProfile),
        "cluster_allocate_release": partial(_cluster_workload, Cluster),
        "easy_sdsc400": lambda: simulate(JOBS_SDSC, EasyBackfillScheduler()),
        "ss_sdsc400": partial(_ss, JOBS_SDSC),
        "ss_sdsc400_null_recorder": partial(_ss, JOBS_SDSC, NULL_RECORDER),
        "ss_congested700": partial(_ss, JOBS_CONGESTED),
        "swf_stream_parse": partial(_swf_stream_parse, swf_log),
        "swf_stream_to_jobs": partial(_swf_stream_to_jobs, swf_log),
    }


# ----------------------------------------------------------------------
# legacy reference implementations (pre-bitmask kernel)
# ----------------------------------------------------------------------
class LegacyCluster:
    """The set/dict cluster the bitmask :class:`Cluster` replaced.

    Free pool as ``set[int]``, ownership as ``dict[proc, owner]``: the
    reference keeps its internals.  The methods the driver calls take
    and return bitmasks, as :class:`Cluster`'s do, so it drops into the
    driver for the equivalence assertions.  Each distinct mask is
    turned into ids once (:meth:`ids`); :meth:`ids` and
    :meth:`free_set` are the set reads :class:`LegacySweepScheduler`
    uses.
    """

    def __init__(self, n_procs: int, policy=None) -> None:
        from repro.cluster.allocation import LowestIdFirst

        self.n_procs = int(n_procs)
        self._free: set[int] = set(range(self.n_procs))
        self._owner: dict[int, int] = {}
        #: mask -> its ids, for every mask converted so far
        self._ids: dict[int, frozenset[int]] = {}
        #: processor id -> its one-bit mask
        self._bit = [1 << p for p in range(self.n_procs)]
        self.policy = policy or LowestIdFirst()

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def busy_count(self) -> int:
        return self.n_procs - len(self._free)

    @property
    def free_mask(self) -> int:
        return mask_from_ids(self._free)

    def free_set(self) -> frozenset[int]:
        return frozenset(self._free)

    def ids(self, mask: int) -> frozenset[int]:
        """The processor ids of *mask*, converted once per distinct mask."""
        ids = self._ids.get(mask)
        if ids is None:
            ids = self._ids[mask] = frozenset(iter_bits(mask))
        return ids

    def is_free(self, proc: int) -> bool:
        return proc in self._free

    def owner_of(self, proc: int) -> int | None:
        return self._owner.get(proc)

    def can_allocate(self, count: int) -> bool:
        return count <= len(self._free)

    def can_allocate_mask(self, mask: int) -> bool:
        return all(p in self._free for p in self.ids(mask))

    def allocate(self, count: int, owner: int) -> int:
        if count <= 0:
            raise AllocationError(f"job {owner}: nonpositive request {count}")
        if count > self.n_procs:
            raise AllocationError(
                f"job {owner}: requests {count} > machine size {self.n_procs}"
            )
        if count > len(self._free):
            raise AllocationError(
                f"job {owner}: requests {count}, only {len(self._free)} free"
            )
        return self._claim(self.policy.select(self._free, count), owner)

    def allocate_mask(self, mask: int, owner: int) -> int:
        chosen = self.ids(mask)
        if not chosen:
            raise AllocationError(f"job {owner}: empty specific allocation")
        missing = [p for p in chosen if p not in self._free]
        if missing:
            raise AllocationError(
                f"job {owner}: processors {sorted(missing)[:8]} not free"
            )
        return self._claim(chosen, owner)

    def _claim(self, chosen: frozenset[int], owner: int) -> int:
        bit = self._bit
        mask = 0
        for p in chosen:
            self._owner[p] = owner
            mask |= bit[p]
        self._free -= chosen
        self._ids[mask] = chosen
        return mask

    def release(self, mask: int, owner: int) -> None:
        procs = self._ids.get(mask) or self.ids(mask)
        for p in procs:
            actual = self._owner.get(p)
            if actual != owner:
                raise AllocationError(
                    f"release of processor {p} by job {owner}, "
                    f"but it is owned by {actual!r}"
                )
        for p in procs:
            del self._owner[p]
        self._free |= procs


class _IdViewCluster(Cluster):
    """The bitmask :class:`Cluster` with the two set reads of
    :class:`LegacySweepScheduler`, converted on every call."""

    def ids(self, mask: int) -> frozenset[int]:
        return frozenset(iter_bits(mask))

    def free_set(self) -> frozenset[int]:
        return frozenset(iter_bits(self.free_mask))


class LegacyAvailabilityProfile(AvailabilityProfile):
    """The pre-optimisation profile operations.

    ``find_anchor`` re-walks the whole window per candidate (O(n^2));
    ``claim`` pays two O(n) ``list.insert`` shifts per call.  Kept as
    the reference for the merged-walk/splice rewrite.
    """

    def _ensure_breakpoint(self, t: float) -> int:
        from bisect import bisect_right

        idx = bisect_right(self._times, t) - 1
        if self._times[idx] == t:
            return idx
        self._times.insert(idx + 1, t)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def claim(self, start: float, duration: float, count: int) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if start < self.origin:
            raise ValueError(f"claim at t={start} before origin={self.origin}")
        end = start + duration
        i0 = self._ensure_breakpoint(start)
        i1 = self._ensure_breakpoint(end)
        for i in range(i0, i1):
            if self._free[i] < count:
                raise ProfileError(
                    f"claim of {count} procs over [{start}, {end}) underflows "
                    f"at t={self._times[i]} (free={self._free[i]})"
                )
            self._free[i] -= count

    def find_anchor(
        self, duration: float, count: int, earliest: float | None = None
    ) -> float:
        if count > self.n_procs:
            raise ProfileError(
                f"{count} processors can never be free on a "
                f"{self.n_procs}-proc machine"
            )
        start = self.origin if earliest is None else max(earliest, self.origin)
        candidates = [start, *(t for t in self._times if t > start)]
        for t in candidates:
            if self.fits(t, duration, count):
                return t
        if self._free[-1] >= count:
            return self._times[-1]
        raise ProfileError(
            f"no anchor for count={count}, duration={duration}: profile tail "
            f"only has {self._free[-1]} free -- unterminated claim?"
        )


class _RecomputingPriorities(dict):
    """job_id -> xfactor mapping that recomputes on *every* access.

    Stores the Job objects and calls :func:`suspension_priority` in
    ``__getitem__``, reproducing the pre-optimisation sweep's cost
    profile (priority evaluated inside sort keys and per-victim
    filters, O(queue x running) calls per sweep) while flowing through
    the same code paths as the snapshot dict.
    """

    def __init__(self, jobs, now: float) -> None:
        super().__init__((j.job_id, j) for j in jobs)
        self._now = now

    def __getitem__(self, job_id):  # type: ignore[override]
        return suspension_priority(super().__getitem__(job_id), self._now)


class LegacySweepScheduler(Scheduler):
    """Reference SS with the full pre-optimisation sweep.

    Reference-only and deliberately **self-contained** on the bare
    :class:`Scheduler` interface: since the policy-kernel refactor the
    production SS delegates its sweep to the composed
    ``SweepPreemption`` engine, so subclass overrides of the old
    ``sweep``/``_try_start`` internals would be dead code silently
    running the optimised path.  Everything here is the legacy
    implementation: priorities recomputed per access, ``running_jobs()``
    re-sorted inside every ``_try_start``, the pinned set rebuilt from
    the queue on every ``_place``, and all placement done on id sets:
    it reads them through the cluster's :meth:`~LegacyCluster.ids` and
    :meth:`~LegacyCluster.free_set` and hands ``start_job`` a mask.
    Pins down that the sweep-scoped snapshot/victim-list/pinned-mask
    structures change no scheduling decision
    (``test_kernel_equivalence_identical`` asserts the schedules match
    event for event) and what they save
    (``tests/test_call_counts.py`` counts the priority evaluations).
    """

    scheme_id = "ss"

    def __init__(
        self,
        suspension_factor: float = 2.0,
        preemption_interval: float = 60.0,
        width_rule: bool = True,
    ) -> None:
        super().__init__()
        self.criteria = PreemptionCriteria(
            suspension_factor=suspension_factor, width_rule=width_rule
        )
        self.timer_interval = float(preemption_interval)
        self.name = f"SS(SF={suspension_factor:g})"

    def config(self) -> dict[str, object]:
        return {
            "scheme": self.scheme_id,
            "suspension_factor": self.criteria.suspension_factor,
            "preemption_interval": self.timer_interval,
            "width_rule": self.criteria.width_rule,
        }

    def on_arrival(self, job: Job) -> None:
        self.sweep(allow_suspension=False)

    def on_finish(self, job: Job) -> None:
        self.sweep(allow_suspension=False)

    def on_timer(self) -> None:
        self.sweep(allow_suspension=True)

    def victim_preemptable(
        self, victim: Job, now: float, priority: float | None = None
    ) -> bool:
        return True  # plain SS never protects a running job

    def sweep(self, allow_suspension: bool) -> None:
        driver = self.driver
        assert driver is not None
        now = driver.now
        queued = driver.queued_jobs()
        pool = list(queued)
        if allow_suspension:
            pool.extend(driver.running_jobs())
        priorities = _RecomputingPriorities(pool, now)
        idle = sorted(
            queued,
            key=lambda j: (-priorities[j.job_id], j.submit_time, j.job_id),
        )
        for job in idle:
            if job.needs_specific_procs:
                self._try_resume(job, allow_suspension, priorities)
            else:
                self._try_start(job, allow_suspension, priorities)

    def _pinned_procs(self) -> set[int]:
        driver = self.driver
        assert driver is not None
        ids = driver.cluster.ids
        pinned: set[int] = set()
        for j in driver.queued_jobs():
            if j.needs_specific_procs:
                pinned |= ids(j.suspended_mask)
        return pinned

    def _place(self, job: Job, preferred: frozenset[int] = frozenset()) -> frozenset[int]:
        driver = self.driver
        assert driver is not None
        free = driver.cluster.free_set()
        pinned = self._pinned_procs()
        chosen: list[int] = sorted(preferred & free)[: job.procs]
        if len(chosen) < job.procs:
            taken = set(chosen)
            unpinned = sorted(free - taken - pinned)
            chosen.extend(unpinned[: job.procs - len(chosen)])
        if len(chosen) < job.procs:
            taken = set(chosen)
            rest = sorted(free - taken)
            chosen.extend(rest[: job.procs - len(chosen)])
        return frozenset(chosen)

    def _try_start(self, job: Job, allow_suspension: bool, priorities) -> bool:
        driver = self.driver
        assert driver is not None
        if driver.cluster.can_allocate(job.procs):
            driver.start_job(job, procs=mask_from_ids(self._place(job)))
            return True
        if not allow_suspension:
            return False
        free = driver.cluster.free_count
        candidates: list[Job] = []
        covered = free
        for victim in sorted(
            driver.running_jobs(),
            key=lambda r: (priorities[r.job_id], r.job_id),
        ):
            if covered >= job.procs:
                break
            victim_priority = priorities[victim.job_id]
            width = victim.procs
            if not self.victim_preemptable(victim, driver.now, victim_priority):
                continue
            if not self.criteria.priority_allows(
                priorities[job.job_id], victim_priority
            ):
                continue
            if not self.criteria.width_allows(job.procs, width, reentry=False):
                continue
            candidates.append(victim)
            covered += width
        if covered < job.procs:
            return False
        chosen: list[Job] = []
        covered_free = free
        for victim in sorted(candidates, key=lambda c: (-c.procs, c.job_id)):
            if covered_free >= job.procs:
                break
            chosen.append(victim)
            covered_free += victim.procs
        freed: set[int] = set()
        for victim in chosen:
            freed |= driver.cluster.ids(victim.allocated_mask)
            driver.suspend_job(victim, preemptor=job.job_id)
        placed = self._place(job, preferred=frozenset(freed))
        driver.start_job(job, procs=mask_from_ids(placed))
        return True

    def _try_resume(self, job: Job, allow_suspension: bool, priorities) -> bool:
        driver = self.driver
        assert driver is not None
        needed = job.suspended_mask
        if driver.cluster.can_allocate_mask(needed):
            driver.start_job(job)
            return True
        if not allow_suspension:
            return False
        idle_priority = priorities[job.job_id]
        procs = driver.cluster.ids(needed)
        owner_ids = {driver.cluster.owner_of(p) for p in procs} - {None}
        owners = sorted(
            (r for r in driver.running_jobs() if r.job_id in owner_ids),
            key=lambda r: r.job_id,
        )
        if len(owners) != len(owner_ids):  # pragma: no cover - defensive
            return False
        for victim in owners:
            victim_priority = priorities[victim.job_id]
            if not self.victim_preemptable(victim, driver.now, victim_priority):
                return False
            if not self.criteria.priority_allows(idle_priority, victim_priority):
                return False
        for victim in owners:
            driver.suspend_job(victim, preemptor=job.job_id)
        if driver.cluster.can_allocate_mask(needed):
            driver.start_job(job)
            return True
        return False  # pragma: no cover - owners covered all of `needed`




def _schedule_signature(result: SimulationResult) -> list[tuple[Any, ...]]:
    """Every externally observable per-job outcome, for exact equality."""
    return [
        (
            j.job_id,
            j.first_start_time,
            j.finish_time,
            j.suspension_count,
        )
        for j in result.jobs
    ]


# ----------------------------------------------------------------------
# decision equivalence: the optimisations change cost, never the schedule
# ----------------------------------------------------------------------
def test_profile_ops_identical():
    """Merged-walk anchors and spliced claims change cost, not plans."""
    fast = _profile_workload(AvailabilityProfile)
    slow = _profile_workload(LegacyAvailabilityProfile)
    assert fast.breakpoints() == slow.breakpoints()


def _cluster_churn(cluster_cls) -> list[tuple[int, ...]]:
    """Allocate/release churn that leaves holes; every choice, as ids.

    Widths cycle through 1..37 and holders leave from the middle of the
    machine as well as the oldest end, so later requests span
    fragments; the last holders are then restarted on their own
    processors, as a local resume does.
    """
    c = cluster_cls(430)
    held: dict[int, int] = {}
    choices: list[tuple[int, ...]] = []
    for i in range(600):
        width = 1 + (i * 7) % 37
        while not c.can_allocate(width):
            oldest = min(held)
            c.release(held.pop(oldest), oldest)
        held[i] = c.allocate(width, owner=i)
        choices.append(mask_to_ids(held[i]))
        if i % 3 == 0:
            middle = sorted(held)[len(held) // 2]
            c.release(held.pop(middle), middle)
    for owner in sorted(held)[-10:]:
        c.release(held[owner], owner)
        assert c.can_allocate_mask(held[owner])
        choices.append(mask_to_ids(c.allocate_mask(held[owner], owner=owner)))
    choices.append(mask_to_ids(c.free_mask))
    return choices


def test_cluster_churn_identical():
    """The bitmask and set clusters choose the same processors, hole for
    hole, under the same churn."""
    assert _cluster_churn(Cluster) == _cluster_churn(LegacyCluster)


def test_kernel_equivalence_identical():
    """Optimised kernel == full legacy kernel, decision for decision.

    Runs the bitmask-cluster/incremental-sweep kernel and the complete
    legacy reference (set cluster + naive sweep) over the same traces
    and asserts per-job start/finish/suspension equality plus the
    aggregate counters.
    """
    for jobs in (JOBS_SDSC, JOBS_CONGESTED):
        fast = _ss(jobs)
        slow = simulate(
            jobs, LegacySweepScheduler(suspension_factor=2.0), cluster=LegacyCluster(128)
        )
        assert _schedule_signature(fast) == _schedule_signature(slow)
        assert fast.total_suspensions == slow.total_suspensions
        assert fast.makespan == slow.makespan


def test_sweep_priority_snapshot_identical():
    """The snapshot optimisation changes cost, not decisions.

    Optimised sweep vs the naive recomputing sweep on the *same*
    (bitmask) cluster, so the sweep alone is compared.
    """
    fast = _ss(JOBS_SDSC)
    slow = simulate(
        JOBS_SDSC, LegacySweepScheduler(suspension_factor=2.0), cluster=_IdViewCluster(128)
    )
    assert _schedule_signature(fast) == _schedule_signature(slow)
    assert fast.total_suspensions == slow.total_suspensions
    assert fast.makespan == slow.makespan
