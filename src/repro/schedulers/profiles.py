"""Processor-availability profiles for backfilling.

Backfilling plans against a forecast of free processors over time: each
running job is expected to release its processors at its estimate-based
completion, and each reservation claims processors over a window.
:class:`AvailabilityProfile` is that forecast -- a piecewise-constant
step function ``free(t)`` on ``[origin, inf)``.

The representation is a sorted list of ``[time, free]`` breakpoints; the
value applies from the breakpoint up to the next one, and the final
breakpoint extends to infinity.  The constructor takes the running jobs'
``(count, until)`` releases and builds their step function in one
sort-and-accumulate pass (O(R log R) for R running jobs).  Lookups
bisect (O(log n)); a claim rewrites the affected run of breakpoints with
one slice splice (a single memmove instead of two ``list.insert``
shifts); anchor search is one
merged breakpoint walk carrying a sliding-window minimum (O(n) per
anchor, down from the O(n^2) candidates-times-rescan form -- the legacy
reference survives in ``benchmarks/bench_micro.py``, and
``tools/bench_gate.py`` counts the calls per anchor exactly).  EASY
builds a profile every backfill pass and conservative backfilling at
every compression; an arrival under conservative backfilling extends the
profile the previous compression or arrival left, claiming only the new
job, whenever that profile equals a rebuild.  These operations bound the
whole backfill family's cost once queues congest.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable


class ProfileError(RuntimeError):
    """Raised when a claim, or the running jobs' releases, would drive
    free processors negative."""


class AvailabilityProfile:
    """Forecast of free processors from ``origin`` onward.

    Parameters
    ----------
    n_procs:
        Machine capacity; the initial profile is ``free(t) = n_procs``
        everywhere.
    origin:
        Current simulation time; claims and queries before it are invalid.
    releases:
        ``(count, until)`` per running job: *count* processors busy until
        *until*, floored at ``origin + 1`` for a job past its estimate.
        Each end is ``origin + (max(until, origin + 1) - origin)``, the
        float one :meth:`claim` from ``origin`` would end at.  Releases
        holding more than ``n_procs`` raise :class:`ProfileError`.
    """

    def __init__(
        self,
        n_procs: int,
        origin: float,
        releases: Iterable[tuple[int, float]] = (),
    ) -> None:
        if n_procs <= 0:
            raise ValueError(f"n_procs must be positive, got {n_procs}")
        self.n_procs = n_procs
        self.origin = origin
        floor = origin + 1.0
        ends = sorted(
            [(origin + (max(until, floor) - origin), count) for count, until in releases]
        )
        times = [origin]
        released = [0]  # processors released by each breakpoint, cumulative
        busy = 0
        for end, count in ends:
            if count <= 0:
                raise ValueError(f"count must be positive, got {count}")
            busy += count
            if end > times[-1]:
                times.append(end)
                released.append(busy)
            elif end > origin:
                released[-1] = busy  # tied end: one breakpoint releases both
            else:
                raise ValueError(f"release at t={end} not after origin={origin}")
        if busy > n_procs:
            raise ProfileError(f"running jobs hold {busy} procs on a {n_procs}-proc machine")
        self._times: list[float] = times
        self._free: list[int] = [n_procs - busy + gone for gone in released]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def free_at(self, t: float) -> int:
        """Free processors at time *t* (>= origin)."""
        if t < self.origin:
            raise ValueError(f"query at t={t} before origin={self.origin}")
        idx = bisect_right(self._times, t) - 1
        return self._free[idx]

    def min_free(self, start: float, end: float) -> int:
        """Minimum of ``free(t)`` over the window ``[start, end)`` (*start* >= origin)."""
        if start < self.origin:
            raise ValueError(f"query at t={start} before origin={self.origin}")
        if end <= start:
            return self.free_at(start)
        idx = bisect_right(self._times, start) - 1
        lo = self._free[idx]
        idx += 1
        while idx < len(self._times) and self._times[idx] < end:
            lo = min(lo, self._free[idx])
            idx += 1
        return lo

    def fits(self, start: float, duration: float, count: int) -> bool:
        """Whether *count* processors are free throughout the window."""
        return self.min_free(start, start + duration) >= count

    def breakpoints(self) -> list[tuple[float, int]]:
        """Snapshot of (time, free) steps -- for tests and debugging."""
        return list(zip(self._times, self._free, strict=True))

    def clone(self) -> "AvailabilityProfile":
        """Independent copy (what-if planning without mutating the original)."""
        copy = AvailabilityProfile(self.n_procs, self.origin)
        copy._times = list(self._times)
        copy._free = list(self._free)
        return copy

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def claim(self, start: float, duration: float, count: int) -> None:
        """Reserve *count* processors over ``[start, start + duration)``.

        The affected run of breakpoints is rewritten with one slice
        assignment per list: at most one segment shift regardless of how
        many breakpoints the window spans, where the old
        ensure-breakpoint form paid two O(n) ``list.insert`` shifts per
        claim.  Validation is all-or-nothing -- an underflow raises
        before any breakpoint changes.

        Raises
        ------
        ProfileError
            If any part of the window lacks *count* free processors --
            callers must check with :meth:`fits`/:meth:`find_anchor`
            first; failing loudly here catches planner bugs.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if start < self.origin:
            raise ValueError(f"claim at t={start} before origin={self.origin}")
        end = start + duration
        times = self._times
        free = self._free
        i = bisect_right(times, start) - 1
        j = bisect_right(times, end, lo=i) - 1  # segment containing `end`
        # segments [i, last] lose `count`; segment j is untouched when a
        # breakpoint already sits exactly at `end`
        last = j - 1 if times[j] == end else j
        for k in range(i, last + 1):
            if free[k] < count:
                raise ProfileError(
                    f"claim of {count} procs over [{start}, {end}) underflows "
                    f"at t={times[k]} (free={free[k]})"
                )
        new_times: list[float] = []
        new_free: list[int] = []
        if times[i] < start:
            new_times.append(times[i])  # unchanged head of segment i
            new_free.append(free[i])
        new_times.append(start)
        new_free.append(free[i] - count)
        for k in range(i + 1, last + 1):
            new_times.append(times[k])
            new_free.append(free[k] - count)
        if times[j] < end:
            new_times.append(end)  # tail of segment j reverts past `end`
            new_free.append(free[j])
        times[i : last + 1] = new_times
        free[i : last + 1] = new_free

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def find_anchor(self, duration: float, count: int, earliest: float | None = None) -> float:
        """Earliest start >= *earliest* with *count* procs free for *duration*.

        This is the "anchor point" of conservative backfilling (section
        II-A-1).  Candidates are *earliest* itself and every later
        breakpoint; a window starting between breakpoints can never be
        feasible if the window starting at the previous breakpoint was
        not, because free(t) is constant between breakpoints.

        Always succeeds for ``count <= n_procs``: beyond the last
        breakpoint the profile returns to its final value, which includes
        all capacity not claimed forever.
        """
        if count > self.n_procs:
            raise ProfileError(
                f"{count} processors can never be free on a {self.n_procs}-proc machine"
            )
        start = self.origin if earliest is None else max(earliest, self.origin)
        times = self._times
        free = self._free
        n = len(times)
        # Single merged walk over the breakpoints.  Candidates are
        # visited in time order; the window minimum over the segments a
        # candidate's window covers is carried in a monotonic deque of
        # segment indices with strictly increasing free values.  Both
        # window edges only ever advance, so every segment is pushed and
        # popped at most once: O(n) total, versus the old
        # candidates-times-`fits` rescan which re-walked the window from
        # scratch for every candidate (O(n^2) on congested profiles).
        anchor_idx = bisect_right(times, start) - 1  # segment containing candidate
        push_idx = anchor_idx  # next segment to enter the window
        window: deque[int] = deque()
        candidate = start
        while True:
            window_end = candidate + duration
            while push_idx < n and times[push_idx] < window_end:
                while window and free[window[-1]] >= free[push_idx]:
                    window.pop()
                window.append(push_idx)
                push_idx += 1
            while window and window[0] < anchor_idx:
                window.popleft()
            # For any positive duration the candidate's own segment is in
            # the window, so the deque head is the window minimum.  An
            # empty deque only happens for degenerate durations <= 0,
            # where the legacy fits() degraded to a point query.
            lowest = free[window[0]] if window else free[anchor_idx]
            if lowest >= count:
                return candidate
            anchor_idx += 1
            if anchor_idx >= n:
                break
            candidate = times[anchor_idx]
        # Last resort: after every breakpoint the free count is the final
        # value; if even that is insufficient a claim was never released,
        # which is a planner bug.
        if free[-1] >= count:  # pragma: no cover - tail candidate succeeds first
            return times[-1]
        raise ProfileError(
            f"no anchor for count={count}, duration={duration}: profile tail "
            f"only has {free[-1]} free -- unterminated claim?"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        steps = ", ".join(f"{t:g}:{f}" for t, f in zip(self._times, self._free, strict=True))
        return f"AvailabilityProfile[{steps}]"
