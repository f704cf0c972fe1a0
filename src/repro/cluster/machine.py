"""The cluster: a fixed pool of identified processors.

:class:`Cluster` tracks which processor ids are free and which are held
by which owner (a job id).  It enforces the two hard invariants of the
machine model:

* a processor is owned by at most one job at a time;
* releases return exactly the processors that were allocated.

Processor identity matters because restart is *local* (same-processors)
in the paper's model; see :mod:`repro.cluster` for context.

Every processor set is an integer bitmask (bit ``p`` set = processor
``p`` in the set; helpers in :mod:`repro.cluster.bitset`): the free
pool, one mask per owner, and the masks :meth:`Cluster.allocate` returns
and :meth:`Cluster.release` takes back.  Set algebra is then
word-parallel big-int arithmetic: ``can_allocate_mask`` is one AND,
``allocate``/``release`` are a handful of bitops, and a release is
checked against the owner's whole holding with one comparison.  There
is no per-processor owner array: :meth:`Cluster.owners_in_mask` scans
the owner masks, O(running jobs), and :meth:`Cluster.owner_of` is one
such scan.  For the
machine sizes in the paper (100-430 processors) every mask fits in a few
machine words, so these operations cost O(n_procs / 64) instead of
per-processor set/dict churn.
"""

from __future__ import annotations

from repro.cluster.bitset import lowest_bits, mask_to_ids


class AllocationError(RuntimeError):
    """Raised on an impossible allocation or an inconsistent release."""


class Cluster:
    """A machine with ``n_procs`` identical, individually tracked processors.

    Parameters
    ----------
    n_procs:
        Total number of processors (e.g. 430 for the CTC SP2, 128 for the
        SDSC SP2, 100 for the KTH SP2).

    :meth:`allocate` gives a fresh job the lowest-numbered free
    processors: deterministic, compact, and how most production
    schedulers of the era packed nodes.
    """

    def __init__(self, n_procs: int) -> None:
        if n_procs <= 0:
            raise ValueError(f"cluster needs at least one processor, got {n_procs}")
        self.n_procs = int(n_procs)
        #: all-ones mask over the machine's processor ids
        self._full_mask: int = (1 << self.n_procs) - 1
        self._free_mask: int = self._full_mask
        #: owner job id -> mask of processors it holds (never zero)
        self._owner_masks: dict[int, int] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Number of currently free processors."""
        return self._free_mask.bit_count()

    @property
    def busy_count(self) -> int:
        """Number of currently allocated processors."""
        return self.n_procs - self._free_mask.bit_count()

    @property
    def free_mask(self) -> int:
        """Bitmask of free processor ids (bit ``p`` set = proc ``p`` free)."""
        return self._free_mask

    def is_free(self, proc: int) -> bool:
        """Whether processor *proc* is currently free."""
        return bool(self._free_mask >> proc & 1)

    def owner_of(self, proc: int) -> int | None:
        """Job id holding *proc*, or ``None`` if it is free.

        One :meth:`owners_in_mask` scan, O(running jobs).
        """
        if not 0 <= proc < self.n_procs:
            return None
        return next(iter(self.owners_in_mask(1 << proc)), None)

    def owner_mask(self, owner: int) -> int:
        """Bitmask of processors held by job *owner* (0 if none)."""
        return self._owner_masks.get(owner, 0)

    def owners_in_mask(self, mask: int) -> tuple[int, ...]:
        """Distinct job ids holding processors in *mask*.

        In ascending order of the first processor each owner holds
        within *mask* -- deterministic by construction, so decision
        paths may iterate the result directly.  One pass over the owner
        masks: O(running jobs), whatever *mask* covers.
        """
        hits: list[tuple[int, int]] = []
        # repro-lint: disable=RPR001 -- int-keyed, insertion-ordered dict; hits are sorted by lowest processor, so dict order never reaches the result
        for owner, held in self._owner_masks.items():
            overlap = held & mask
            if overlap:
                hits.append((overlap & -overlap, owner))
        hits.sort()
        return tuple([owner for _, owner in hits])

    def can_allocate(self, count: int) -> bool:
        """Whether *count* free processors exist right now."""
        return count <= self._free_mask.bit_count()

    def can_allocate_mask(self, mask: int) -> bool:
        """Whether every processor in *mask* is currently free."""
        return not (mask & ~self._free_mask)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def allocate(self, count: int, owner: int) -> int:
        """Allocate the *count* lowest-numbered free processors to job
        *owner*; returns their mask.

        Raises
        ------
        AllocationError
            If fewer than *count* processors are free, or *count* exceeds
            the machine size (such a job can never run).
        """
        if count <= 0:
            raise AllocationError(f"job {owner}: nonpositive request {count}")
        if count > self.n_procs:
            raise AllocationError(
                f"job {owner}: requests {count} > machine size {self.n_procs}"
            )
        free = self._free_mask.bit_count()
        if count > free:
            raise AllocationError(
                f"job {owner}: requests {count}, only {free} free"
            )
        return self._claim_mask(lowest_bits(self._free_mask, count), owner)

    def allocate_mask(self, mask: int, owner: int) -> int:
        """Allocate exactly the processors in *mask* to job *owner*.

        Used for explicit placement and for the same-processors restart
        of a suspended job; returns *mask*.
        """
        if not mask:
            raise AllocationError(f"job {owner}: empty specific allocation")
        missing = mask & ~self._free_mask
        if missing:
            raise AllocationError(
                f"job {owner}: processors {list(mask_to_ids(missing)[:8])} not free"
            )
        return self._claim_mask(mask, owner)

    def _claim_mask(self, mask: int, owner: int) -> int:
        self._owner_masks[owner] = self._owner_masks.get(owner, 0) | mask
        self._free_mask &= ~mask
        return mask

    def release(self, mask: int, owner: int) -> None:
        """Return *mask*, the whole holding of *owner*, to the free pool.

        Exact: *mask* must equal :meth:`owner_mask` of *owner*, so a
        caller's record of what a job holds is checked against the
        cluster's on every release.  Checked before any state changes,
        so a mismatch leaves the cluster untouched.  An owner holding
        nothing may release the empty mask (a no-op).

        Raises
        ------
        AllocationError
            If *mask* names a processor *owner* does not hold, or leaves
            out one it does -- this catches double-release,
            ownership-confusion and stale-record bugs at the point of the
            mistake instead of corrupting the free pool.
        """
        owned = self._owner_masks.get(owner, 0)
        if mask != owned:
            bad = mask & ~owned
            if bad:
                p = (bad & -bad).bit_length() - 1
                raise AllocationError(
                    f"release of processor {p} by job {owner}, "
                    f"but it is owned by {self.owner_of(p)!r}"
                )
            raise AllocationError(
                f"job {owner} releases {mask.bit_count()} of the "
                f"{owned.bit_count()} processors it holds"
            )
        if mask:
            del self._owner_masks[owner]
            self._free_mask |= mask

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests and debug runs."""
        owned_mask = 0
        for owner, mask in sorted(self._owner_masks.items()):
            if not mask:
                raise AllocationError(f"job {owner} holds an empty mask")
            if owned_mask & mask:
                raise AllocationError("processor owned by two jobs")
            owned_mask |= mask
        if owned_mask & self._free_mask:
            raise AllocationError("processor both free and owned")
        if (owned_mask | self._free_mask) != self._full_mask:
            raise AllocationError("processor lost from the pool")
        if (owned_mask | self._free_mask) & ~self._full_mask:
            raise AllocationError("processor id out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n_procs={self.n_procs}, free={self.free_count}, "
            f"busy={self.busy_count})"
        )
