"""The cluster: a fixed pool of identified processors.

:class:`Cluster` tracks which processor ids are free and which are held
by which owner (a job id).  It enforces the two hard invariants of the
machine model:

* a processor is owned by at most one job at a time;
* releases return exactly the processors that were allocated.

Processor identity matters because restart is *local* (same-processors)
in the paper's model; see :mod:`repro.cluster` for context.

The free pool is kept as an integer bitmask (bit ``p`` set = processor
``p`` free), with a per-owner bitmask and a proc->owner array alongside.
Set algebra on processor sets is then word-parallel big-int arithmetic:
``can_allocate_mask`` is one AND, ``allocate``/``release`` are a
handful of bitops, and ``owners_in_mask`` steps one owner (not one
processor) per bitop.  For the
machine sizes in the paper (100-430 processors) every mask fits in a few
machine words, so these operations cost O(n_procs / 64) instead of
per-processor set/dict churn.  :meth:`free_set` materialises a frozenset
lazily (and caches it until the next mutation) for legacy callers that
still want one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cluster.bitset import iter_bits, mask_from_ids, mask_to_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.allocation import AllocationPolicy


class AllocationError(RuntimeError):
    """Raised on an impossible allocation or an inconsistent release."""


class Cluster:
    """A machine with ``n_procs`` identical, individually tracked processors.

    Parameters
    ----------
    n_procs:
        Total number of processors (e.g. 430 for the CTC SP2, 128 for the
        SDSC SP2, 100 for the KTH SP2).
    policy:
        Allocation policy used by :meth:`allocate`; defaults to
        lowest-id-first, which is deterministic and matches how most
        production schedulers of the era packed nodes.
    """

    def __init__(self, n_procs: int, policy: "AllocationPolicy | None" = None) -> None:
        if n_procs <= 0:
            raise ValueError(f"cluster needs at least one processor, got {n_procs}")
        from repro.cluster.allocation import LowestIdFirst

        self.n_procs = int(n_procs)
        #: all-ones mask over the machine's processor ids
        self._full_mask: int = (1 << self.n_procs) - 1
        self._free_mask: int = self._full_mask
        #: owner job id -> mask of processors it holds (never zero)
        self._owner_masks: dict[int, int] = {}
        #: proc id -> owning job id, or None when free
        self._proc_owner: list[int | None] = [None] * self.n_procs
        #: lazily materialised snapshot for free_set(); None = stale
        self._free_cache: frozenset[int] | None = None
        self.policy: "AllocationPolicy" = policy or LowestIdFirst()

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

    def free_set(self) -> frozenset[int]:
        """Snapshot of the free processor ids (lazily materialised, cached)."""
        if self._free_cache is None:
            self._free_cache = frozenset(iter_bits(self._free_mask))
        return self._free_cache

    def is_free(self, proc: int) -> bool:
        """Whether processor *proc* is currently free."""
        return bool(self._free_mask >> proc & 1)

    def owner_of(self, proc: int) -> int | None:
        """Job id holding *proc*, or ``None`` if it is free."""
        if 0 <= proc < self.n_procs:
            return self._proc_owner[proc]
        return None

    def owner_mask(self, owner: int) -> int:
        """Bitmask of processors held by job *owner* (0 if none)."""
        return self._owner_masks.get(owner, 0)

    def owners_in_mask(self, mask: int) -> tuple[int, ...]:
        """Distinct job ids holding processors in *mask*.

        Deduplicated in ascending order of the first processor each owner
        holds within *mask* -- deterministic by construction, so decision
        paths may iterate the result directly.
        """
        busy = mask & self._full_mask & ~self._free_mask
        owners: list[int] = []
        while busy:
            p = (busy & -busy).bit_length() - 1
            owner = self._proc_owner[p]
            if owner is None:  # pragma: no cover - busy bit always owned
                busy &= busy - 1
                continue
            owners.append(owner)
            # skip the owner's remaining processors in one bitop: the
            # walk advances per *owner*, not per processor
            busy &= ~self._owner_masks[owner]
        return tuple(owners)

    def can_allocate(self, count: int) -> bool:
        """Whether *count* free processors exist right now."""
        return count <= self._free_mask.bit_count()

    def can_allocate_specific(self, procs: Iterable[int]) -> bool:
        """Whether every processor in *procs* is currently free."""
        return self.can_allocate_mask(mask_from_ids(procs))

    def can_allocate_mask(self, mask: int) -> bool:
        """Whether every processor in *mask* is currently free."""
        return not (mask & ~self._free_mask)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def allocate(self, count: int, owner: int) -> frozenset[int]:
        """Allocate *count* free processors to job *owner*.

        The concrete processors are chosen by the cluster's policy.

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
        chosen = self.policy.select_mask(self._free_mask, count)
        if chosen.bit_count() != count:
            raise AllocationError(
                f"policy {type(self.policy).__name__} returned {chosen.bit_count()} "
                f"processors for a request of {count}"
            )
        if chosen & ~self._free_mask:
            raise AllocationError(
                f"policy {type(self.policy).__name__} selected processors "
                f"outside the free pool"
            )
        return self._claim_mask(chosen, owner)

    def allocate_specific(self, procs: Iterable[int], owner: int) -> frozenset[int]:
        """Allocate exactly the processors *procs* to job *owner*.

        Used for same-processors restart of a suspended job.
        """
        return self.allocate_mask(mask_from_ids(procs), owner)

    def allocate_mask(self, mask: int, owner: int) -> frozenset[int]:
        """Allocate exactly the processors in *mask* to job *owner*."""
        if not mask:
            raise AllocationError(f"job {owner}: empty specific allocation")
        missing = mask & ~self._free_mask
        if missing:
            raise AllocationError(
                f"job {owner}: processors {list(mask_to_ids(missing)[:8])} not free"
            )
        return self._claim_mask(mask, owner)

    def _claim_mask(self, mask: int, owner: int) -> frozenset[int]:
        ids = mask_to_ids(mask)  # ascending by construction
        for p in ids:
            self._proc_owner[p] = owner
        self._owner_masks[owner] = self._owner_masks.get(owner, 0) | mask
        self._free_mask &= ~mask
        self._free_cache = None
        return frozenset(ids)

    def release(self, procs: Iterable[int], owner: int) -> None:
        """Return *procs*, previously allocated to *owner*, to the free pool.

        All-or-nothing: ownership of the *whole* request is checked with a
        single mask comparison before any state changes, so a partial
        mismatch leaves the cluster untouched.

        Raises
        ------
        AllocationError
            If any processor is not currently owned by *owner* -- this
            catches double-release and ownership-confusion bugs at the
            point of the mistake instead of corrupting the free pool.
        """
        mask = mask_from_ids(procs)
        if not mask:
            return
        owned = self._owner_masks.get(owner, 0)
        bad = mask & ~owned
        if bad:
            p = (bad & -bad).bit_length() - 1
            actual = self._proc_owner[p] if 0 <= p < self.n_procs else None
            raise AllocationError(
                f"release of processor {p} by job {owner}, "
                f"but it is owned by {actual!r}"
            )
        remaining = owned & ~mask
        if remaining:
            self._owner_masks[owner] = remaining
        else:
            del self._owner_masks[owner]
        for p in iter_bits(mask):
            self._proc_owner[p] = None
        self._free_mask |= mask
        self._free_cache = None

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
        for p in range(self.n_procs):
            owner = self._proc_owner[p]
            if owner is not None and not (self._owner_masks.get(owner, 0) >> p & 1):
                raise AllocationError(f"proc {p} owner array disagrees with masks")
            if owner is None and not (self._free_mask >> p & 1):
                raise AllocationError(f"proc {p} busy but has no owner")
            if owner is not None and (self._free_mask >> p & 1):
                raise AllocationError(f"proc {p} free but has an owner")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n_procs={self.n_procs}, free={self.free_count}, "
            f"busy={self.busy_count})"
        )
