"""Processor allocation policies.

A policy chooses *which* free processors a fresh job receives.  In the
paper's model this choice is irrelevant for non-preemptive schedulers
(processors are interchangeable), but it matters under local preemption:
a suspended job can only resume on its original processors, so the shape
of earlier allocations determines which running jobs block a resume.

``LowestIdFirst`` is the default and the one used in all paper-replication
experiments; the other policies exist for ablations on allocation
sensitivity.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable

from repro.cluster.bitset import lowest_bits, mask_from_ids, mask_to_ids


class AllocationPolicy(ABC):
    """Strategy interface: pick ``count`` processors from the free pool."""

    @abstractmethod
    def select(self, free: Iterable[int], count: int) -> frozenset[int]:
        """Return exactly *count* processor ids drawn from *free*.

        Implementations must be pure with respect to the free pool: they
        select ids but never mutate cluster state.
        """

    def select_mask(self, free_mask: int, count: int) -> int:
        """Mask-level entry point used by the bitmask :class:`Cluster`.

        The default adapts :meth:`select`: the free pool is handed over
        as an ascending id tuple (exactly what ``sorted(free)`` used to
        produce), so legacy policies keep byte-identical decisions.
        Hot-path policies override this to stay in mask space.
        """
        return mask_from_ids(self.select(mask_to_ids(free_mask), count))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LowestIdFirst(AllocationPolicy):
    """Deterministically pick the lowest-numbered free processors.

    This packs jobs toward low ids, which keeps allocations compact and
    reproducible -- the default for every experiment in the reproduction.
    """

    def select(self, free: Iterable[int], count: int) -> frozenset[int]:
        return frozenset(sorted(free)[:count])

    def select_mask(self, free_mask: int, count: int) -> int:
        # lowest-id-first == lowest set bits, taken one run of
        # consecutive ones per step: no sort, identical choice to
        # sorted(free)[:count]
        return lowest_bits(free_mask, count)


class RandomAllocation(AllocationPolicy):
    """Pick uniformly random free processors (seeded).

    Used only in ablation studies: random placement scatters jobs across
    the machine, which increases the chance that a suspended job's resume
    set overlaps many distinct running jobs.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, free: Iterable[int], count: int) -> frozenset[int]:
        pool = sorted(free)
        return frozenset(self._rng.sample(pool, count))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seeded)"


class ContiguousBestFit(AllocationPolicy):
    """Prefer the smallest contiguous run of free ids that fits the job.

    Approximates buddy/contiguous node allocation on machines where
    locality matters.  Falls back to lowest-id-first when no single run is
    large enough (the job then spans fragments, as real schedulers do).
    """

    def select(self, free: Iterable[int], count: int) -> frozenset[int]:
        ids = sorted(free)
        runs: list[tuple[int, int]] = []  # (start index, length)
        i = 0
        while i < len(ids):
            j = i
            while j + 1 < len(ids) and ids[j + 1] == ids[j] + 1:
                j += 1
            runs.append((i, j - i + 1))
            i = j + 1
        fitting = [(length, start) for start, length in runs if length >= count]
        if fitting:
            length, start = min(fitting)
            return frozenset(ids[start : start + count])
        return frozenset(ids[:count])
