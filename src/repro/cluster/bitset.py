"""Integer-bitmask helpers for processor sets.

The simulator represents every processor set as a Python big integer,
from allocation through the job record to release: bit ``p`` set means
processor ``p`` is a member.  Set algebra becomes word-parallel machine
arithmetic (``&``, ``|``, ``~`` masked to machine width), membership is
a shift, and cardinality is :meth:`int.bit_count` -- all
O(n_procs / 64) instead of per-processor dict/set churn.  Processor ids
are materialised (:func:`mask_to_ids`) only where a trace record or
an error message is written.

Iteration order over a bitmask is *ascending processor id by
construction*: :func:`iter_bits` repeatedly extracts the lowest set bit
(``mask & -mask``), so every consumer observes the same deterministic
order regardless of hash seeds.  This is why the repro-lint RPR001 rule
treats :func:`iter_bits` / :func:`mask_to_ids` as order-safe producers
(see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_from_ids(ids: Iterable[int]) -> int:
    """Bitmask with exactly the bits in *ids* set."""
    mask = 0
    for p in ids:
        mask |= 1 << p
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit indices of *mask* in ascending order.

    Deterministic by construction: each step peels the lowest set bit
    via ``mask & -mask``, so the order is the numeric order of the ids.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_ids(mask: int) -> tuple[int, ...]:
    """The set-bit indices of *mask* as an ascending tuple."""
    return tuple(iter_bits(mask))


def take_lowest(mask: int, count: int) -> int:
    """Submask of up to *count* lowest set bits of *mask*.

    Like :func:`lowest_bits` but tolerant of a short *mask* -- the
    bitmask analogue of ``sorted(ids)[:count]``.  Each step takes one
    whole run of consecutive ones (adding the lowest bit carries
    through the run, so ``mask & ~(mask + low)`` is exactly that run),
    cut to the bits still wanted, so a compact allocation costs a few
    bitops rather than one per processor.
    """
    out = 0
    while count > 0 and mask:
        low = mask & -mask
        run = mask & ~(mask + low)
        width = run.bit_count()
        if width > count:
            run &= (low << count) - 1
            width = count
        out |= run
        mask ^= run
        count -= width
    return out


def lowest_bits(mask: int, count: int) -> int:
    """Submask of the *count* lowest set bits of *mask*.

    Raises :class:`ValueError` if *mask* has fewer than *count* bits;
    callers are expected to have checked capacity already.
    """
    if mask.bit_count() < count:
        raise ValueError(f"mask has fewer than {count} set bits")
    return take_lowest(mask, count)
