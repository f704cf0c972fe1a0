"""Cluster machine model: allocation, release, ownership invariants.

Processor sets are bitmasks: bit ``p`` set means processor ``p``.
"""

from __future__ import annotations

import pytest

from repro.cluster.machine import AllocationError, Cluster


def test_initial_state_all_free():
    c = Cluster(16)
    assert c.free_count == 16
    assert c.busy_count == 0
    assert c.free_mask == (1 << 16) - 1


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Cluster(0)
    with pytest.raises(ValueError):
        Cluster(-3)


def test_allocate_lowest_ids_by_default():
    c = Cluster(8)
    procs = c.allocate(3, owner=1)
    assert procs == 0b111
    assert c.free_count == 5


def test_allocate_tracks_ownership():
    c = Cluster(8)
    procs = c.allocate(2, owner=42)
    assert c.owner_mask(42) == procs == 0b11
    assert c.owner_of(0) == c.owner_of(1) == 42
    assert c.owner_of(2) is None
    assert not c.is_free(0) and not c.is_free(1)


def test_allocate_more_than_free_raises():
    c = Cluster(4)
    c.allocate(3, owner=1)
    with pytest.raises(AllocationError):
        c.allocate(2, owner=2)


def test_allocate_more_than_machine_raises():
    c = Cluster(4)
    with pytest.raises(AllocationError, match="machine size"):
        c.allocate(5, owner=1)


def test_allocate_nonpositive_raises():
    c = Cluster(4)
    with pytest.raises(AllocationError):
        c.allocate(0, owner=1)


def test_release_returns_processors():
    c = Cluster(8)
    procs = c.allocate(4, owner=1)
    c.release(procs, owner=1)
    assert c.free_count == 8
    assert c.owner_mask(1) == 0
    assert c.free_mask == 0xFF


def test_release_wrong_owner_raises():
    c = Cluster(8)
    procs = c.allocate(2, owner=1)
    with pytest.raises(AllocationError, match="owned by"):
        c.release(procs, owner=2)


def test_release_partial_ownership_leaves_state_untouched():
    """All-or-nothing release: a request mixing owned and foreign
    processors must fail *before* any state changes, not after freeing
    the owned half (regression test for the single-pass rewrite)."""
    c = Cluster(8)
    mine = c.allocate_mask(0b0011, owner=1)
    c.allocate_mask(0b1100, owner=2)
    with pytest.raises(AllocationError, match="owned by 2"):
        c.release(0b0110, owner=1)  # proc 1 is owner 1's, proc 2 is not
    # nothing moved: both allocations intact, free pool unchanged
    assert c.free_count == 4
    assert c.owner_mask(1) == 0b0011
    assert c.owner_mask(2) == 0b1100
    c.check_invariants()
    # the legitimate release still works afterwards
    c.release(mine, owner=1)
    assert c.free_count == 6


def test_release_mix_with_free_processor_leaves_state_untouched():
    c = Cluster(8)
    c.allocate_mask(0b11, owner=1)
    with pytest.raises(AllocationError, match="owned by None"):
        c.release(0b100010, owner=1)  # proc 5 is free
    assert c.free_count == 6
    assert c.owner_mask(1) == 0b11
    c.check_invariants()


def test_release_empty_request_is_noop():
    """Only an owner holding nothing may release the empty mask; an
    owner that holds processors must return all of them (see
    ``test_release_must_return_the_whole_holding``)."""
    c = Cluster(8)
    c.allocate(2, owner=1)
    c.release(0, owner=2)
    assert c.free_count == 6
    c.check_invariants()


def test_release_must_return_the_whole_holding():
    """Releases are exact: a subset of an owner's holding -- the empty
    mask included -- is refused and changes nothing, so a stale record
    of what a job holds fails at the release."""
    c = Cluster(8)
    held = c.allocate(4, owner=1)
    for partial in (0b0001, 0b0110, 0):
        with pytest.raises(AllocationError, match="releases .* of the 4"):
            c.release(partial, owner=1)
        assert c.owner_mask(1) == held == 0b1111
        assert c.free_count == 4
        c.check_invariants()
    c.release(held, owner=1)
    assert c.free_count == 8


def test_double_release_raises():
    c = Cluster(8)
    procs = c.allocate(2, owner=1)
    c.release(procs, owner=1)
    with pytest.raises(AllocationError):
        c.release(procs, owner=1)


def test_release_free_processor_raises():
    c = Cluster(8)
    with pytest.raises(AllocationError):
        c.release(0b1, owner=1)


def test_allocate_specific_exact_set():
    c = Cluster(8)
    procs = c.allocate_mask(0b10100100, owner=9)  # processors 2, 5, 7
    assert procs == 0b10100100
    assert c.owner_mask(9) == procs
    assert c.owner_of(5) == 9


def test_allocate_specific_busy_raises():
    c = Cluster(8)
    c.allocate_mask(0b100, owner=1)
    with pytest.raises(AllocationError, match=r"\[2\] not free"):
        c.allocate_mask(0b1100, owner=2)
    assert c.owner_mask(2) == 0
    c.check_invariants()


def test_allocate_specific_empty_raises():
    c = Cluster(8)
    with pytest.raises(AllocationError):
        c.allocate_mask(0, owner=1)


def test_can_allocate_counts():
    c = Cluster(4)
    assert c.can_allocate(4)
    c.allocate(3, owner=1)
    assert c.can_allocate(1)
    assert not c.can_allocate(2)


def test_can_allocate_specific():
    c = Cluster(4)
    c.allocate_mask(0b1, owner=1)
    assert c.can_allocate_mask(0b110)
    assert not c.can_allocate_mask(0b11)


def test_interleaved_allocate_release_consistency():
    c = Cluster(10)
    a = c.allocate(4, owner=1)
    b = c.allocate(3, owner=2)
    c.release(a, owner=1)
    d = c.allocate(5, owner=3)
    assert c.free_count == 10 - 3 - 5
    assert not (b & d)
    c.check_invariants()


def test_check_invariants_clean():
    c = Cluster(8)
    c.allocate(3, owner=1)
    c.check_invariants()


def test_allocation_fills_released_holes():
    c = Cluster(6)
    a = c.allocate(2, owner=1)  # {0,1}
    c.allocate(2, owner=2)  # {2,3}
    c.release(a, owner=1)
    new = c.allocate(3, owner=3)
    assert new == 0b10011


# ----------------------------------------------------------------------
# lowest-id-first allocation
# ----------------------------------------------------------------------
def _cluster_with_free(n_procs: int, free: set[int]) -> Cluster:
    c = Cluster(n_procs)
    c.allocate_mask(((1 << n_procs) - 1) & ~sum(1 << p for p in free), owner=99)
    return c


def test_lowest_id_policy_deterministic():
    c = _cluster_with_free(8, {5, 1, 3, 2})
    assert c.allocate(2, owner=1) == 0b110  # processors 1 and 2


def test_lowest_id_select_mask_matches_select():
    """The mask pick equals the sorted-id reference, across words."""
    free = {5, 1, 3, 2, 30, 31, 64, 65}
    c = _cluster_with_free(70, free)
    assert c.allocate(6, owner=1) == sum(1 << q for q in sorted(free)[:6])
    c.check_invariants()


# ----------------------------------------------------------------------
# bitmask-specific surface
# ----------------------------------------------------------------------
def test_free_mask_and_owner_mask_track_allocations():
    c = Cluster(8)
    c.allocate_mask(0b101, owner=1)
    assert c.owner_mask(1) == 0b101
    assert c.owner_mask(99) == 0
    assert c.free_mask == 0b11111111 & ~0b101
    assert c.can_allocate_mask(0b1010)
    assert not c.can_allocate_mask(0b0001)


def test_allocate_mask_round_trip():
    c = Cluster(8)
    got = c.allocate_mask(0b1100, owner=3)
    assert got == 0b1100
    c.release(got, owner=3)
    assert c.free_count == 8


def test_owners_in_mask_dedupes_by_first_held_processor():
    c = Cluster(16)
    c.allocate_mask(0b1100001, owner=10)  # processors 0, 5, 6
    c.allocate_mask(0b110, owner=20)  # processors 1, 2
    # owner 10 appears once even though it holds three matching procs;
    # order follows each owner's first processor inside the query mask
    query = sum(1 << p for p in (1, 2, 5, 6, 0, 9))
    assert c.owners_in_mask(query) == (10, 20)
    assert c.owners_in_mask(1 << 9) == ()
    assert c.owners_in_mask(sum(1 << p for p in (2, 5))) == (20, 10)
