"""The zero-copy workload plane (:mod:`repro.experiments.shm`).

Contract under test:

* the struct-of-arrays codec round-trips every static ``Job`` field
  exactly (floats are IEEE doubles -- no quantisation), and rejects
  truncated or foreign blobs instead of decoding garbage;
* publishing is memoised by workload fingerprint (N cells over one
  trace -> one segment) and deterministically unlinked on close;
* a grid over ``jobs_ref`` cells -- including pipeline-derived refs --
  is byte-identical to the same grid over inline cells and to the
  serial path, with warm-cache resume intact across the two shapes;
* the run_grid cache probe's identity memo pins the lists it keys by
  ``id()``, so a collected list can never alias a stale fingerprint.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    GridCell,
    ResultCache,
    compare_schemes,
    run_grid,
    tuned_schemes,
)
from repro.experiments.cache import fingerprint_jobs
from repro.experiments.shm import (
    JobsRef,
    SegmentIntegrityError,
    WorkloadPlane,
    decode_jobs,
    encode_jobs,
    resolve_jobs,
)
from repro.schedulers.easy import EasyBackfillScheduler
from repro.workload.job import Job
from repro.workload.pipeline import (
    LoadScaleStage,
    WorkloadPipeline,
    pipeline_from_config,
)
from repro.workload.synthetic import generate_trace

N_PROCS = 128


# ----------------------------------------------------------------------
# codec round-trip
# ----------------------------------------------------------------------
def _static_fields(j: Job):
    return (
        j.job_id,
        j.submit_time,
        j.run_time,
        j.estimate,
        j.procs,
        j.memory_mb,
        j.user,
    )


# Valid jobs only (Job.__post_init__ enforces run_time/estimate > 0 and
# submit_time >= 0); floats stress the exact-round-trip claim with
# subnormal-ish, huge and awkward values rather than friendly ones.
positive_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
job_strategy = st.builds(
    Job,
    job_id=st.integers(min_value=0, max_value=2**63 - 1),
    submit_time=st.floats(
        min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
    ),
    run_time=positive_floats,
    estimate=positive_floats,
    procs=st.integers(min_value=1, max_value=2**31),
    memory_mb=st.floats(
        min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
    ),
    user=st.integers(min_value=-1, max_value=2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(job_strategy, max_size=40))
def test_codec_round_trips_every_field(jobs):
    fp, decoded = decode_jobs(encode_jobs(jobs))
    assert fp == fingerprint_jobs(jobs)
    assert [_static_fields(j) for j in decoded] == [_static_fields(j) for j in jobs]


def test_codec_edge_values_round_trip_exactly():
    jobs = [
        Job(job_id=0, submit_time=0.0, run_time=5e-324 or 1e-300, estimate=1e-12,
            procs=1, memory_mb=0.0, user=-1),
        Job(job_id=2**63 - 1, submit_time=1.7976931348623157e308 / 2,
            run_time=0.1 + 0.2, estimate=1e16 + 1.0, procs=2**31,
            memory_mb=3.141592653589793, user=2**62),
    ]
    _, decoded = decode_jobs(encode_jobs(jobs))
    # exact equality, not approx: doubles survive the array round trip
    assert [_static_fields(j) for j in decoded] == [_static_fields(j) for j in jobs]


def test_codec_rejects_truncated_and_foreign_blobs():
    blob = encode_jobs([Job(job_id=1, submit_time=0.0, run_time=1.0,
                            estimate=1.0, procs=1)])
    with pytest.raises(SegmentIntegrityError, match="truncated"):
        decode_jobs(blob[:4])
    with pytest.raises(SegmentIntegrityError, match="magic"):
        decode_jobs(b"NOTAJOBS" + blob[8:])
    with pytest.raises(SegmentIntegrityError, match="truncated inside column"):
        decode_jobs(blob[:-8])


# ----------------------------------------------------------------------
# refs, publishing, memoisation, unlink
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace():
    return generate_trace("SDSC", n_jobs=80, seed=3)


def test_publish_is_memoised_and_ref_is_tiny(trace):
    with WorkloadPlane() as plane:
        ref1 = plane.publish(trace)
        ref2 = plane.publish(trace)  # identity memo
        ref3 = plane.publish(list(trace))  # same content, new list
        assert ref1 == ref2 == ref3
        assert plane.segments == 1
        assert ref1.n_jobs == len(trace)
        # the whole point: the dispatch payload is constant-size, a few
        # hundred bytes no matter how long the trace is
        assert len(pickle.dumps(ref1)) < 512


def test_close_unlinks_and_resolve_needs_fallback(trace):
    plane = WorkloadPlane()
    ref = plane.publish(trace)
    assert ref is not None
    resolved = resolve_jobs(ref)
    assert [j.job_id for j in resolved] == [j.job_id for j in trace]
    plane.close()
    plane.close()  # idempotent
    # segment gone from /dev/shm, memo evicted, no fallback registered
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ref.segment)
    with pytest.raises((FileNotFoundError, OSError)):
        resolve_jobs(ref)


def test_ref_promised_fingerprint_is_verified(trace):
    with WorkloadPlane() as plane:
        ref = plane.publish(trace)
        assert ref is not None
        lying = JobsRef(jobs_fp="0" * 64, segment=ref.segment, n_jobs=ref.n_jobs)
        with pytest.raises(SegmentIntegrityError, match="promised"):
            resolve_jobs(lying)


def test_pipeline_ref_resolves_to_derived_workload(trace):
    pipeline = WorkloadPipeline([LoadScaleStage(1.4)])
    with WorkloadPlane() as plane:
        base_ref = plane.publish(trace)
        derived_ref = plane.publish(trace, pipeline=pipeline)
        assert plane.segments == 1  # derived refs share the base segment
        assert derived_ref.segment == base_ref.segment
        assert derived_ref.cache_jobs_fp() != base_ref.cache_jobs_fp()
        derived = resolve_jobs(derived_ref)
        expected = pipeline.materialise(trace)
        assert [j.submit_time for j in derived] == [j.submit_time for j in expected]


def test_pipeline_config_round_trips_fingerprint(trace):
    pipeline = WorkloadPipeline([LoadScaleStage(1.6)])
    rebuilt = pipeline_from_config(pipeline.config())
    assert rebuilt.fingerprint() == pipeline.fingerprint()
    assert [j.submit_time for j in rebuilt.materialise(trace)] == [
        j.submit_time for j in pipeline.materialise(trace)
    ]


def test_cell_requires_exactly_one_workload(trace):
    cfg = EasyBackfillScheduler().config()
    with pytest.raises(ValueError, match="exactly one"):
        GridCell(key="none", n_procs=N_PROCS, scheduler_config=cfg)
    with WorkloadPlane() as plane:
        ref = plane.publish(trace)
        with pytest.raises(ValueError, match="exactly one"):
            GridCell(
                key="both",
                jobs=trace,
                jobs_ref=ref,
                n_procs=N_PROCS,
                scheduler_config=cfg,
            )


# ----------------------------------------------------------------------
# grid byte-identity: inline vs ref vs serial, warm cache across shapes
# ----------------------------------------------------------------------
def _signature(result):
    return (
        result.makespan,
        result.busy_proc_seconds,
        result.total_suspensions,
        tuple(
            (j.job_id, j.first_start_time, j.finish_time, j.suspension_count)
            for j in result.jobs
        ),
    )


def test_ss_tss_grid_identical_inline_vs_ref_vs_serial(trace):
    schemes = tuned_schemes(suspension_factors=(2.0,))
    serial = compare_schemes(trace, N_PROCS, schemes)
    inline_pool = compare_schemes(
        trace, N_PROCS, schemes, workers=2, shm=False
    )
    ref_pool = compare_schemes(trace, N_PROCS, schemes, workers=2, shm=True)
    assert list(serial) == list(inline_pool) == list(ref_pool)
    for label in serial:
        assert _signature(serial[label]) == _signature(inline_pool[label]), label
        assert _signature(serial[label]) == _signature(ref_pool[label]), label


def test_warm_cache_is_shared_between_inline_and_ref_cells(trace, tmp_path):
    """Converting a grid to refs must not split the cache namespace: a
    pipeline-less ref hashes to the inline workload hash, so a cache
    written by an inline (or serial) run resumes a ref run for free."""
    cfg = EasyBackfillScheduler().config()
    cells = [
        GridCell(key=f"c{i}", jobs=trace, n_procs=N_PROCS, scheduler_config=cfg)
        for i in range(3)
    ]
    cache = ResultCache(tmp_path / "cache")
    cold = run_grid(cells, cache=cache, shm=False)
    assert cold.executed == 3 and cold.cache_hits == 0

    warm = run_grid(cells, workers=2, cache=cache, shm=True)
    assert warm.executed == 0 and warm.cache_hits == 3
    for key in cold.results:
        assert _signature(warm.results[key]) == _signature(cold.results[key])


def test_grid_counters_report_plane_activity(trace):
    cfg = EasyBackfillScheduler().config()
    cells = [
        GridCell(key=f"c{i}", jobs=trace, n_procs=N_PROCS, scheduler_config=cfg)
        for i in range(3)
    ]
    # forced-on + serial keeps everything in-coordinator, where the
    # decode tallies are observable: one segment, one attach+decode,
    # the other two cells served from the per-process memo
    outcome = run_grid(cells, shm=True)
    assert outcome.counters.shm_segments == 1
    assert outcome.counters.shm_attaches == 1
    assert outcome.counters.shm_decodes == 1
    assert outcome.counters.shm_fallbacks == 0


def test_probe_memo_pins_jobs_lists(trace, tmp_path):
    """Satellite regression: the cache probe's identity memo must hold
    a reference to each list it fingerprints.  Transient per-cell lists
    (built in the ``cells`` expression and only reachable through the
    cells) must all land in the cache under their own fingerprints --
    an unpinned ``id()`` key could alias a recycled id to a stale
    fingerprint and serve the wrong workload's result."""
    cfg = EasyBackfillScheduler().config()
    cache = ResultCache(tmp_path / "cache")
    variants = [trace[: 40 + i] for i in range(4)]  # distinct workloads
    cells = [
        GridCell(key=f"v{i}", jobs=list(v), n_procs=N_PROCS, scheduler_config=cfg)
        for i, v in enumerate(variants)
    ]
    run_grid(cells, cache=cache)
    for i, v in enumerate(variants):
        probe = GridCell(
            key=f"probe{i}", jobs=list(v), n_procs=N_PROCS, scheduler_config=cfg
        )
        hit = run_grid([probe], cache=cache)
        assert hit.cache_hits == 1, f"variant {i} missed its own cache entry"
        assert len({j.job_id for j in hit.results[f"probe{i}"].jobs}) == len(v)
