"""Lazy workload pipeline: stage semantics, determinism, fingerprints."""

from __future__ import annotations

import pytest

from repro.workload.estimates import (
    AccurateEstimates,
    InaccurateEstimates,
    PerfectWithNoise,
)
from repro.workload.load import scale_load
from repro.workload.pipeline import (
    EstimateStage,
    LoadScaleStage,
    WorkloadPipeline,
    open_workload,
)
from repro.workload.swf import write_synthetic_swf
from repro.workload.synthetic import generate_trace


@pytest.fixture(scope="module")
def base_jobs():
    return generate_trace("SDSC", n_jobs=300, seed=11)


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def test_load_scale_matches_eager(base_jobs):
    streamed = list(LoadScaleStage(1.3).apply(iter(base_jobs)))
    eager = scale_load(base_jobs, 1.3)
    assert [j.submit_time for j in streamed] == [j.submit_time for j in eager]
    assert [j.run_time for j in streamed] == [j.run_time for j in eager]


def test_load_scale_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        LoadScaleStage(0.0)


def test_load_scale_does_not_mutate_input(base_jobs):
    before = [j.submit_time for j in base_jobs]
    list(LoadScaleStage(2.0).apply(iter(base_jobs)))
    assert [j.submit_time for j in base_jobs] == before


def test_estimate_stage_batching_invariance(base_jobs):
    """Job i's estimate must not depend on how the stream is batched."""
    stage = EstimateStage(InaccurateEstimates(), seed=7, chunk_size=64)

    whole = [j.estimate for j in stage.apply(iter(base_jobs))]

    def two_halves():
        yield from base_jobs[:100]
        yield from base_jobs[100:]

    split = [j.estimate for j in stage.apply(two_halves())]
    assert whole == split


def test_estimate_stage_chunk_size_changes_draws(base_jobs):
    a = [
        j.estimate
        for j in EstimateStage(InaccurateEstimates(), seed=7, chunk_size=64).apply(
            iter(base_jobs)
        )
    ]
    b = [
        j.estimate
        for j in EstimateStage(InaccurateEstimates(), seed=7, chunk_size=65).apply(
            iter(base_jobs)
        )
    ]
    assert a != b  # chunk_size is part of the contract, hence the config


def test_estimate_stage_rejects_bad_chunk():
    with pytest.raises(ValueError, match="chunk_size"):
        EstimateStage(AccurateEstimates(), seed=1, chunk_size=0)


def test_estimate_stage_estimates_clamped_positive(base_jobs):
    out = EstimateStage(PerfectWithNoise(noise=0.9), seed=3).apply(iter(base_jobs))
    assert all(j.estimate >= 1.0 for j in out)


# ----------------------------------------------------------------------
# pipeline composition
# ----------------------------------------------------------------------
def test_pipeline_streaming_equals_materialise(base_jobs):
    pipe = WorkloadPipeline(
        [LoadScaleStage(1.2), EstimateStage(InaccurateEstimates(), seed=5)]
    )
    streamed = list(pipe.jobs(iter(base_jobs)))
    eager = pipe.materialise(iter(base_jobs))
    assert [(j.job_id, j.submit_time, j.estimate) for j in streamed] == [
        (j.job_id, j.submit_time, j.estimate) for j in eager
    ]


def test_identity_pipeline_passes_through(base_jobs):
    assert list(WorkloadPipeline().jobs(iter(base_jobs))) == list(base_jobs)
    assert WorkloadPipeline().describe() == "identity pipeline (no stages)"


def test_fingerprint_distinguishes_configs():
    fps = {
        WorkloadPipeline().fingerprint(),
        WorkloadPipeline([LoadScaleStage(1.2)]).fingerprint(),
        WorkloadPipeline([LoadScaleStage(1.3)]).fingerprint(),
        WorkloadPipeline([EstimateStage(InaccurateEstimates(), seed=5)]).fingerprint(),
        WorkloadPipeline(
            [EstimateStage(InaccurateEstimates(), seed=6)]
        ).fingerprint(),
        WorkloadPipeline(
            [EstimateStage(InaccurateEstimates(), seed=5, chunk_size=128)]
        ).fingerprint(),
        WorkloadPipeline(
            [EstimateStage(PerfectWithNoise(noise=0.3), seed=5)]
        ).fingerprint(),
    }
    assert len(fps) == 7


def test_fingerprint_is_stable():
    pipe = WorkloadPipeline([LoadScaleStage(1.3)])
    again = WorkloadPipeline([LoadScaleStage(1.3)])
    assert pipe.fingerprint() == again.fingerprint()


def test_config_is_json_stable():
    import json

    pipe = WorkloadPipeline(
        [LoadScaleStage(1.3), EstimateStage(InaccurateEstimates(), seed=5)]
    )
    payload = json.dumps(pipe.config(), sort_keys=True)
    assert json.loads(payload) == pipe.config()


# ----------------------------------------------------------------------
# open_workload
# ----------------------------------------------------------------------
def test_open_workload_streams_with_header_procs(tmp_path):
    path = tmp_path / "log.swf"
    write_synthetic_swf(path, n_jobs=150, n_procs=128)
    jobs = list(open_workload(path))
    assert len(jobs) == 150
    assert max(j.procs for j in jobs) <= 128
    assert jobs[0].submit_time == 0.0  # rebased


def test_open_workload_applies_pipeline(tmp_path):
    path = tmp_path / "log.swf"
    write_synthetic_swf(path, n_jobs=100)
    plain = list(open_workload(path))
    scaled = list(open_workload(path, WorkloadPipeline([LoadScaleStage(2.0)])))
    assert [j.submit_time for j in scaled] == [j.submit_time / 2.0 for j in plain]


@pytest.mark.parametrize("max_procs", [0, -4])
def test_open_workload_rejects_a_machine_without_processors(tmp_path, max_procs):
    path = tmp_path / "log.swf"
    write_synthetic_swf(path, n_jobs=5)
    with pytest.raises(ValueError, match="max_procs"):
        open_workload(path, max_procs=max_procs)


def test_open_workload_rejects_bad_policy(tmp_path):
    path = tmp_path / "log.swf"
    write_synthetic_swf(path, n_jobs=5)
    with pytest.raises(ValueError, match="on_malformed"):
        open_workload(path, on_malformed="explode")
