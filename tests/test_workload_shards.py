"""Time-windowed workload sharding and the sharded-replay equivalence.

The load-bearing guarantee (relied on by ``repro-sched workload
replay`` and docs/WORKLOADS.md): replaying a long log in shards through
the crash-safe grid executor -- any batch size, any worker count, warm
or cold cache -- produces **byte-identical** results to an eager
in-memory replay of the same shards, witnessed by per-category metrics
and the outcome fingerprint.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    WorkloadShard,
    iter_time_shards,
    outcome_fingerprint,
    replay_sharded,
    shard_cell,
    simulate_cell,
)
from repro.metrics.aggregate import per_category_stats
from repro.schedulers import EasyBackfillScheduler
from repro.workload.job import Job
from repro.workload.synthetic import generate_trace

N_PROCS = 128
WINDOW = 6 * 3600.0


def _job(job_id: int, submit: float) -> Job:
    return Job(job_id=job_id, submit_time=submit, run_time=100.0,
               estimate=200.0, procs=4)


@pytest.fixture(scope="module")
def trace():
    return generate_trace("SDSC", n_jobs=500, seed=42)


@pytest.fixture(scope="module")
def config():
    return EasyBackfillScheduler().config()


# ----------------------------------------------------------------------
# iter_time_shards
# ----------------------------------------------------------------------
def test_shard_boundaries_are_absolute():
    jobs = [_job(1, 100.0), _job(2, 7300.0), _job(3, 7400.0)]
    shards = list(iter_time_shards(jobs, window=3600.0))
    assert [(s.start, s.end) for s in shards] == [(0.0, 3600.0), (7200.0, 10800.0)]
    assert [len(s.jobs) for s in shards] == [1, 2]
    assert [s.index for s in shards] == [0, 1]


def test_shards_preserve_every_job(trace):
    shards = list(iter_time_shards(iter(trace), WINDOW))
    flattened = [j for s in shards for j in s.jobs]
    assert flattened == list(trace)


def test_shard_split_is_independent_of_batching(trace):
    """Boundaries depend only on (jobs, window) -- streaming vs list."""
    a = [(s.start, s.end, len(s.jobs)) for s in iter_time_shards(trace, WINDOW)]
    b = [(s.start, s.end, len(s.jobs)) for s in iter_time_shards(iter(trace), WINDOW)]
    assert a == b


def test_trailing_dribble_still_emitted():
    """The last window's jobs become a shard when the stream ends."""
    jobs = [_job(1, 100.0), _job(2, 7300.0)]
    shards = list(iter_time_shards(jobs, window=3600.0))
    assert [(s.start, s.end, s.jobs) for s in shards] == [
        (0.0, 3600.0, (jobs[0],)), (7200.0, 10800.0, (jobs[1],))
    ]


def test_unsorted_stream_raises():
    jobs = [_job(1, 5000.0), _job(2, 100.0)]
    with pytest.raises(ValueError, match="submit-sorted"):
        list(iter_time_shards(jobs, window=3600.0))


def test_bad_parameters_raise():
    with pytest.raises(ValueError, match="window"):
        list(iter_time_shards([], window=0.0))
    for window in (float("nan"), float("inf")):  # NaN passed `window <= 0`
        with pytest.raises(ValueError, match="window"):
            list(iter_time_shards([_job(1, 5000.0)], window=window))


def test_replay_rejects_malformed_config_before_any_shard(trace):
    with pytest.raises(ValueError, match="'suspension_factr'"):
        replay_sharded(
            iter(trace), N_PROCS, {"scheme": "ss", "suspension_factr": 5.0}, window=WINDOW
        )


def test_shard_key_is_stable():
    shard = WorkloadShard(index=3, start=0.0, end=3600.0, jobs=())
    assert shard.key == "shard00003@[0,3600)"


# ----------------------------------------------------------------------
# provenance-tagged cells
# ----------------------------------------------------------------------
def test_shard_cells_with_different_provenance_never_collide(trace, config):
    shard = next(iter_time_shards(iter(trace), WINDOW))
    a = shard_cell(shard, N_PROCS, config, provenance={"pipeline": "fp-a"})
    b = shard_cell(shard, N_PROCS, config, provenance={"pipeline": "fp-b"})
    assert a.fingerprint() != b.fingerprint()


def test_shard_cell_fingerprint_covers_window(trace, config):
    shard = next(iter_time_shards(iter(trace), WINDOW))
    moved = WorkloadShard(shard.index, shard.start, shard.end + WINDOW, shard.jobs)
    assert (
        shard_cell(shard, N_PROCS, config).fingerprint()
        != shard_cell(moved, N_PROCS, config).fingerprint()
    )


# ----------------------------------------------------------------------
# outcome fingerprint
# ----------------------------------------------------------------------
def test_outcome_fingerprint_detects_any_outcome_change(trace, config):
    shard = next(iter_time_shards(iter(trace), WINDOW))
    result = simulate_cell(shard_cell(shard, N_PROCS, config))
    fp = outcome_fingerprint(result.jobs)
    assert fp == outcome_fingerprint(result.jobs)  # stable
    # order is part of the identity (results merge in shard order)
    assert outcome_fingerprint(list(reversed(result.jobs))) != fp
    # and so is every job: dropping one changes the hash
    assert outcome_fingerprint(result.jobs[:-1]) != fp


# ----------------------------------------------------------------------
# the equivalence: sharded streaming replay == eager replay
# ----------------------------------------------------------------------
def _eager_replay(trace, config):
    """Reference path: materialise, shard, simulate each shard serially."""
    jobs = []
    for shard in iter_time_shards(list(trace), WINDOW):
        jobs.extend(simulate_cell(shard_cell(shard, N_PROCS, config)).jobs)
    return jobs


def test_sharded_replay_matches_eager_byte_for_byte(trace, config, tmp_path):
    eager_jobs = _eager_replay(trace, config)

    outcome = replay_sharded(
        iter(trace),              # streaming input
        N_PROCS,
        config,
        window=WINDOW,
        batch_size=5,             # several executor batches
        workers=2,                # through a real process pool
        cache=ResultCache(tmp_path / "cache"),
        provenance={"pipeline": "equivalence-test"},
    )

    assert outcome.fingerprint() == outcome_fingerprint(eager_jobs)
    # per-category metrics agree exactly, not approximately
    eager_stats = per_category_stats(eager_jobs)
    sharded_stats = per_category_stats(outcome.jobs)
    assert set(eager_stats) == set(sharded_stats)
    for cat, stats in eager_stats.items():
        assert stats.slowdown.mean == sharded_stats[cat].slowdown.mean
        assert stats.turnaround.mean == sharded_stats[cat].turnaround.mean


def test_sharded_replay_batch_size_invariance(trace, config):
    fps = {
        replay_sharded(
            iter(trace), N_PROCS, config, window=WINDOW, batch_size=bs
        ).fingerprint()
        for bs in (1, 7, 1000)
    }
    assert len(fps) == 1


def test_sharded_replay_resumes_from_cache(trace, config, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = replay_sharded(
        iter(trace), N_PROCS, config, window=WINDOW, cache=cache,
        provenance={"pipeline": "resume-test"},
    )
    assert cold.executed == cold.shards and cold.cache_hits == 0
    warm = replay_sharded(
        iter(trace), N_PROCS, config, window=WINDOW, cache=cache,
        provenance={"pipeline": "resume-test"},
    )
    assert warm.executed == 0 and warm.cache_hits == warm.shards
    assert warm.fingerprint() == cold.fingerprint()


def test_sharded_replay_cache_respects_provenance(trace, config, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    a = replay_sharded(
        iter(trace), N_PROCS, config, window=WINDOW, cache=cache,
        provenance={"pipeline": "fp-a"},
    )
    b = replay_sharded(
        iter(trace), N_PROCS, config, window=WINDOW, cache=cache,
        provenance={"pipeline": "fp-b"},
    )
    assert b.cache_hits == 0 and b.executed == b.shards  # no cross-talk
    assert a.fingerprint() == b.fingerprint()  # ... but identical outcomes
