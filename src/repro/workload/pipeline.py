"""Lazy workload-transformation pipeline over job streams.

The eager experiment path loads a whole trace, then applies load
scaling (:func:`repro.workload.load.scale_load`) and estimate models
(:mod:`repro.workload.estimates`) as list-to-list passes.  That is fine
for synthetic seeds; archive logs are months of submissions and should
not be materialised just to divide every submit time by 1.3.

This module re-expresses those transformations as **lazy stages** over
an iterator of jobs.  A stage consumes a job stream and yields a
transformed stream without retaining it; a :class:`WorkloadPipeline`
composes stages and carries a JSON-stable config whose SHA-256
fingerprint keys result caching (a cell simulated under one pipeline is
never confused with the same shard under another).

Determinism contract
--------------------

Stages are deterministic functions of (input stream, config).  The one
subtlety is :class:`EstimateStage`: estimate models draw random factors
per job, and a stream cannot make one whole-trace RNG draw.  The stage
therefore processes fixed-size chunks and seeds each chunk's generator
as ``default_rng((seed, chunk_index))`` -- job *i* gets the same
estimate no matter how the stream is batched upstream, because chunk
boundaries depend only on ``chunk_size`` (part of the config) and the
job's position.  Running the same pipeline twice, eagerly or streaming,
yields byte-identical jobs.  See docs/WORKLOADS.md for the worked
contract.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from collections.abc import Collection
from math import inf
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.workload.categories import classify_sixteen_way
from repro.workload.estimates import (
    AccurateEstimates,
    EstimateModel,
    InaccurateEstimates,
    PerfectWithNoise,
)
from repro.workload.job import Job

PIPELINE_SCHEMA = "repro.pipeline/v1"


class PipelineStage(ABC):
    """One lazy transformation over a stream of jobs.

    A stage must be **pure** (input jobs are never mutated; transformed
    jobs are fresh :class:`Job` instances) and **streaming** (memory
    bounded by a constant or by its configured chunk size, never by the
    trace length).
    """

    @abstractmethod
    def apply(self, jobs: Iterator[Job]) -> Iterator[Job]:
        """Yield the transformed stream."""

    @abstractmethod
    def config(self) -> dict[str, object]:
        """JSON-stable description of the stage; feeds the fingerprint."""


class LoadScaleStage(PipelineStage):
    """Divide every submit time by ``load_factor`` (``0 < x < inf``).

    The paper's section VI load-variation methodology: run times,
    estimates, widths and memory are untouched.
    :func:`repro.workload.load.scale_load` is this stage over a list.
    """

    def __init__(self, load_factor: float) -> None:
        if not 0 < load_factor < inf:
            raise ValueError(f"load factor must be positive and finite, got {load_factor}")
        self.load_factor = float(load_factor)

    def apply(self, jobs: Iterator[Job]) -> Iterator[Job]:
        for job in jobs:
            yield Job(
                job_id=job.job_id,
                submit_time=job.submit_time / self.load_factor,
                run_time=job.run_time,
                estimate=job.estimate,
                procs=job.procs,
                memory_mb=job.memory_mb,
                user=job.user,
            )

    def config(self) -> dict[str, object]:
        return {"stage": "load_scale", "load_factor": self.load_factor}


def _model_config(model: EstimateModel) -> dict[str, object]:
    """JSON-stable parameters of an estimate model.

    The known models expose their constructor arguments as attributes;
    anything unrecognised falls back to its :meth:`EstimateModel.name`
    label (still deterministic, but two differently-parameterised
    custom models with the same name would share a fingerprint -- give
    custom models distinguishing names).
    """
    if isinstance(model, AccurateEstimates):
        return {"model": "accurate"}
    if isinstance(model, PerfectWithNoise):
        return {"model": "noise", "noise": model.noise}
    if isinstance(model, InaccurateEstimates):
        return {
            "model": "inaccurate",
            "badly_fraction": model.badly_fraction,
            "max_factor": model.max_factor,
            "cap_seconds": model.cap_seconds,
        }
    return {"model": model.name()}


class EstimateStage(PipelineStage):
    """Apply an estimate model to the stream in deterministic chunks.

    Parameters
    ----------
    model:
        Any :class:`~repro.workload.estimates.EstimateModel`.
    seed:
        Base seed; chunk *k* draws from ``default_rng((seed, k))``, so
        every job's estimate depends only on its stream position and the
        config -- not on upstream batching.
    chunk_size:
        Jobs vectorised per model call.  Part of the config (changing it
        changes which RNG serves which job, hence the fingerprint).
    """

    DEFAULT_CHUNK = 4096

    def __init__(
        self, model: EstimateModel, seed: int, chunk_size: int = DEFAULT_CHUNK
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.model = model
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)

    def _emit(self, chunk: list[Job], chunk_index: int) -> Iterator[Job]:
        rng = np.random.default_rng((self.seed, chunk_index))
        run_times = np.array([j.run_time for j in chunk], dtype=float)
        estimates = self.model.estimates(run_times, rng)
        for job, est in zip(chunk, estimates):
            yield Job(
                job_id=job.job_id,
                submit_time=job.submit_time,
                run_time=job.run_time,
                estimate=max(float(est), 1.0),
                procs=job.procs,
                memory_mb=job.memory_mb,
                user=job.user,
            )

    def apply(self, jobs: Iterator[Job]) -> Iterator[Job]:
        chunk: list[Job] = []
        chunk_index = 0
        for job in jobs:
            chunk.append(job)
            if len(chunk) >= self.chunk_size:
                yield from self._emit(chunk, chunk_index)
                chunk = []
                chunk_index += 1
        if chunk:
            yield from self._emit(chunk, chunk_index)

    def config(self) -> dict[str, object]:
        return {
            "stage": "estimates",
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            **_model_config(self.model),
        }


class CategoryFilterStage(PipelineStage):
    """Keep only jobs in the given Table-I categories.

    Categories are the paper's 16-way ``(length, width)`` labels, e.g.
    ``("VS", "VW")`` -- see :mod:`repro.workload.categories`.  Jobs pass
    through untouched (no copy: filtering does not mutate).
    """

    def __init__(self, keep: Collection[tuple[str, str]]) -> None:
        if not keep:
            raise ValueError("CategoryFilterStage with an empty keep-set drops everything")
        self.keep = frozenset((str(a), str(b)) for a, b in keep)

    def apply(self, jobs: Iterator[Job]) -> Iterator[Job]:
        for job in jobs:
            if classify_sixteen_way(job) in self.keep:
                yield job

    def config(self) -> dict[str, object]:
        return {"stage": "category_filter", "keep": sorted(map(list, self.keep))}


class WorkloadPipeline:
    """An ordered composition of lazy stages with a stable fingerprint.

    >>> pipe = WorkloadPipeline([LoadScaleStage(1.3),
    ...                          EstimateStage(InaccurateEstimates(), seed=7)])
    >>> out = list(pipe.jobs(iter(base_jobs)))        # doctest: +SKIP

    ``jobs`` is streaming: it holds at most one estimate chunk in
    memory.  ``materialise`` is the eager convenience for small traces
    and tests; by the determinism contract both produce identical jobs.
    """

    def __init__(self, stages: Iterable[PipelineStage] = ()) -> None:
        self.stages: tuple[PipelineStage, ...] = tuple(stages)

    def jobs(self, source: Iterable[Job]) -> Iterator[Job]:
        """Stream *source* through every stage in order."""
        stream = iter(source)
        for stage in self.stages:
            stream = stage.apply(stream)
        return stream

    def materialise(self, source: Iterable[Job]) -> list[Job]:
        """Eager form of :meth:`jobs` (identical output, O(trace) memory)."""
        return list(self.jobs(source))

    def config(self) -> dict[str, object]:
        """JSON-stable pipeline description (schema + per-stage configs)."""
        return {
            "schema": PIPELINE_SCHEMA,
            "stages": [stage.config() for stage in self.stages],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON config; keys shard caching."""
        payload = json.dumps(self.config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line human-readable summary (CLI output)."""
        if not self.stages:
            return "identity pipeline (no stages)"
        return " -> ".join(
            str(stage.config().get("stage", type(stage).__name__))
            for stage in self.stages
        )


def open_workload(
    path: str | Path,
    pipeline: WorkloadPipeline | None = None,
    max_procs: int | None = None,
    on_malformed: str = "raise",
    drop_interactive: bool = False,
    require_sorted: bool = True,
) -> Iterator[Job]:
    """Stream an SWF log through a pipeline: the one-call archive entry point.

    Composes :func:`repro.workload.swf.stream_swf` (constant-memory
    parse), :func:`repro.workload.swf.stream_jobs` (hygiene filters +
    rebase) and ``pipeline.jobs`` (lazy transformations).  ``max_procs``
    defaults to the log header's machine size when the header declares
    one.
    """
    from repro.workload.swf import MalformedPolicy, SWFReader, stream_jobs

    if on_malformed not in ("raise", "skip"):
        raise ValueError(f"on_malformed must be 'raise' or 'skip', got {on_malformed!r}")
    policy: MalformedPolicy = "raise" if on_malformed == "raise" else "skip"

    def _stream() -> Iterator[Job]:
        with SWFReader(path, on_malformed=policy) as reader:
            width_cap = max_procs
            if width_cap is None:
                width_cap = reader.header.machine_procs()
            yield from stream_jobs(
                iter(reader),
                max_procs=width_cap,
                drop_interactive=drop_interactive,
                require_sorted=require_sorted,
            )

    stream: Iterator[Job] = _stream()
    if pipeline is not None:
        stream = pipeline.jobs(stream)
    return stream
