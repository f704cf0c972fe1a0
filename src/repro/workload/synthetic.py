"""Calibrated synthetic trace generation.

This is the substitution for the Parallel Workloads Archive logs the
paper simulates (see DESIGN.md section 3).  :func:`generate_trace` takes a
:class:`~repro.workload.archive.TracePreset` -- machine size, the paper's
per-category job distribution, a target offered load -- and produces a
job list whose *distributional* properties match what the paper reports:

* category shares equal to Tables II/III (multinomial draw);
* run times log-uniform within each length class (heavy-tailed within
  class, as archive logs are);
* widths: 1 for Seq, uniform on 2-8 for N, 9-32 for W, log-uniform on
  33..max_width for VW (real VW requests skew toward the small end);
* Poisson arrivals with the rate calibrated so offered load equals the
  preset's ``target_utilization`` exactly on the realised sample:
  ``mean interarrival = mean(procs x run_time) / (P x target)``;
* per-processor memory uniform on :data:`MEMORY_RANGE_MB` (the paper's
  own substitution for the missing memory field, section V-A);
* user estimates from a pluggable :class:`~repro.workload.estimates.EstimateModel`.

Everything is drawn from a single seeded :class:`numpy.random.Generator`,
so a (preset, n_jobs, seed, estimate model) tuple is fully reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workload.archive import TracePreset, get_preset
from repro.workload.categories import SIXTEEN_WAY_CATEGORIES
from repro.workload.estimates import AccurateEstimates, EstimateModel
from repro.workload.job import Job

#: Width bounds per width-class label; VW's upper bound comes from the preset.
_WIDTH_RANGES = {"Seq": (1, 1), "N": (2, 8), "W": (9, 32)}

#: Uniform bounds of a job's per-processor resident set, MB (section V-A).
MEMORY_RANGE_MB = (100.0, 1000.0)


def generate_trace(
    preset: str | TracePreset,
    n_jobs: int,
    seed: int = 0,
    estimate_model: EstimateModel | None = None,
) -> list[Job]:
    """Draw *n_jobs* jobs for *preset*; sorted by submit time, ids 0..n-1.

    Parameters
    ----------
    preset:
        Preset name (``"CTC"``/``"SDSC"``/``"KTH"``) or a
        :class:`TracePreset` instance.
    n_jobs:
        Number of jobs, at least 1.
    seed:
        Seed for the one RNG every draw comes from; same seed, same trace.
    estimate_model:
        How user estimates relate to actual run times; defaults to
        accurate estimation (the paper's sections III-IV assumption).
    """
    if isinstance(preset, str):
        preset = get_preset(preset)
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    model = estimate_model or AccurateEstimates()
    rng = np.random.default_rng(seed)

    cats = _draw_categories(rng, preset, n_jobs)
    run_times = _draw_run_times(rng, preset, cats)
    widths = _draw_widths(rng, preset, cats)
    submits = _draw_arrivals(rng, preset, run_times, widths)
    estimates = np.maximum(model.estimates(run_times, rng), run_times)
    memory = rng.uniform(*MEMORY_RANGE_MB, size=n_jobs)

    order = np.argsort(submits, kind="stable")
    return [
        Job(
            job_id=i,
            submit_time=float(submits[k]),
            run_time=float(run_times[k]),
            estimate=float(estimates[k]),
            procs=int(widths[k]),
            memory_mb=float(memory[k]),
        )
        for i, k in enumerate(order)
    ]


# ----------------------------------------------------------------------
# sampling stages, in draw order
# ----------------------------------------------------------------------
def _draw_categories(
    rng: np.random.Generator, preset: TracePreset, n: int
) -> list[tuple[str, str]]:
    labels = list(SIXTEEN_WAY_CATEGORIES)
    probs = np.array([preset.category_shares[c] for c in labels])
    probs = probs / probs.sum()
    idx = rng.choice(len(labels), size=n, p=probs)
    return [labels[i] for i in idx]


def _draw_run_times(
    rng: np.random.Generator, preset: TracePreset, cats: list[tuple[str, str]]
) -> np.ndarray:
    n = len(cats)
    out = np.empty(n)
    bounds = preset.runtime_bounds
    u = rng.random(n)
    for i, (length, _width) in enumerate(cats):
        lo, hi = bounds[length]
        out[i] = math.exp(math.log(lo) + u[i] * (math.log(hi) - math.log(lo)))
    return out


def _draw_widths(
    rng: np.random.Generator, preset: TracePreset, cats: list[tuple[str, str]]
) -> np.ndarray:
    n = len(cats)
    out = np.empty(n, dtype=int)
    u = rng.random(n)
    vw_hi = preset.max_width
    for i, (_length, width) in enumerate(cats):
        if width in _WIDTH_RANGES:
            lo, hi = _WIDTH_RANGES[width]
            out[i] = lo + int(u[i] * (hi - lo + 1))
            out[i] = min(out[i], hi)
        else:  # VW: log-uniform integers on [33, max_width]
            lo, hi = 33, max(vw_hi, 33)
            val = math.exp(math.log(lo) + u[i] * (math.log(hi + 1) - math.log(lo)))
            out[i] = min(max(int(val), lo), hi)
    return out


def _draw_arrivals(
    rng: np.random.Generator,
    preset: TracePreset,
    run_times: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    mean_area = float(np.mean(run_times * widths))
    mean_gap = mean_area / (preset.n_procs * preset.target_utilization)
    submits = np.cumsum(rng.exponential(mean_gap, size=run_times.shape[0]))
    submits[0] = 0.0  # trace starts with its first arrival
    return submits
