"""User run-time estimate models (section V).

Backfilling schedulers plan with the user's *estimated* run time.  The
paper first assumes perfect estimates, then studies inaccuracy.  Its
analysis splits jobs into **well estimated** (estimate <= 2x actual) and
**badly estimated** (estimate > 2x actual), noting that badly estimated
short jobs look long to the xfactor priority and are therefore the jobs
SS penalises.

Real logs show heavily quantised over-estimation (users request round
wall-clock limits; many jobs abort early).  :class:`InaccurateEstimates`
models this with a two-population mixture:

* with probability ``1 - badly_fraction``: estimate = actual x U(1, 2)
  (well estimated);
* with probability ``badly_fraction``: estimate = actual x LogU(2, max_factor)
  (badly estimated -- log-uniform, so extreme over-estimates such as an
  aborted "24-hour" one-minute job appear with realistic frequency).

Estimates never fall below the actual run time (jobs are not killed at
the estimate in this study; the paper's schedulers treat the estimate as
a planning hint, and the synthetic model keeps estimate >= actual so the
backfilling profiles never have to handle overruns).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import inf

import numpy as np


class EstimateModel(ABC):
    """Strategy that assigns user estimates to actual run times."""

    @abstractmethod
    def estimates(self, run_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vector of estimates, elementwise >= ``run_times``."""

    def name(self) -> str:
        """Short label for reports."""
        return type(self).__name__


class AccurateEstimates(EstimateModel):
    """Perfect estimation: estimate == actual (sections III-IV)."""

    def estimates(self, run_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(run_times, dtype=float).copy()


class PerfectWithNoise(EstimateModel):
    """Mild multiplicative noise: estimate = actual x U(1, 1 + noise).

    A sanity-check model between the accurate and inaccurate extremes;
    every job stays "well estimated" for ``noise < 1``.
    """

    def __init__(self, noise: float = 0.2) -> None:
        if not 0 <= noise < inf:  # also rejects NaN
            raise ValueError(f"noise must be nonnegative and finite, got {noise}")
        self.noise = float(noise)

    def estimates(self, run_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        run_times = np.asarray(run_times, dtype=float)
        return run_times * rng.uniform(1.0, 1.0 + self.noise, size=run_times.shape)


class InaccurateEstimates(EstimateModel):
    """Two-population over-estimation mixture (section V).

    Parameters
    ----------
    badly_fraction:
        Fraction of jobs whose estimate exceeds 2x the actual run time.
        Archive logs put this around 0.3-0.5; default 0.4.
    max_factor:
        Upper bound of the log-uniform over-estimation factor for badly
        estimated jobs.  50 allows a 30-minute job to request a 24-hour
        limit, matching the aborted-job pathology the paper discusses.
    cap_seconds:
        Optional absolute cap on the estimate (a machine's maximum
        wall-clock limit), positive and finite; ``None`` disables.
    """

    def __init__(
        self,
        badly_fraction: float = 0.4,
        max_factor: float = 50.0,
        cap_seconds: float | None = 60 * 3600.0,
    ) -> None:
        # plain range tests, each of which NaN fails
        if not 0.0 <= badly_fraction <= 1.0:
            raise ValueError(f"badly_fraction must be in [0,1], got {badly_fraction}")
        if not 2.0 < max_factor < inf:
            raise ValueError(f"max_factor must exceed 2 and be finite, got {max_factor}")
        if cap_seconds is not None and not 0 < cap_seconds < inf:
            raise ValueError(
                f"cap_seconds must be positive and finite (None: no cap), got {cap_seconds}"
            )
        self.badly_fraction = float(badly_fraction)
        self.max_factor = float(max_factor)
        self.cap_seconds = cap_seconds

    def estimates(self, run_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        run_times = np.asarray(run_times, dtype=float)
        n = run_times.shape[0]
        bad = rng.random(n) < self.badly_fraction
        factors = rng.uniform(1.0, 2.0, size=n)
        # log-uniform on (2, max_factor] for the badly estimated population
        n_bad = int(bad.sum())
        if n_bad:
            lo, hi = np.log(2.0), np.log(self.max_factor)
            factors[bad] = np.exp(rng.uniform(lo, hi, size=n_bad))
        est = run_times * factors
        if self.cap_seconds is not None:
            # never cap below the actual run time: estimate >= actual holds
            est = np.maximum(np.minimum(est, self.cap_seconds), run_times)
        return est

    def name(self) -> str:
        return f"InaccurateEstimates(bad={self.badly_fraction:g})"
