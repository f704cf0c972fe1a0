"""Suspension/restart overhead models (section V-A).

The paper prices a suspension as the time to write the job's main memory
to local disk: per-job memory uniform on [100 MB, 1 GB], and "with each
node being a quad, the transfer rate per processor was assumed to be
2 MB/s (corresponding to a disk bandwidth of 8 MB/s)".  We interpret the
memory figure as the per-processor resident set (each processor writes
its own image to its node's local disk in parallel), giving

    write time = memory_mb / 2 MB/s  in [50 s, 500 s]

and charge the read-back on restart at the same rate (restart_factor
scales it; set 0 to charge the write only).  Costs are charged to the
*suspended* job as pending overhead -- see
:mod:`repro.sim.driver` for the pay-on-resume semantics.

Jobs without a memory annotation (``memory_mb == 0``, e.g. SWF logs
lacking the field) receive a deterministic per-job draw from the model's
own uniform distribution, seeded by the job id so results stay
reproducible and independent of visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from repro.workload.job import Job


@dataclass(frozen=True)
class DiskSwapOverheadModel:
    """Write-memory-to-disk overhead pricing.

    Parameters
    ----------
    mb_per_sec_per_proc:
        Per-processor transfer rate; paper value 2.0 MB/s.
    restart_factor:
        Fraction of the write cost charged again for the read-back on
        restart.  1.0 (default) charges a symmetric read; 0.0 reproduces
        a write-only interpretation.
    default_memory_range_mb:
        Uniform range substituted for jobs without a memory annotation.
    seed:
        Seed for the substitute-memory draws.
    """

    mb_per_sec_per_proc: float = 2.0
    restart_factor: float = 1.0
    default_memory_range_mb: tuple[float, float] = (100.0, 1000.0)
    seed: int = 12345

    def __post_init__(self) -> None:
        # plain range tests, each of which NaN fails
        if not 0 < self.mb_per_sec_per_proc < inf:
            raise ValueError(
                f"transfer rate must be positive and finite, got {self.mb_per_sec_per_proc}"
            )
        if not 0 <= self.restart_factor < inf:
            raise ValueError(
                f"restart_factor must be nonnegative and finite, got {self.restart_factor}"
            )
        lo, hi = self.default_memory_range_mb
        if not 0 < lo <= hi < inf:
            raise ValueError(f"invalid default memory range {self.default_memory_range_mb}")

    def memory_of(self, job: Job) -> float:
        """Job memory in MB, substituting a seeded draw when unknown."""
        if job.memory_mb > 0:
            return job.memory_mb
        lo, hi = self.default_memory_range_mb
        rng = np.random.default_rng((self.seed, job.job_id))
        return float(rng.uniform(lo, hi))

    def write_cost(self, job: Job) -> float:
        """Seconds to write the job's image to disk (the suspend side)."""
        return self.memory_of(job) / self.mb_per_sec_per_proc

    def suspend_resume_cost(self, job: Job) -> float:
        """Total seconds charged for one suspend/resume cycle of *job*."""
        return self.write_cost(job) * (1.0 + self.restart_factor)


@dataclass(frozen=True)
class FixedOverheadModel:
    """Constant per-suspension cost -- for tests and sensitivity sweeps."""

    seconds: float = 60.0

    def __post_init__(self) -> None:
        if not 0 <= self.seconds < inf:  # also rejects NaN
            raise ValueError(f"overhead must be nonnegative and finite, got {self.seconds}")

    def suspend_resume_cost(self, job: Job) -> float:
        """The constant, regardless of the job."""
        return self.seconds
