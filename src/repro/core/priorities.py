"""Suspension priorities and preemption thresholds.

The SS scheme's suspension priority is the **xfactor** (eq. 2),
:meth:`~repro.workload.job.Job.xfactor`::

    xfactor = (wait time + estimated run time) / estimated run time

It starts at 1, grows while a job waits -- *rapidly* for short jobs,
*gradually* for long jobs, which is precisely the bias the paper wants:
short jobs earn the right to preempt quickly, long jobs tolerate delay.
While a job runs its priority is frozen (section IV-A).

An idle job may preempt a running job only when its priority is at least
``SF`` (the suspension factor) times the victim's.  Section IV-A derives
the alternation behaviour of two identical jobs under this rule:

* ``SF = 2``  -> zero suspensions (the waiter's xfactor reaches 2 exactly
  when the runner finishes);
* ``SF = (1 + sqrt(5)) / 2`` (the golden ratio) -> at most one suspension;
* generally, at most ``n`` suspensions for ``SF >= s_n`` where
  ``s_n^(n+1) = s_n + 1``;
* ``SF = 1`` -> unbounded alternation at the preemption-sweep granularity.

:func:`max_suspensions_threshold` computes ``s_n`` so tests and the
figure-4-6 bench can check the simulated behaviour against the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

#: The golden ratio: the SF below which two equal jobs suspend each other
#: more than once (section IV-A).
GOLDEN_RATIO = (1.0 + 5.0**0.5) / 2.0


def max_suspensions_threshold(n: int) -> float:
    """The minimal SF limiting two equal simultaneous jobs to <= n suspensions.

    Under the paper's *formal* priority definition (wait accrues only
    while not running, frozen while running -- exactly what
    :meth:`~repro.workload.job.Job.xfactor` implements), the two-task recurrence of section IV-A closes to

        s_n = 2 ** (1 / (n + 1))

    ``n = 0`` gives the paper's SF = 2 result.  For ``n = 1`` the paper's
    prose quotes the golden ratio, which instead follows from an
    *age-based* priority that keeps growing while the job runs; both
    variants are derived and simulated in :mod:`repro.core.theory`, and
    the figure 4-6 bench reports both.  See that module for the full
    derivation.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return 2.0 ** (1.0 / (n + 1))


@dataclass(frozen=True)
class PreemptionCriteria:
    """The SS preemption predicate (section IV-B/C).

    Parameters
    ----------
    suspension_factor:
        ``SF >= 1``: the minimum ratio of idle priority to victim
        priority for preemption.  The paper evaluates 1.5, 2 and 5.
        ``SF = inf`` stays legal: no priority clears it, so nothing is
        ever suspended.  NaN is refused.
    width_rule:
        When true (the paper's default for *fresh* starts), a victim may
        only be suspended by a job requesting at least half the victim's
        processors -- "preventing the wide jobs from being suspended by
        the narrow jobs".  The rule is *dropped* for a suspended job
        re-acquiring its original processors (section IV-C), because a
        narrow job blocking part of a wide job's resume set would
        otherwise pin it for the wide job's whole lifetime.
    """

    suspension_factor: float = 2.0
    width_rule: bool = True

    def __post_init__(self) -> None:
        if self.width_rule not in (True, False):
            raise ValueError(f"width_rule must be a bool, got {self.width_rule!r}")
        # canonical types, so ``config()`` emits 2.0 / true for 2 / 1
        object.__setattr__(self, "suspension_factor", float(self.suspension_factor))
        object.__setattr__(self, "width_rule", bool(self.width_rule))
        sf = self.suspension_factor
        if not 1.0 <= sf <= inf:  # also rejects NaN
            raise ValueError(f"'suspension_factor' must be >= 1 (inf allowed), got {sf!r}")

    def priority_allows(self, idle_priority: float, victim_priority: float) -> bool:
        """The SF threshold: idle >= SF x victim."""
        return idle_priority >= self.suspension_factor * victim_priority

    def width_allows(self, idle_procs: int, victim_procs: int, reentry: bool) -> bool:
        """The half-width rule (skipped on re-entry)."""
        if reentry or not self.width_rule:
            return True
        return victim_procs <= 2 * idle_procs
