"""The call-count collector behind ``tools/bench_gate.py`` is exact.

The gate compares Python-level call counts with a committed baseline
and fails on any difference, so a count must depend on the code alone:
not on the run, the process or the hash seed, and not on whether the
null recorder is attached.  And it must see the work the kernel's
optimisations removed: the legacy sweep, which recomputes priorities
per access, makes more ``suspension_priority`` calls on the same trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.bench_micro import (
    LegacyCluster,
    LegacySweepScheduler,
    count_calls,
    simulate,
)
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.obs import NULL_RECORDER
from repro.workload.synthetic import generate_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
JOBS = generate_trace("SDSC", n_jobs=120, seed=3)
PRIORITY = "core/priorities.py:suspension_priority"

#: prints the counts of one SS run on JOBS as JSON
CHILD = """
import json
from benchmarks.bench_micro import count_calls
from tests.test_call_counts import run_ss
print(json.dumps(count_calls(run_ss)))
"""


def run_ss(recorder=None):
    return simulate(JOBS, SelectiveSuspensionScheduler(suspension_factor=2.0), recorder=recorder)


def test_counts_repeat_across_runs_hash_seeds_and_the_null_recorder():
    counts = count_calls(run_ss)
    assert counts[PRIORITY] > 0
    assert count_calls(run_ss) == counts
    assert count_calls(lambda: run_ss(NULL_RECORDER)) == counts

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "321" if env.get("PYTHONHASHSEED") == "123" else "123"
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(child.stdout) == counts


def test_legacy_sweep_makes_more_priority_calls():
    legacy = count_calls(
        lambda: simulate(
            JOBS, LegacySweepScheduler(suspension_factor=2.0), cluster=LegacyCluster(128)
        )
    )
    assert legacy[PRIORITY] > count_calls(run_ss)[PRIORITY]
