"""Golden decision traces: the optimised kernel is byte-pinned to the
pre-optimisation one.

PR 4 rebuilt the simulation kernel for speed -- bitmask cluster,
sweep-scoped caching, O(n) anchor walk -- under the contract that **no
schedule changes**.  These hashes are SHA-256 digests of complete JSONL
decision traces (every dispatch, suspension, resume, verdict and
reservation) produced by the *seed* kernel before any of that work
landed.  The optimised kernel must reproduce them byte for byte.

If an intentional semantic change ever lands (a new tie-break, a
different verdict rule), regenerate the hashes in the same commit and
say so in its message; a perf-only PR that trips this test has a bug.

The grid deliberately spans both machines the paper models at
meaningfully different scales (CTC at 430 processors, SDSC at 128) and
every scheduler family it compares (SS, TSS, EASY, conservative), so a
regression anywhere in cluster/profile/sweep code has a cell that
notices.

The policy-kernel refactor decomposed those schedulers into
queue/reservation/backfill/preemption policies composed by one
``PolicyKernel`` -- under the same byte-identical contract, which these
hashes enforce.  The hybrid schemes it unlocked (``ss-easy``,
``tss-conservative``) have no seed-kernel ancestor; their traces are
pinned in :data:`HYBRID_TRACE_SHA256` at the commit that introduced
them, freezing the composed semantics the same way.  The remaining
schemes (FCFS, relaxed, speculative, IS, gang) are pinned in
:data:`SCHEME_TRACE_SHA256`, captured before the scheme table replaced
the hand-written registry builders, on inputs where each scheme's own
code path runs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cluster.machine import Cluster
from repro.obs.recorder import JsonlRecorder
from repro.schedulers.registry import SCHEMES
from repro.sim.driver import SchedulingSimulation
from repro.workload.estimates import InaccurateEstimates
from repro.workload.load import scale_load
from repro.workload.synthetic import generate_trace

#: (trace preset, n_procs, n_jobs, seed, inaccurate estimates, load factor)
_WORKLOADS = {
    "CTC": ("CTC", 430, 60, 11, False, 1.0),
    "SDSC": ("SDSC", 128, 80, 7, False, 1.0),
    # speculative backfilling speculates once and kills once here
    "SDSC-inaccurate": ("SDSC", 128, 80, 7, True, 1.0),
    # relaxed backfilling starts 6 jobs at other times than EASY here
    "CTC-load1.5": ("CTC", 430, 120, 11, False, 1.5),
}

#: SHA-256 of the seed kernel's JSONL decision trace per grid cell,
#: captured at commit cb1017f (pre-bitmask, pre-sweep-cache kernel)
GOLDEN_TRACE_SHA256 = {
    ("CTC", "ss"): "d5d3fe1f2da73f8ade3907237661d96db640c992dbea740594d3024b4b03e866",
    ("CTC", "tss"): "e665d49128febcf9837cac2d163570c7b8bc8d40fa6cd2e47b4a608522297378",
    ("CTC", "easy"): "da41a9f20641c3f1eb45856ef6259a60c15c24d45b66c440e9ed71e5784140ee",
    ("CTC", "conservative"): (
        "87955d46406819187b0bd2686a1da65b2c93d5f3da1c6eb9f8ba85d1a4e4534b"
    ),
    ("SDSC", "ss"): "f7ce1d7bbaa7372769034a2a067f4c3372c12656ebfd9e51c8b261fa5efcc47b",
    ("SDSC", "tss"): "7cbf16e9b31f1a6c5f07f943f6c4b1bec5619d3de9fc3700b70ec863b9c201c4",
    ("SDSC", "easy"): "1c12bf4b03326daaf63874b278ec8cca77dd09758735fe0408d911cd770f5a2e",
    ("SDSC", "conservative"): (
        "a3c7aae1d88ff45b0c4df0ad2a53beee6c6cbfe0fec5ccacf610e690a680e63c"
    ),
}

#: SHA-256 of the hybrid schemes' JSONL decision traces, pinned at the
#: commit introducing the policy kernel (no seed-kernel ancestor exists)
HYBRID_TRACE_SHA256 = {
    ("CTC", "ss-easy"): (
        "244258e52371642c49fb3a07ebfa17920aee0d17392d16773685e472bd17c5ab"
    ),
    ("CTC", "tss-conservative"): (
        "cd7b13e0676d31a3f297cd1760abb82dcbfa474b919e801b282d1da46fdaa976"
    ),
    ("SDSC", "ss-easy"): (
        "06f075785379f4c80c4ee66fe2512bd7a2c6ffea733ddc6303dfe61303393de3"
    ),
    ("SDSC", "tss-conservative"): (
        "ed1b261913f4e65db1d192f7c92c3a561e4524afa2dd22facde871dee484a468"
    ),
}

#: SHA-256 of the traces of the schemes neither grid above covers, pinned
#: before the scheme table replaced the hand-written registry builders.
#: On CTC FCFS and EASY coincide; on SDSC FCFS starts 29 jobs later.
SCHEME_TRACE_SHA256 = {
    ("CTC", "fcfs"): "be60896f09527513520dbd52464d947068129e27c48be93f87d54818cdbc7cfb",
    ("SDSC", "fcfs"): "b41d45882b4b13f11fbadb1c2ad9d4f4258634b36fe2289c07de34a5b2d9c5c2",
    ("CTC", "is"): "07b13f467b80aff3e52d8e7f47c500f22756879e018bf1bf57920845bd49c6bc",
    ("SDSC", "is"): "16af33ce1b792c2985551a23ece2b4af64f4a8754a2a9f2592a5c0ea5a91ea31",
    ("CTC", "gang"): "afe464dfa412218c965b69c962ce19e37eb6d477a20ce53c1113c2353e2e355f",
    ("SDSC", "gang"): "f9a06c5b86b0c0bd7f19e9f13d47ce0b1ecee089e1e8e0d9cd56bc76a61c8564",
    ("SDSC-inaccurate", "speculative"): (
        "436f76d0f21579f81cd70e733aa7206e5e752f97d22e86e2ccec94b5ebe94b4a"
    ),
    # regenerated when relaxed's starts behind the head became
    # ``backfill_start`` records (15 records; same outcomes)
    ("CTC-load1.5", "relaxed"): (
        "8ddab3b6a3f8940d0ca2e1094b260871ecc115a0e8a0e18607a755769f1023c9"
    ),
}


@pytest.mark.parametrize(
    ("workload", "scheme"),
    sorted(GOLDEN_TRACE_SHA256) + sorted(HYBRID_TRACE_SHA256) + sorted(SCHEME_TRACE_SHA256),
    ids=lambda v: str(v),
)
def test_trace_matches_seed_kernel(workload: str, scheme: str, tmp_path: Path) -> None:
    trace_name, n_procs, n_jobs, seed, inaccurate, load = _WORKLOADS[workload]
    jobs = generate_trace(
        trace_name,
        n_jobs=n_jobs,
        seed=seed,
        estimate_model=InaccurateEstimates() if inaccurate else None,
    )
    if load != 1.0:
        jobs = scale_load(jobs, load)
    path = tmp_path / f"{workload}-{scheme}.jsonl"
    rec = JsonlRecorder(str(path))
    # constructor defaults: SF 2 for the SS family
    sim = SchedulingSimulation(Cluster(n_procs), SCHEMES[scheme](), recorder=rec)
    sim.run(jobs)
    rec.close()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    expected = {**GOLDEN_TRACE_SHA256, **HYBRID_TRACE_SHA256, **SCHEME_TRACE_SHA256}
    assert digest == expected[(workload, scheme)], (
        f"{workload}/{scheme}: decision trace diverged from the seed "
        "kernel -- a perf change altered the schedule (or an intentional "
        "semantic change forgot to regenerate the golden hashes)"
    )
