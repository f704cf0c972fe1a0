"""The per-figure experiment functions (small sizes for speed)."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import paper

N = 220
SEED = 3


def test_job_distribution_outputs():
    out = paper.job_distribution("CTC", n_jobs=N, seed=SEED)
    assert out.exp_id == "tables-2-3-7-8"
    assert abs(sum(out.data["shares16"].values()) - 1.0) < 1e-9
    assert abs(sum(out.data["shares4"].values()) - 1.0) < 1e-9
    assert "Tables II/III" in out.report


def test_ns_baseline_slowdowns_outputs():
    out = paper.ns_baseline_slowdowns("SDSC", n_jobs=N, seed=SEED)
    assert out.data["overall"] >= 1.0
    assert all(v >= 1.0 for v in out.data["grid"].values())
    assert "Table V" in out.report
    assert "No Suspension" in out.results


def test_two_task_figures_outputs():
    out = paper.two_task_figures((1.5, 2.0))
    assert out.data["SF=2"]["frozen"].suspensions == 0
    assert out.data["SF=1.5"]["frozen"].suspensions == 1
    assert "SF=1.5" in out.report


def test_ss_average_metrics_outputs():
    out = paper.ss_average_metrics("SDSC", n_jobs=N, seed=SEED)
    for metric in ("slowdown", "turnaround"):
        grids = out.data[metric]
        assert set(grids) == {"SF = 1.5", "SF = 2", "SF = 5", "No Suspension", "IS"}
        for grid in grids.values():
            assert grid  # nonempty
    assert "Fig 9" in out.report and "Fig 10" in out.report


def test_ss_worst_case_outputs():
    out = paper.ss_worst_case("SDSC", n_jobs=N, seed=SEED)
    assert set(out.data["slowdown"]) == {"SF = 2", "No Suspension", "IS"}
    # worst >= mean structurally; just check worst >= 1
    for grid in out.data["slowdown"].values():
        assert all(v >= 1.0 for v in grid.values())


def test_tss_worst_case_outputs():
    out = paper.tss_worst_case("SDSC", n_jobs=N, seed=SEED)
    assert "SF = 2 Tuned" in out.data["slowdown"]
    assert "SF = 2" in out.data["slowdown"]


def test_estimate_impact_outputs():
    out = paper.estimate_impact("SDSC", n_jobs=N, seed=SEED)
    assert set(out.data) == {"all", "well", "badly"}
    all_counts = out.data["all"]["slowdown"]["No Suspension"]
    assert all_counts
    # every job is either well or badly estimated: the union of group
    # categories covers the all-jobs categories
    union = set(out.data["well"]["slowdown"]["No Suspension"]) | set(
        out.data["badly"]["slowdown"]["No Suspension"]
    )
    assert set(all_counts) <= union


def test_overhead_impact_outputs():
    out = paper.overhead_impact("SDSC", n_jobs=N, seed=SEED)
    assert set(out.data["slowdown"]) == {"SF = 2", "SF = 2 OH", "No Suspension", "IS"}
    # the overhead run must actually charge overhead to suspended jobs
    oh_run = out.results["SF = 2 OH"]
    if oh_run.total_suspensions:
        assert any(j.total_overhead > 0 for j in oh_run.jobs)
    free_run = out.results["SF = 2"]
    assert all(j.total_overhead == 0 for j in free_run.jobs)


def test_load_variation_outputs():
    out = paper.load_variation("SDSC", loads=(1.0, 1.2), n_jobs=N, seed=SEED)
    assert out.data["loads"] == [1.0, 1.2]
    for label in ("SF = 2 Tuned", "No Suspension", "IS"):
        assert len(out.data["utilization"][label]) == 2
        for series in out.data["slowdown"][label].values():
            assert len(series) == 2
    assert "utilisation" in out.report


def test_unknown_trace_raises():
    with pytest.raises(KeyError):
        paper.ns_baseline_slowdowns("NOPE", n_jobs=N, seed=SEED)


# ----------------------------------------------------------------------
# golden reports and cell sets: every experiment id on SDSC, 120 jobs,
# seed 7 (figs 35-44 at loads 1.0 and 1.2), minted before the figures
# became cell declarations over one grid
# ----------------------------------------------------------------------
#: cell fingerprint of each simulated cell, by scheme / workload
_CELLS = {
    "ns": "7d800dc22aea20dd47c71d3bd7a9b7735c021ddc7cbea58fbe1bbbab185b4016",
    "ss-1.5": "387ea1b5ede6f2b76803e662207205aef105240ee69da928e55c405103982df8",
    "ss-2": "cef81546e2230b5c5efce7e2046f4c8ab496157a1986ca5a2b3b9bf77dbcd118",
    "ss-5": "edf5bfa0a96191504330c431835379269c630b76d2a94a5bf8d1bb6c3e70a119",
    "is": "237e23dc94c088fa3134b1228615b3fafc8d1744123fa9bd2e46e46069460c0f",
    "tss-2": "81ceb35d4e2bb1aac3f5b1d5467fa0500943022bfa142e7040e07e4cb0655261",
    "ss-easy": "4f1badb2e669529c0de8afa498739ab80fa326f0038c2cebd1bacb61e35170a9",
    "tss-cons": "1f2f6ea02a17fa44bb6a29ab2d2b8b869499679e6675b44155d446df4fa56594",
    "ns/inaccurate": "3bd60e9a538d801c48843d3f6b9054a1bc3517f640afabbb6091f43c91743988",
    "is/inaccurate": "c1218c5b3d11c2ee494f3a7f6311262516b755cf258393b33092a0a27ddec0b8",
    "tss-1.5/inaccurate": "50c49da7ee2ae25fd4c3dbc3f989be8cdc13a8d8f21bb5ed2728d72be63e2cef",
    "tss-2/inaccurate": "49d4777d3bd3d2a996ba16568815cb9daf02aa17e6368add30fcfe2ec9b05ec1",
    "tss-5/inaccurate": "e892f2d83d51d4a9f7434ca9ccc045f5be47d51d17b966cfdf9fe77414ddfec2",
    "ns/inaccurate/overhead": "2d32478288a1d6b658b1c85845410b532255babbcd933014fa14e33ce07f817e",
    "is/inaccurate/overhead": "73c0f4c850bd2713aafbde7648974e95c858e6c2ef6f5646decd6084df913724",
    "tss-2/inaccurate/overhead": "bdb816f3bafbb4f3cbb6e0bdf0c704fb9f6d22289d7373ce9e1558abc41e62f8",
    "ns@1.2": "781f9e711e37118f268b48c6b3e7e11dfb12340fec063f290f8ec220c957d663",
    "is@1.2": "85936026bf4742d17a9fdc4f2a574369dc0edbead3384314b41f6f85ae48ca93",
    "tss-2@1.2": "5eda6ebb564789209427214003034290ca4a1d509510851b10a0f01de3cbab86",
}

#: experiment id -> (SHA-256 of the report, cells simulated, simulations run)
_GOLDEN = {
    "distribution": ("3545b6701ed4430c7f41f4eb433b56ad39b79b8162f93bd830e7ac599b531e13", [], 0),
    "tables-4-5": (
        "f012636851f281d4ff77904289211282cdb95fa329932c79401aeceeb5800ce7", ["ns"], 1
    ),
    "figs-4-6": ("b6fcf2a22e4640eb0c247e6dfb9d6dbbd0083536d73237332f72630cfba8f543", [], 0),
    "figs-7-10": (
        "eaf87bbadc18bd01e2864f0227d2f08304ee707ec808f25c33cac4ba1e686264",
        ["ss-1.5", "ss-2", "ss-5", "ns", "is"],
        5,
    ),
    "figs-11-16": (
        "f3694ad1624bbb1d192b8348014460737a838abe94106b0227b9129343204857",
        ["ss-2", "ns", "is"],
        3,
    ),
    "figs-13-18": (
        "a6812eb9b77b8a375123f440935a143a1278656c4be445d43b896db44b968d84",
        ["ss-2", "tss-2", "ns", "is"],
        4,
    ),
    "figs-19-30": (
        "317e97320a5972f170571211ce986d3a3bf465a6bf96b2735bac5d8a70bebc37",
        [
            "tss-1.5/inaccurate",
            "tss-2/inaccurate",
            "tss-5/inaccurate",
            "ns/inaccurate",
            "is/inaccurate",
        ],
        5,
    ),
    "figs-31-34": (
        "c24b0d7384a7d512614cddaac06423da0003d93ae0bd4c4d8707bcac8dd950c1",
        [
            "ns/inaccurate",
            "tss-2/inaccurate",
            "ns/inaccurate/overhead",
            "is/inaccurate/overhead",
            "tss-2/inaccurate/overhead",
        ],
        5,
    ),
    "figs-35-44": (
        "6f8c0e97d9bfeb3385e1bffa78fcf42dae54270fe2b1bc9f23e9d0c5c4fef8d2",
        ["ns", "is", "tss-2", "ns@1.2", "is@1.2", "tss-2@1.2"],
        6,
    ),
    "hybrids": (
        "a3bea15bd0b2f32ada0c435260ef6d389b9b915b60e0cb5b2b92b1c39f506379",
        ["ss-2", "ss-easy", "tss-cons", "ns"],
        4,
    ),
}


@pytest.fixture
def simulated(monkeypatch):
    """The cell fingerprint of every simulation run, in run order."""
    from repro.experiments.cache import cell_fingerprint, fingerprint_jobs
    from repro.sim.driver import SchedulingSimulation

    runs: list[str] = []
    run = SchedulingSimulation.run

    def counted(self, jobs, *args, **kwargs):
        runs.append(
            cell_fingerprint(
                fingerprint_jobs(jobs),
                self.cluster.n_procs,
                self.scheduler.config(),
                self.overhead_model,
                self.migratable,
            )
        )
        return run(self, jobs, *args, **kwargs)

    monkeypatch.setattr(SchedulingSimulation, "run", counted)
    return runs


def _golden_output(exp_id: str) -> paper.ExperimentOutput:
    if exp_id == "figs-35-44":
        return paper.load_variation("SDSC", loads=(1.0, 1.2), n_jobs=120, seed=7)
    return paper.run_figures([paper.EXPERIMENTS[exp_id]("SDSC", 120, 7)])[0]


@pytest.mark.parametrize("exp_id", sorted(_GOLDEN))
def test_experiment_matches_golden_report_and_cells(exp_id, simulated):
    """Same report bytes, same cells, and each distinct cell run once:
    the NS calibration run is the figure's own NS cell."""
    report_sha, cells, runs = _GOLDEN[exp_id]
    out = _golden_output(exp_id)
    assert hashlib.sha256(out.report.encode()).hexdigest() == report_sha
    assert set(simulated) == {_CELLS[c] for c in cells}
    assert len(simulated) == runs


@pytest.mark.parametrize(
    "exp_ids, runs",
    [
        (["tables-4-5", "figs-7-10", "figs-11-16", "figs-13-18", "hybrids"], 8),
        (["figs-19-30", "figs-31-34"], 8),
    ],
)
def test_figures_share_one_grid(exp_ids, runs, simulated):
    """One call over several figures simulates the union of their cells
    once each, and renders every report as the figure alone does."""
    outs = paper.run_figures([paper.EXPERIMENTS[i]("SDSC", 120, 7) for i in exp_ids])
    for exp_id, out in zip(exp_ids, outs, strict=True):
        assert hashlib.sha256(out.report.encode()).hexdigest() == _GOLDEN[exp_id][0]
    assert len(simulated) == len(set(simulated)) == runs


def test_compare_schemes_calibrates_from_its_own_ns_cell(simulated):
    from repro.experiments.runner import compare_schemes, tuned_schemes
    from repro.workload.synthetic import generate_trace

    results = compare_schemes(generate_trace("SDSC", 120, seed=7), 128, tuned_schemes())
    assert len(results) == 5
    assert len(simulated) == len(set(simulated)) == 5
