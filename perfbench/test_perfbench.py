"""Tests of the benchmark itself: span accounting, wrappers, seeds, predictions.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAYER = {name: i for i, name in enumerate(spans.LAYERS)}


def test_self_time_subtracts_direct_children_only() -> None:
    # sim [0, 10] -> kernel [1, 4] -> cluster [2, 3]; sim -> cluster [5, 6]
    parent = [-1, 0, 1, 0]
    layer = [LAYER["sim"], LAYER["policy.kernel"], LAYER["cluster"], LAYER["cluster"]]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    totals = spans.self_times(parent, layer, start, end)
    assert totals["sim"] == (1, pytest.approx(6.0))
    assert totals["policy.kernel"] == (1, pytest.approx(2.0))
    assert totals["cluster"] == (2, pytest.approx(2.0))
    assert totals["profiles"] == (0, 0.0)
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_span_log_nests_calls_on_one_stack() -> None:
    log = spans.SpanLog()
    outer = log.open(LAYER["sim"], log.name_id("outer"))
    inner = log.open(LAYER["cluster"], log.name_id("inner"))
    log.close(inner)
    log.close(outer)
    assert list(log.parent) == [-1, outer]
    assert log.layer_totals()["cluster"][0] == 1


def _target_bindings() -> dict[tuple[int, str], object]:
    """Every attribute the tracer may swap, by (owner id, name)."""
    bound: dict[tuple[int, str], object] = {}
    for module, cls_name, methods, _ in spans.METHOD_TARGETS:
        root = getattr(importlib.import_module(module), cls_name)
        for cls in spans._subclasses(root):
            for name in methods:
                if name in cls.__dict__:
                    bound[(id(cls), name)] = cls.__dict__[name]
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and mod is not None:
            for module, fn_name, _, _ in spans.FUNCTION_TARGETS:
                if hasattr(mod, fn_name):
                    bound[(id(mod), fn_name)] = getattr(mod, fn_name)
    return bound


def test_tracer_and_phase_clock_restore_the_originals() -> None:
    from repro.cluster.machine import Cluster
    from repro.experiments import runner

    before = _target_bindings()
    original_allocate = Cluster.allocate
    with spans.Tracer(spans.SpanLog()):
        assert Cluster.allocate is not original_allocate
        assert runner.fresh_copies is not before[(id(runner), "fresh_copies")]
    after = _target_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with spans.PhaseClock():
        pass
    assert all(_target_bindings()[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs(name: str, tmp_path: Path) -> None:
    wl = workloads.WORKLOADS[name]
    fp = [wl.input_fingerprint(wl.setup(seed, tmp_path)) for seed in (1, 1, 2)]
    assert fp[0] == fp[1]
    assert fp[0] != fp[2]


def _traced_counts(name: str, scratch: Path) -> tuple[dict[str, float], run.Tally]:
    tally = run.Tally()
    metrics, _, _ = run.traced(workloads.WORKLOADS[name], 1, scratch, 0.0, None, tally)
    return {k: v for k, v in metrics.items() if not k.endswith(".self_s")}, tally


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory: pytest.TempPathFactory) -> dict[str, tuple]:
    out = {}
    for name in sorted(workloads.WORKLOADS):
        scratch = tmp_path_factory.mktemp(name)
        out[name] = (_traced_counts(name, scratch), _traced_counts(name, scratch))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name: str, traced_twice: dict[str, tuple]) -> None:
    (first, tally_1), (second, tally_2) = traced_twice[name]
    assert tally_1.failed == tally_2.failed == 0
    assert first == second
    assert first["sim.events"] > 0
    for key in ("sim.suspensions", "experiments.cache_hits", "experiments.cache_misses"):
        assert first.get(key, 0) == second.get(key, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_predicted_idle_layers_do_no_work(name: str, traced_twice: dict[str, tuple]) -> None:
    (counts, _), _ = traced_twice[name]
    prediction = run.load_expectations()["predictions"][name]
    for metric in prediction["idle"]:
        assert counts.get(metric, 0) == 0, metric
    for metric in prediction["stress"]:
        assert counts[metric] > 0, metric


def test_replay_cold_pass_never_hits_the_cache(traced_twice: dict[str, tuple]) -> None:
    (counts, _), _ = traced_twice["swf-replay"]
    assert counts["experiments.cold_cache_hits"] == 0
    assert counts["experiments.cache_hits"] == counts["experiments.cache_misses"] > 0


def test_benchmark_json_lists_every_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
