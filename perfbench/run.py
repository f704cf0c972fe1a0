"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics: an
untraced timing loop (per-cell times, ``raw_wall_s``, ``cpu_s``,
``warm_wall_s``), then traced repetitions with span wrappers installed
(``<layer>.calls``, ``<layer>.self_s``, counters, ``trace_overhead``).
The last line of standard output is the JSON result; progress and
failures go to stderr.

``wall_s`` and ``setup_s`` are given at the speed of the reference
machine: each measured time is divided by the time of the reference loop
in ``reference.py`` run right around it and multiplied by
``REF_SECONDS``.  Shared VMs drift by up to 2x in speed within minutes;
the ratio cancels that drift.  ``raw_wall_s`` and ``ref_s`` keep the
unscaled medians.

``--pin`` prints the cell fingerprints of one warm-up repetition in the
form ``expectations.json`` stores them, for re-pinning after an
intended change of behaviour.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: scratch space (SWF logs, result caches) and span dumps, inside the checkout
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: child processes timed for ``setup_s`` (the median is reported)
SETUP_PROBES = 5
#: cap on timed repetitions, for workloads much faster than ``--seconds``
MAX_REPS = 200

if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no simulator source at {SRC / 'repro'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load_expectations() -> dict[str, Any]:
    """Pinned fingerprints, per-workload layer predictions and exclusions."""
    return json.loads((HERE / "expectations.json").read_text(encoding="utf-8"))


def all_cells() -> list[str]:
    """Every per-cell metric stem, over all workloads."""
    return [name for wl in workloads.WORKLOADS.values() for name in wl.sim_names()]


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for layer in spans.LAYERS:
        if layer != "analysis":
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in (
        "sim.events",
        "sim.suspensions",
        "sim.kills",
        "experiments.cache_hits",
        "experiments.cache_misses",
        "experiments.cold_cache_hits",
    ):
        units[name] = "count"
    units.update(raw_wall_s="s", ref_s="s", cpu_s="s", warm_wall_s="s", trace_overhead="ratio")
    for cell in all_cells():
        units[f"cell.{cell}.s"] = "s"
        units[f"cell.{cell}.jobs_per_s"] = "1/s"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Cells attempted and failed; later repetitions must match the first."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str | None] | None = None

    def score(self, cells: dict[str, str | None]) -> None:
        if self.first is None:
            self.first = cells
        self.attempted += len(cells)
        for key, fp in cells.items():
            if fp is None or fp != self.first.get(key):
                self.failed += 1


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready over fresh child processes, at reference speed.

    The reference loop is timed before each child and after the last;
    each set-up time is scaled by ``REF_SECONDS`` over the mean of the
    reference times around it.
    """
    elapsed, refs = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-probe"]
    reference.reference_seconds(3)  # warm the loop up
    for _ in range(SETUP_PROBES):
        refs.append(reference.reference_seconds())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            assert child.stdout is not None
            ready = child.stdout.readline()
            elapsed.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=120)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {ready!r})")
    refs.append(reference.reference_seconds())
    return [r * reference.REF_SECONDS for r in _ratios(elapsed, refs)]


def _ratios(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time over the mean of the reference times around it."""
    return [w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:], strict=False)]


def untraced(
    wl: Any, inputs: Any, scratch: Path, seconds: float, pins: Any, tally: Tally
) -> dict[str, list[float]]:
    """Repeat the timed phase for *seconds* after one untimed warm-up.

    Returns per-repetition samples: ``at_reference_s`` (the phase time at
    reference speed), ``wall_s``, ``cpu_s``, ``warm_wall_s``, ``ref_s``
    (each reference sample) and ``cell.<name>`` seconds and jobs/s.
    """
    samples: dict[str, list[float]] = {}
    reference.reference_seconds(3)  # warm the loop up
    deadline = None
    for rep in range(MAX_REPS + 1):
        out = None  # free the last phase's outputs, so ru_maxrss holds one phase
        gc.collect()
        out = wl.run(inputs, scratch)
        tally.score(wl.check(inputs, out, pins))
        if rep == 0:  # warm-up: lazy imports and first-call paths
            deadline = time.perf_counter() + seconds
            continue
        clock = out.clock
        samples.setdefault("at_reference_s", []).append(clock.at_reference)
        samples.setdefault("wall_s", []).append(clock.wall)
        samples.setdefault("cpu_s", []).append(clock.cpu)
        samples.setdefault("ref_s", []).extend(clock.refs)
        if out.warm is not None:
            samples.setdefault("warm_wall_s", []).append(out.warm.wall)
        for name, (secs, jobs) in wl.cell_times(clock.cells).items():
            samples.setdefault(f"cell.{name}.s", []).append(secs)
            samples.setdefault(f"cell.{name}.jobs_per_s", []).append(jobs / secs)
        if time.perf_counter() >= deadline:
            break
    return samples


def traced(
    wl: Any, seed: int, scratch: Path, seconds: float, pins: Any, tally: Tally
) -> tuple[dict[str, float], float, spans.SpanLog]:
    """Set up and run the phase with span wrappers, for *seconds* (at least once).

    Returns the per-layer metrics (self times as medians over the
    repetitions), the median ratio of traced phase time to reference
    time, and the last span log.  Calls and counters must repeat
    exactly across repetitions.
    """
    self_s: dict[str, list[float]] = {}
    walls: list[float] = []
    refs: list[float] = []
    counts: dict[str, int] | None = None
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        refs.append(reference.reference_seconds())
        log = spans.SpanLog()
        with spans.Tracer(log):
            inputs = wl.setup(seed, scratch)
            out = wl.run(inputs, scratch, sample=False)
        tally.score(wl.check(inputs, out, pins))
        totals = log.layer_totals()
        rep_counts = {f"{layer}.calls": calls for layer, (calls, _) in totals.items()}
        rep_counts.update(log.sim_counts)
        rep_counts.update(out.cache_counts)
        if counts is None:
            counts = rep_counts
        elif rep_counts != counts:
            print("traced repetitions disagree on call counts", file=sys.stderr)
            tally.failed += 1
        for layer, (_, secs) in totals.items():
            self_s.setdefault(layer, []).append(secs)
        walls.append(out.clock.wall)
        if time.perf_counter() >= deadline:
            break
    refs.append(reference.reference_seconds())
    assert counts is not None
    metrics: dict[str, float] = dict(counts)
    for layer, values in self_s.items():
        metrics[f"{layer}.self_s"] = statistics.median(values)
    return metrics, statistics.median(_ratios(walls, refs)), log


def main(argv: list[str] | None = None) -> int:
    expected = load_expectations()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=expected["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    scratch = TMP / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            wl.setup(args.seed, scratch)
            print("ready", flush=True)
            return 0
        setup_times = [] if args.trace or args.pin else setup_seconds(args.workload, args.seed)
        inputs = wl.setup(args.seed, scratch)
        if args.pin:
            cells = wl.check(inputs, wl.run(inputs, scratch), None)
            print(json.dumps({args.workload: {str(args.seed): wl.pin_view(cells)}}, indent=1))
            return 0
        pins = expected["fingerprints"].get(args.workload, {}).get(str(args.seed))
        tally = Tally()
        samples = untraced(wl, inputs, scratch, args.seconds, pins, tally)
        values: dict[str, float] = {}
        if args.trace:
            layer_metrics, traced_ratio, log = traced(
                wl, args.seed, scratch, args.seconds / 2, pins, tally
            )
            log.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
            units = per_layer_units()
            values = {name: 0.0 for name in units}
            values.update(layer_metrics)
            medians = {k: statistics.median(v) for k, v in samples.items()}
            values.update({k: v for k, v in medians.items() if k in units})
            values["raw_wall_s"] = medians["wall_s"]
            untraced_ratio = medians["at_reference_s"] / reference.REF_SECONDS
            values["trace_overhead"] = traced_ratio / untraced_ratio
        else:
            units = END_TO_END_UNITS
            values["wall_s"] = statistics.median(samples["at_reference_s"])
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{args.workload} seed {args.seed}: {len(samples['wall_s'])} timed repetitions, "
            f"{tally.attempted} cells checked",
            file=sys.stderr,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
