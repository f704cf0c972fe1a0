"""Per-layer span tracing and phase clocks, installed from outside the program.

The benchmark attributes time to the simulator's layers without editing
them: :class:`Tracer` swaps each layer's public functions and methods
for thin wrappers that open a span on entry and close it on exit, and
puts the originals back afterwards.  Spans are kept in memory as one
flat table (:class:`SpanLog`) and reduced to per-layer call counts and
self times only when the traced run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans, so nested calls are never counted
twice (a ``Cluster.allocate`` inside a sweep counts for ``cluster``,
not for ``policy.preemption``).

Install the wrappers before any scheduler is constructed: the policy
kernel and its sweep keep bound methods, and a method bound before the
swap keeps calling the unwrapped original.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import reference

#: the layers spans are attributed to, in report order
LAYERS = (
    "workload",
    "sim",
    "policy.kernel",
    "policy.queue",
    "policy.reservation",
    "policy.backfill",
    "policy.preemption",
    "profiles",
    "cluster",
    "metrics",
    "analysis",
    "experiments",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: (module, class, methods, layer): the class and every subclass that
#: defines one of the methods itself gets it wrapped
METHOD_TARGETS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.sim.driver", "SchedulingSimulation", ("run",), "sim"),
    (
        "repro.schedulers.policy",
        "PolicyKernel",
        ("on_begin", "on_arrival", "on_finish", "on_timer", "on_kill", "backfill_pass"),
        "policy.kernel",
    ),
    ("repro.schedulers.policy", "QueuePolicy", ("order",), "policy.queue"),
    (
        "repro.schedulers.policy",
        "ReservationPolicy",
        ("plan_head", "sweep_guard", "on_arrival", "on_finish"),
        "policy.reservation",
    ),
    ("repro.schedulers.policy", "BackfillPolicy", ("fill",), "policy.backfill"),
    ("repro.schedulers.policy", "SweepPreemption", ("service_pass",), "policy.preemption"),
    (
        "repro.schedulers.policy",
        "TimeslicePreemption",
        ("on_arrival", "service_pass"),
        "policy.preemption",
    ),
    (
        "repro.schedulers.profiles",
        "AvailabilityProfile",
        ("__init__", "claim", "claim_running", "find_anchor", "free_at"),
        "profiles",
    ),
    (
        "repro.cluster.machine",
        "Cluster",
        ("allocate", "allocate_specific", "allocate_mask", "release", "owners_in_mask"),
        "cluster",
    ),
    ("repro.experiments.cache", "ResultCache", ("get", "put"), "experiments"),
)

#: (module, function, layer, per_item): module-level functions, rebound
#: in every ``repro`` module that imported them by name.  ``per_item``
#: functions return iterators; each ``next()`` on the result is a span.
FUNCTION_TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.workload.synthetic", "generate_trace", "workload", False),
    ("repro.workload.load", "scale_load", "workload", False),
    ("repro.workload.job", "fresh_copies", "workload", False),
    ("repro.workload.pipeline", "open_workload", "workload", True),
    ("repro.metrics.aggregate", "per_category_stats", "metrics", False),
    ("repro.metrics.aggregate", "overall_stats", "metrics", False),
    ("repro.analysis.report", "scheme_comparison_report", "analysis", False),
    ("repro.experiments.runner", "compare_schemes", "experiments", False),
    ("repro.experiments.parallel", "run_grid", "experiments", False),
    ("repro.experiments.parallel", "replay_sharded", "experiments", False),
    ("repro.experiments.parallel", "iter_time_shards", "experiments", True),
)


class SpanLog:
    """Flat in-memory span table: one row per call into a traced layer.

    Row *i* holds its parent row (``-1`` at the root), layer index, name
    index and ``perf_counter`` start/end.  Calls are synchronous and
    single-threaded, so the open spans always form one stack.
    """

    def __init__(self) -> None:
        self.parent = array("q")
        self.layer = array("b")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        #: totals of ``SimulationResult`` counters over every traced run
        self.sim_counts = {"sim.events": 0, "sim.suspensions": 0, "sim.kills": 0}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, layer: int, name: int) -> int:
        row = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.layer.append(layer)
        self.name.append(name)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def close(self, row: int) -> None:
        self.end[row] = time.perf_counter()
        self._stack.pop()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` for every layer in :data:`LAYERS`."""
        return self_times(self.parent, self.layer, self.start, self.end)

    def write(self, path: Path) -> None:
        """Write the table as gzipped TSV: row, parent, layer, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("row\tparent\tlayer\tname\tstart\tend\n")
            for row in range(len(self)):
                fh.write(
                    f"{row}\t{self.parent[row]}\t{LAYERS[self.layer[row]]}\t"
                    f"{self.names[self.name[row]]}\t{self.start[row]!r}\t{self.end[row]!r}\n"
                )


def self_times(
    parent: Any, layer: Any, start: Any, end: Any
) -> dict[str, tuple[int, float]]:
    """Per-layer ``(calls, self seconds)`` from a span table.

    Each span's self time is its duration minus the durations of its
    direct children; a layer's self time sums that over its spans.
    Parents precede their children in the table, as :class:`SpanLog`
    appends them.
    """
    n = len(start)
    child = [0.0] * n
    for row in range(n):
        p = parent[row]
        if p >= 0:
            child[p] += end[row] - start[row]
    calls = [0] * len(LAYERS)
    own = [0.0] * len(LAYERS)
    for row in range(n):
        ix = layer[row]
        calls[ix] += 1
        own[ix] += end[row] - start[row] - child[row]
    return {name: (calls[i], own[i]) for i, name in enumerate(LAYERS)}


class _TimedIterator:
    """Iterator proxy that records one span per ``next()``."""

    def __init__(self, inner: Iterator[Any], log: SpanLog, layer: int, name: int) -> None:
        self._inner = inner
        self._log = log
        self._layer = layer
        self._name = name

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        row = self._log.open(self._layer, self._name)
        try:
            return next(self._inner)
        finally:
            self._log.close(row)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class _Patches:
    """Attribute swaps that can all be undone, in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, new: Any, original: Any) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def swap_methods(
        self, root: type, names: tuple[str, ...], make: Callable[[Any, str], Any]
    ) -> None:
        for cls in _subclasses(root):
            for name in names:
                original = cls.__dict__.get(name)
                if original is not None:
                    self.swap(cls, name, make(original, f"{cls.__name__}.{name}"), original)

    def swap_function(self, original: Callable[..., Any], new: Callable[..., Any]) -> None:
        """Rebind *original* to *new* in every loaded ``repro`` module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.swap(mod, attr, new, original)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _class(module: str, name: str) -> type:
    cls = getattr(importlib.import_module(module), name)
    assert isinstance(cls, type)
    return cls


class Tracer:
    """Installs span wrappers on every layer target; a context manager.

    ``SchedulingSimulation.run`` additionally folds each result's event,
    suspension and kill counts into :attr:`SpanLog.sim_counts`.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._patches = _Patches()

    def _wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        log, ix, ident = self.log, _LAYER_INDEX[layer], self.log.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            row = log.open(ix, ident)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(row)

        return wrapper

    def _wrap_run(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        timed = self._wrap(fn, "sim", name)
        counts = self.log.sim_counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = timed(*args, **kwargs)
            counts["sim.events"] += result.events_dispatched
            counts["sim.suspensions"] += result.total_suspensions
            counts["sim.kills"] += result.total_kills
            return result

        return wrapper

    def _wrap_iter(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        log, ix, ident = self.log, _LAYER_INDEX[layer], self.log.name_id(f"{name}.next")

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedIterator(iter(fn(*args, **kwargs)), log, ix, ident)

        return wrapper

    def install(self) -> None:
        for module, cls_name, methods, layer in METHOD_TARGETS:
            make: Callable[[Any, str], Any] = (
                self._wrap_run
                if layer == "sim"
                else (lambda fn, name, layer=layer: self._wrap(fn, layer, name))
            )
            self._patches.swap_methods(_class(module, cls_name), methods, make)
        for module, fn_name, layer, per_item in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module), fn_name)
            wrap = self._wrap_iter if per_item else self._wrap
            self._patches.swap_function(original, wrap(original, layer, fn_name))

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class PhaseClock:
    """Clock for one timed phase: per-simulation times and machine speed.

    Patches ``SchedulingSimulation.run`` to record ``(seconds, jobs)``
    per simulation.  With *sample* on, it also times the reference loop
    on entry, on exit and at simulation boundaries once
    :attr:`MIN_SEGMENT` seconds have passed since the last sample.  The
    samples cut the phase into segments; :attr:`wall` and :attr:`cpu`
    exclude the sampling, and :attr:`at_reference` is the phase time at
    the reference machine's speed: each segment over the mean of the
    two reference times around it, summed, times ``REF_SECONDS``.
    Sampling between simulations follows speed changes that two samples
    around a seconds-long phase would miss.

    Traced runs turn sampling off: the pauses would land inside the
    spans of the calls that run simulations.
    """

    #: shortest segment worth a reference sample (one sample takes ~30 ms)
    MIN_SEGMENT = 0.1

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        #: ``(seconds, jobs)`` per simulation, in call order
        self.cells: list[tuple[float, int]] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.at_reference: float | None = None
        #: reference-loop samples, in seconds
        self.refs: list[float] = []
        self._segments: list[float] = []
        self._t0 = self._c0 = 0.0
        self._patches = _Patches()

    def _cut(self) -> None:
        """Close the running segment, time the reference loop, open the next."""
        self._segments.append(time.perf_counter() - self._t0)
        self.cpu += time.process_time() - self._c0
        self.refs.append(reference.reference_seconds())
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()

    def __enter__(self) -> "PhaseClock":
        cls = _class("repro.sim.driver", "SchedulingSimulation")
        clock = self

        def make(fn: Callable[..., Any], _name: str) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(self_: Any, jobs: Any, *args: Any, **kwargs: Any) -> Any:
                if clock.sample and time.perf_counter() - clock._t0 >= clock.MIN_SEGMENT:
                    clock._cut()
                t0 = time.perf_counter()
                result = fn(self_, jobs, *args, **kwargs)
                clock.cells.append((time.perf_counter() - t0, len(jobs)))
                return result

            return wrapper

        self._patches.swap_methods(cls, ("run",), make)
        if self.sample:
            self.refs.append(reference.reference_seconds())
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.sample:
            self._cut()
        else:
            self._segments.append(time.perf_counter() - self._t0)
            self.cpu += time.process_time() - self._c0
        self._patches.restore()
        self.wall = sum(self._segments)
        if self.sample:
            refs = zip(self.refs, self.refs[1:], strict=False)
            ratio = sum(seg / ((a + b) / 2) for seg, (a, b) in zip(self._segments, refs))
            self.at_reference = ratio * reference.REF_SECONDS
