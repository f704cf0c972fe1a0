"""``repro-lint``: the simulator's own static-analysis suite.

The determinism guarantees this repository sells -- byte-identical
traces across processes, content-addressed result caching, replayable
decision records -- are *structural* properties of the code, and the
hash-order bug fixed in ``SelectiveSuspensionScheduler._try_resume``
(PR 2) showed how silently they rot: one unsorted iteration over a
set-derived collection inside a decision path and every cross-process
reproduction claim is void.  This package enforces those invariants
statically, before a simulation ever runs.

The per-file rules are backed by a whole-program layer: every module
yields an effect summary (what it calls, which nondeterminism seeds it
touches, how its handlers treat faults), the summaries link into a
project call graph, and effects propagate to a fixpoint -- so a
``time.time()`` three frames below a scheduler still surfaces *at the
scheduler*, where the reviewer is looking.

Rule catalogue (see ``docs/STATIC_ANALYSIS.md`` for the full reference):

=======  ==============================================================
RPR001   unordered iteration inside scheduling-decision code paths
RPR002   wall-clock / unseeded-randomness nondeterminism sources
RPR003   exact float equality between simulation-time expressions
RPR004   protocol conformance (Scheduler / Tracer / recorder lockstep)
RPR005   trace & cache purity (JSON-stable configs, picklable cells)
RPR006   mutable defaults and shared class-level mutable state
RPR007   transitive nondeterminism taint reaching decision/trace paths
RPR008   broad except handler swallows faults untraced (exception flow)
RPR009   effect drift in assumed-pure fingerprint/config contracts
RPR000   framework diagnostics (parse errors, malformed suppressions,
         stale suppressions under ``--report-unused-suppressions``)
=======  ==============================================================

Architecture
------------

* :mod:`repro.lint.checker` -- the :class:`~repro.lint.checker.Checker`
  AST-visitor base and per-file :class:`~repro.lint.checker.FileContext`
  (parent links, scope qualnames, lightweight set-type inference).
* :mod:`repro.lint.rules` -- the per-file checkers RPR001-003/005/006.
* :mod:`repro.lint.project` -- RPR004, the cross-file conformance pass
  (event vocabulary vs. counter folds vs. replay coverage; scheduler
  ``scheme_id``/``config()``/``describe()`` contract).
* :mod:`repro.lint.callgraph` -- per-module effect summaries
  (:class:`~repro.lint.callgraph.ModuleSummary`) and the project
  :class:`~repro.lint.callgraph.CallGraph`: import-aware dotted-name
  resolution and class-hierarchy method dispatch (nearest ancestor plus
  every override).
* :mod:`repro.lint.effects` -- the effect lattice (``rng``,
  ``wall-clock``, ``filesystem``, ``global-mutation``, ``hash-order``)
  with monotone fixpoint propagation over the call graph, plus the
  interprocedural rules RPR007-009.
* :mod:`repro.lint.summaries` -- content-addressed per-module analysis
  cache keyed on source bytes *and* an analyzer fingerprint (any edit
  to the linter itself invalidates everything); warm runs re-analyse
  only changed modules.
* :mod:`repro.lint.suppress` -- ``# repro-lint: disable=RPRxxx -- why``
  directives; a justification is *mandatory* (a bare disable is itself
  reported as RPR000), and stale directives are auditable via
  ``--report-unused-suppressions``.
* :mod:`repro.lint.baseline` -- the checked-in accepted-findings file
  (``tools/lint_baseline.json``) keyed by content fingerprints that
  survive line drift, each entry carrying its justification.
* :mod:`repro.lint.engine` -- discovery, per-file parallel analysis
  with deterministic merging, baseline application, human/JSON output.
* :mod:`repro.lint.sarif` -- SARIF 2.1.0 rendering for code-scanning
  upload (baselined findings carry ``suppressions`` entries).
* :mod:`repro.lint.cli` -- the ``repro-sched lint`` front end (also
  reachable as ``tools/run_lint.py``).
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.callgraph import CallGraph, ModuleSummary, build_call_graph
from repro.lint.checker import Checker, FileContext
from repro.lint.effects import propagate_effects
from repro.lint.engine import LintReport, lint_paths
from repro.lint.findings import Finding
from repro.lint.rules import PER_FILE_CHECKERS
from repro.lint.sarif import render_sarif
from repro.lint.summaries import SummaryCache
from repro.lint.suppress import Suppressions

__all__ = [
    "Baseline",
    "CallGraph",
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "ModuleSummary",
    "PER_FILE_CHECKERS",
    "SummaryCache",
    "Suppressions",
    "build_call_graph",
    "lint_paths",
    "propagate_effects",
    "render_sarif",
]
