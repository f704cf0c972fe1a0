"""``repro-lint``: the simulator's own static-analysis suite.

The determinism guarantees this repository sells -- byte-identical
traces across processes, content-addressed result caching, replayable
decision records -- are *structural* properties of the code, and the
hash-order bug fixed in ``SelectiveSuspensionScheduler._try_resume``
(PR 2) showed how silently they rot: one unsorted iteration over a
set-derived collection inside a decision path and every cross-process
reproduction claim is void.  This package enforces the invariants no
runtime test can see, statically, before a simulation ever runs.

Every rule reads a single file.  A cold run of the whole tree takes a
few seconds, so the linter runs serially with no cache and needs
nothing but the standard library.

Rule catalogue (see ``docs/STATIC_ANALYSIS.md`` for the full reference):

=======  ==============================================================
RPR001   unordered iteration inside scheduling-decision code paths
RPR002   wall-clock / unseeded-randomness nondeterminism sources
RPR003   exact float equality between simulation-time expressions
RPR008   broad except handler swallows faults untraced (same-file helpers
         followed)
RPR000   framework diagnostics (parse errors, malformed suppressions,
         stale suppressions on full-rule-set runs)
=======  ==============================================================

The scheme, policy, trace-vocabulary, recorder, config-purity, pool and
cache-read-path contracts are runtime tests on the real objects (see
the catalogue's "What this record decided"), and ruff's ``B006`` and
``RUF012`` cover mutable defaults and class-level mutable state.

Architecture
------------

* :mod:`repro.lint.checker` -- the :class:`~repro.lint.checker.Checker`
  AST-visitor base and per-file :class:`~repro.lint.checker.FileContext`
  (parent links, scope qualnames, lightweight set-type inference).
* :mod:`repro.lint.rules` -- the checkers RPR001-003/008 and the
  same-file call resolver RPR008 follows handlers with.
* :mod:`repro.lint.suppress` -- ``# repro-lint: disable=RPRxxx -- why``
  directives, the only way to accept a finding; a justification is
  *mandatory* (a bare disable is itself reported as RPR000), and every
  full-rule-set run reports the directives that no longer suppress
  anything.
* :mod:`repro.lint.engine` -- discovery, serial per-file analysis, the
  stale-suppression audit, human output.
* :mod:`repro.lint.sarif` -- SARIF 2.1.0 rendering for code-scanning
  upload.
* :mod:`repro.lint.cli` -- the ``repro-sched lint`` front end (also
  reachable as ``tools/run_lint.py``).
"""

from __future__ import annotations

from repro.lint.checker import Checker, FileContext
from repro.lint.engine import LintReport, lint_paths
from repro.lint.findings import Finding
from repro.lint.rules import PER_FILE_CHECKERS
from repro.lint.sarif import render_sarif
from repro.lint.suppress import Suppressions

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "PER_FILE_CHECKERS",
    "Suppressions",
    "lint_paths",
    "render_sarif",
]
