"""Lint orchestration: discovery, per-file analysis, the cross-file pass.

Files are analysed one after another in discovery order (a cold run of
the whole tree takes a few seconds, so there is nothing for a worker
pool or a result cache to win back).  Each file's parsed context is
kept for the one cross-file pass, RPR004, which then runs over the
whole set.  On a full-rule-set run the stale-suppression audit follows:
every ``# repro-lint: disable`` directive that suppressed nothing in
either phase becomes an RPR000 finding.  The baseline folds in last,
and findings come back sorted by location.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.baseline import Baseline
from repro.lint.checker import FileContext
from repro.lint.findings import FRAMEWORK_RULE, Finding, assign_occurrences
from repro.lint.project import RULE as PROJECT_RULE
from repro.lint.project import run_project_checks
from repro.lint.rules import PER_FILE_CHECKERS
from repro.lint.suppress import Suppressions, parse_suppressions

#: directories never worth descending into
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class FileResult:
    """The per-file analysis of one source blob."""

    relpath: str
    source: str
    #: the file's directives; ``used_lines`` marks the ones that fired
    suppressions: Suppressions
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    #: suppression-system RPR000s (malformed / unjustified directives)
    errors: list[Finding] = field(default_factory=list)
    used_lines: set[int] = field(default_factory=set)
    #: the parsed file, for the cross-file pass (None on a syntax error)
    context: FileContext | None = None


@dataclass
class LintReport:
    """The merged outcome :func:`lint_paths` returns."""

    active: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    stale_baseline: list[str] = field(default_factory=list)
    files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def rule_catalogue() -> list[tuple[str, str]]:
    """(rule id, one-line title) pairs, in rule-id order."""
    rows = [(c.rule, c.title) for c in PER_FILE_CHECKERS]
    rows.append((PROJECT_RULE, "cross-file protocol conformance"))
    rows.append((FRAMEWORK_RULE, "framework diagnostics (parse/suppression/baseline)"))
    return sorted(rows)


def _package_relpath(path: Path) -> str:
    """*path* relative to the top of the package that contains it.

    Walks up while the parent directory is itself a package (has an
    ``__init__.py``), so ``src/repro/core/tss.py`` becomes
    ``core/tss.py`` -- the relpath a ``src/repro`` run gives the same
    file, which path-scoped rules and baseline fingerprints key on.  A
    file outside any package is its own root.
    """
    root = path.parent
    while (root / "__init__.py").exists() and (root.parent / "__init__.py").exists():
        root = root.parent
    return path.relative_to(root).as_posix()


def discover_files(paths: Sequence[str | Path]) -> list[tuple[Path, str]]:
    """(absolute path, root-relative posix path) for every ``.py`` file.

    A directory argument is a *root*: relpaths (and therefore baseline
    fingerprints) are relative to it.  A file argument is placed by
    :func:`_package_relpath`.
    """
    out: list[tuple[Path, str]] = []
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw).resolve()
        if p.is_file():
            if p.suffix == ".py" and p not in seen:
                seen.add(p)
                out.append((p, _package_relpath(p)))
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for f in sorted(p.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in f.parts):
                continue
            if f not in seen:
                seen.add(f)
                out.append((f, f.relative_to(p).as_posix()))
    return out


def _select(rules: frozenset[str] | None, rule: str) -> bool:
    return rules is None or rule in rules


def analyze_source(
    relpath: str, source: str, select: frozenset[str] | None = None
) -> FileResult:
    """Run every applicable per-file checker over one source blob.

    Suppressions are applied here; the caller receives surviving
    findings, the count of suppressed ones, and the directive lines
    that earned their keep.  A syntax error becomes a single RPR000
    finding -- unparseable decision code is a finding, not a crash.
    """
    suppressions = parse_suppressions(source, relpath)
    result = FileResult(relpath=relpath, source=source, suppressions=suppressions)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                rule=FRAMEWORK_RULE,
                path=relpath,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
                snippet=(exc.text or "").strip(),
            )
        )
        return result

    ctx = FileContext(relpath, source, tree)
    result.context = ctx
    raw: list[Finding] = []
    for checker_cls in PER_FILE_CHECKERS:
        if _select(select, checker_cls.rule) and checker_cls.applies_to(relpath):
            raw.extend(checker_cls(ctx).run())
    for f in sorted(raw, key=Finding.sort_key):
        if not _suppress(result, f):
            result.findings.append(f)
    if _select(select, FRAMEWORK_RULE):
        result.errors = list(suppressions.errors)
    return result


def _suppress(result: FileResult, finding: Finding) -> bool:
    """Count *finding* as suppressed if a directive in its file covers it."""
    directive = result.suppressions.covering(finding.rule, finding.line)
    if directive is None:
        return False
    result.suppressed += 1
    result.used_lines.add(directive.line)
    return True


def _unused_directives(result: FileResult) -> Iterator[Finding]:
    """RPR000 for every directive of *result* that suppressed nothing."""
    lines = result.source.splitlines()
    for d in result.suppressions.directives:
        if d.line in result.used_lines:
            continue
        yield Finding(
            rule=FRAMEWORK_RULE,
            path=result.relpath,
            line=d.line,
            col=0,
            message=(
                f"unused suppression: no {','.join(sorted(d.rules))} finding "
                "fires on the target line any more -- remove the stale directive"
            ),
            snippet=lines[d.line - 1].strip() if d.line <= len(lines) else "",
        )


def lint_paths(
    paths: Sequence[str | Path],
    *,
    baseline: Baseline | None = None,
    select: Iterable[str] | None = None,
) -> LintReport:
    """Lint *paths* and return the merged, baseline-filtered report.

    ``select`` restricts to a rule subset (tests use this to exercise
    one rule at a time).  A full-rule-set run also audits suppressions: a
    directive that suppressed nothing is an RPR000 finding.  Under
    ``select`` the audit is skipped, since an unselected rule cannot
    defend its directives.  Baseline entries are only judged stale for
    the rules and files this run covered.
    """
    selected = frozenset(select) if select is not None else None
    files = discover_files(paths)
    results = [
        analyze_source(relpath, abspath.read_text(encoding="utf-8"), selected)
        for abspath, relpath in files
    ]
    report = LintReport(files=len(results))
    merged: list[Finding] = []
    for res in results:
        merged.extend(res.findings)
        merged.extend(res.errors)

    if _select(selected, PROJECT_RULE):
        by_path = {res.relpath: res for res in results}
        contexts = {
            res.relpath: res.context for res in results if res.context is not None
        }
        for f in run_project_checks(contexts):
            if not _suppress(by_path[f.path], f):
                merged.append(f)

    if selected is None:
        for res in results:
            merged.extend(_unused_directives(res))
    report.suppressed = sum(res.suppressed for res in results)
    merged = assign_occurrences(sorted(merged, key=Finding.sort_key))

    if baseline is not None:
        merged.extend(baseline.unjustified())
        active, baselined, stale = baseline.split(
            merged, rules=selected, paths={relpath for _, relpath in files}
        )
        report.active = sorted(active, key=Finding.sort_key)
        report.baselined = baselined
        report.stale_baseline = stale
    else:
        report.active = merged
    return report


def render_human(report: LintReport, *, verbose: bool = False) -> str:
    """The terminal report."""
    lines = [f.render() for f in report.active]
    if verbose and report.baselined:
        lines.append("")
        lines.append("baselined (accepted) findings:")
        lines.extend(f"  {f.render()}" for f in report.baselined)
    for fp in report.stale_baseline:
        lines.append(f"note: stale baseline entry {fp} (code changed or removed)")
    lines.append(
        f"{len(report.active)} finding(s) in {report.files} file(s) "
        f"({report.suppressed} suppressed, {len(report.baselined)} baselined)"
    )
    return "\n".join(lines)
