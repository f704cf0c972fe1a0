"""The ``repro-sched lint`` front end (also ``tools/run_lint.py``).

Usage::

    repro-sched lint [paths ...] [--baseline FILE] [--format human|json|sarif]
                     [--output FILE] [--select RPR001,RPR004]
                     [--no-baseline] [--update-baseline] [--list-rules]
                     [--verbose]

Exit status: 0 when no active findings, 1 when there are, 2 on usage
errors.  The default baseline is ``tools/lint_baseline.json`` relative
to the repository root (located by walking up from the first path to a
``pyproject.toml``); ``--no-baseline`` shows the raw picture.
``--output`` writes the formatted report to a file (the human summary
still prints to stdout), which is how CI produces its SARIF artifact
without losing the terminal report.  A run without ``--select`` also
reports every suppression directive that no longer suppresses anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.baseline import Baseline
from repro.lint.engine import LintReport, lint_paths, render_human, rule_catalogue
from repro.lint.findings import render_json
from repro.lint.sarif import render_sarif

__all__ = ["build_parser", "main", "rule_catalogue"]

DEFAULT_BASELINE_NAME = "tools/lint_baseline.json"


def find_default_baseline(paths: Sequence[str]) -> Path | None:
    """Walk up from the first path to the repo root's baseline file."""
    start = Path(paths[0]).resolve() if paths else Path.cwd()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate / DEFAULT_BASELINE_NAME
    return None


def sarif_uri_base(paths: Sequence[str]) -> str:
    """The prefix that turns root-relative finding paths back into
    repo-relative SARIF URIs (``lint/engine.py`` -> ``src/repro/...``).

    Only the single-directory-root case gets a prefix; multi-root runs
    keep bare relpaths rather than guessing.
    """
    if len(paths) != 1:
        return ""
    p = Path(paths[0])
    if not p.is_dir():
        return ""
    return p.as_posix().rstrip("/")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched lint",
        description="repro-lint: determinism & protocol-conformance static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or package roots to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="accepted-findings file (default: tools/lint_baseline.json "
        "at the repo root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="absorb current findings into the baseline (new entries need "
        "justifications before the baseline passes) and prune the stale "
        "ones among the rules and files this run covered",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the formatted report to FILE and print the human "
        "summary to stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule subset (e.g. RPR001,RPR004); skips the "
        "stale-suppression audit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also show baselined findings"
    )
    return parser


def _render(report: LintReport, fmt: str, *, uri_base: str, verbose: bool) -> str:
    if fmt == "json":
        return render_json(
            report.active,
            suppressed=report.suppressed,
            baselined=len(report.baselined),
            files=report.files,
            stale_baseline=report.stale_baseline,
        )
    if fmt == "sarif":
        return render_sarif(report, uri_base=uri_base)
    return render_human(report, verbose=verbose)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule, title in rule_catalogue():
            print(f"{rule}  {title}")
        return 0

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]

    baseline: Baseline | None = None
    if not args.no_baseline:
        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else find_default_baseline(list(args.paths))
        )
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, OSError) as exc:
                print(f"error: cannot load baseline: {exc}", file=sys.stderr)
                return 2

    try:
        report = lint_paths(args.paths, baseline=baseline, select=select)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        if baseline is None:
            print("error: --update-baseline needs a baseline path", file=sys.stderr)
            return 2
        all_findings = sorted(
            report.active + report.baselined, key=lambda f: f.sort_key()
        )
        added = baseline.absorb(all_findings, report.stale_baseline)
        baseline.save()
        print(
            f"baseline updated: {len(baseline.entries)} entr(y/ies), "
            f"{added} new (fill in their justifications), "
            f"{len(report.stale_baseline)} stale pruned -> {baseline.path}"
        )
        return 0

    uri_base = sarif_uri_base(list(args.paths))
    if args.output is not None:
        Path(args.output).write_text(
            _render(report, args.format, uri_base=uri_base, verbose=args.verbose)
            + "\n",
            encoding="utf-8",
        )
        print(render_human(report, verbose=args.verbose))
    else:
        print(_render(report, args.format, uri_base=uri_base, verbose=args.verbose))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
