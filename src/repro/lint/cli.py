"""The ``repro-sched lint`` front end (also ``tools/run_lint.py``).

Usage::

    repro-sched lint [paths ...] [--format human|json|sarif]
                     [--output FILE] [--select RPR001,RPR003]
                     [--list-rules]

Exit status: 0 when no active findings, 1 when there are, 2 on usage
errors.  A finding is accepted only by a justified inline directive
(``# repro-lint: disable=RPRxxx -- why``).  ``--output`` writes the
formatted report to a file (the human summary still prints to stdout),
which is how CI produces its SARIF artifact without losing the terminal
report.  A run without ``--select`` also reports every suppression
directive that no longer suppresses anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import LintReport, lint_paths, render_human, rule_catalogue
from repro.lint.findings import render_json
from repro.lint.sarif import render_sarif

__all__ = ["build_parser", "main", "rule_catalogue"]


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
        description="repro-lint: determinism static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or package roots to analyse (default: src/repro)",
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
        help="comma-separated rule subset (e.g. RPR001,RPR003); skips the "
        "stale-suppression audit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _render(report: LintReport, fmt: str, *, uri_base: str) -> str:
    if fmt == "json":
        return render_json(report.active, suppressed=report.suppressed, files=report.files)
    if fmt == "sarif":
        return render_sarif(report, uri_base=uri_base)
    return render_human(report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule, title in rule_catalogue():
            print(f"{rule}  {title}")
        return 0

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]

    try:
        report = lint_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    uri_base = sarif_uri_base(list(args.paths))
    if args.output is not None:
        Path(args.output).write_text(
            _render(report, args.format, uri_base=uri_base) + "\n", encoding="utf-8"
        )
        print(render_human(report))
    else:
        print(_render(report, args.format, uri_base=uri_base))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
