#!/usr/bin/env python
"""Run repro-lint from a source checkout (no installation needed).

Thin wrapper over :mod:`repro.lint.cli` that bootstraps ``src`` onto
``sys.path`` and runs from the repository root, so CI and pre-commit
hooks can invoke it as::

    python tools/run_lint.py                    # lint src/repro
    python tools/run_lint.py --list-rules
    python tools/run_lint.py --format json
    python tools/run_lint.py --format sarif --output repro-lint.sarif
    python tools/run_lint.py src/repro/core/tss.py   # one file, as core/tss.py

Exit status: 0 clean, 1 findings, 2 usage error (same as the CLI).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    os.chdir(REPO_ROOT)
    from repro.lint.cli import main as lint_main

    return lint_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
