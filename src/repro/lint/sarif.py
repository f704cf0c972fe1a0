"""SARIF 2.1.0 output for repro-lint (``--format sarif``).

One ``run`` with the full rule catalogue in ``tool.driver.rules``;
active findings become ``level: error`` results.  Each result carries
the finding's line-drift-tolerant content fingerprint under
``partialFingerprints``, so upload consumers track findings across
commits.

Output is rendered with sorted keys and no timestamps or absolute
paths, so SARIF reports are byte-identical across hash seeds and
machines -- the acceptance criterion every repro-lint surface shares.
"""

from __future__ import annotations

import json
import posixpath
from typing import Any, TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports nothing here)
    from repro.lint.engine import LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _result(f: Finding, uri_base: str) -> dict[str, Any]:
    uri = posixpath.join(uri_base, f.path) if uri_base else f.path
    return {
        "ruleId": f.rule,
        "level": "error",
        "message": {"text": f.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": f.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": f.fingerprint()},
    }


def render_sarif(report: "LintReport", *, uri_base: str = "") -> str:
    """The report as a SARIF 2.1.0 JSON document (deterministic)."""
    from repro.lint.engine import rule_catalogue

    rules = [
        {
            "id": rule,
            "name": rule,
            "shortDescription": {"text": title},
            "defaultConfiguration": {"level": "error"},
        }
        for rule, title in rule_catalogue()
    ]
    results = [_result(f, uri_base) for f in report.active]
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
