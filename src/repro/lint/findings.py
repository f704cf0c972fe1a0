"""Finding records, fingerprints and output formatting.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`~Finding.fingerprint` (the SARIF ``partialFingerprints`` entry
code scanning tracks findings by) deliberately excludes the line
*number*, so a finding survives unrelated edits above it: the identity
is ``rule | path | enclosing scope | normalised source line`` plus an
occurrence index for repeats of the same line text within the same
scope.  A finding "moves" only when the offending line itself (or its
scope) changes, at which point re-review is exactly what we want.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

#: Framework-diagnostic pseudo-rule (parse failures, malformed or
#: unjustified suppression directives, stale directives).
FRAMEWORK_RULE = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    #: path relative to the lint root, POSIX separators
    path: str
    line: int
    col: int
    message: str
    #: the stripped source line (fingerprint ingredient)
    snippet: str = ""
    #: dotted enclosing scope (``"Class.method"``; ``"<module>"`` at top level)
    symbol: str = "<module>"
    #: index among findings sharing (rule, path, symbol, snippet); set by
    #: the engine after per-file merging so fingerprints are stable
    occurrence: int = field(default=0, compare=False)

    def fingerprint(self) -> str:
        """Line-drift-tolerant content identity (see module docstring)."""
        payload = "|".join(
            (self.rule, self.path, self.symbol, self.snippet, str(self.occurrence))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def assign_occurrences(findings: Iterable[Finding]) -> list[Finding]:
    """Number repeated (rule, path, symbol, snippet) findings stably.

    Input order must already be deterministic (the engine sorts by
    location first); the occurrence index is the tie-breaker that keeps
    two identical lines in one function from sharing a fingerprint.
    """
    counts: dict[tuple[str, str, str, str], int] = {}
    out: list[Finding] = []
    for f in findings:
        key = (f.rule, f.path, f.symbol, f.snippet)
        n = counts.get(key, 0)
        counts[key] = n + 1
        out.append(
            f
            if f.occurrence == n
            else Finding(
                rule=f.rule,
                path=f.path,
                line=f.line,
                col=f.col,
                message=f.message,
                snippet=f.snippet,
                symbol=f.symbol,
                occurrence=n,
            )
        )
    return out


def render_json(findings: list[Finding], *, suppressed: int, files: int) -> str:
    """The machine-readable report (one JSON document)."""
    return json.dumps(
        {
            "findings": [f.as_dict() for f in findings],
            "counts": {"active": len(findings), "suppressed": suppressed, "files": files},
        },
        indent=2,
        sort_keys=True,
    )
