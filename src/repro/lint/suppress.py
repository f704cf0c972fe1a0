"""``# repro-lint: disable=RPRxxx -- justification`` directives.

Two placements are honoured:

* **inline** -- the directive shares the line with the flagged code and
  suppresses matching findings on that line;
* **standalone** -- a comment line of its own suppresses matching
  findings on the *next* source line (the conventional "explain, then
  do" shape).

The justification after ``--`` is mandatory.  A directive without one
does not suppress anything; it is itself reported as an RPR000 finding,
so "silence the linter silently" is not an expressible state.  Multiple
rules may be listed comma-separated; ``disable=all`` matches every
rule (reserved for generated files, still justified).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.lint.findings import FRAMEWORK_RULE, Finding

DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)

RULE_ID_RE = re.compile(r"^(RPR\d{3}|all)$")


@dataclass(frozen=True)
class Directive:
    """One parsed suppression comment."""

    line: int
    #: line whose findings it suppresses (itself, or the next line)
    target_line: int
    rules: frozenset[str]
    justification: str


class Suppressions:
    """All directives of one file, plus the RPR000s for malformed ones."""

    def __init__(self, directives: list[Directive], errors: list[Finding]) -> None:
        self._by_line: dict[int, list[Directive]] = {}
        for d in directives:
            self._by_line.setdefault(d.target_line, []).append(d)
        self.errors = errors
        self.directives = directives

    def covering(self, rule: str, line: int) -> Directive | None:
        """The (justified) directive suppressing *rule* on *line*, if any.

        The engine marks the directive it returns as used, which is
        what the stale-directive audit reads.
        """
        for d in self._by_line.get(line, ()):
            if "all" in d.rules or rule in d.rules:
                return d
        return None


def parse_suppressions(source: str, path: str) -> Suppressions:
    """Extract directives from *source* via the token stream.

    Tokenising (rather than regexing raw lines) keeps directives inside
    string literals from being honoured and gets continuation lines
    right for free.  On tokenisation failure the caller's parse of the
    same source will already have produced an RPR000, so this returns
    empty quietly.
    """
    directives: list[Directive] = []
    errors: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return Suppressions([], [])

    #: physical lines that carry non-comment code (to tell inline from
    #: standalone placements)
    code_lines: set[int] = set()
    for tok in tokens:
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        for ln in range(tok.start[0], tok.end[0] + 1):
            code_lines.add(ln)

    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = DIRECTIVE_RE.search(tok.string)
        if m is None:
            continue
        line = tok.start[0]
        raw_rules = [r.strip() for r in m.group("rules").split(",") if r.strip()]
        why = (m.group("why") or "").strip()
        bad = [r for r in raw_rules if not RULE_ID_RE.match(r)]
        if bad or not raw_rules:
            errors.append(
                Finding(
                    rule=FRAMEWORK_RULE,
                    path=path,
                    line=line,
                    col=tok.start[1],
                    message=(
                        "malformed repro-lint directive: unknown rule id(s) "
                        + ", ".join(sorted(bad))
                        if bad
                        else "malformed repro-lint directive: no rules listed"
                    ),
                    snippet=tok.string.strip(),
                )
            )
            continue
        if not why:
            errors.append(
                Finding(
                    rule=FRAMEWORK_RULE,
                    path=path,
                    line=line,
                    col=tok.start[1],
                    message=(
                        "suppression lacks a justification "
                        "(write `# repro-lint: disable="
                        + ",".join(raw_rules)
                        + " -- <why this is safe>`)"
                    ),
                    snippet=tok.string.strip(),
                )
            )
            continue
        inline = line in code_lines
        directives.append(
            Directive(
                line=line,
                target_line=line if inline else line + 1,
                rules=frozenset(raw_rules),
                justification=why,
            )
        )
    return Suppressions(directives, errors)
