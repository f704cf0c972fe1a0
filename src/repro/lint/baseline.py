"""The accepted-findings baseline (``tools/lint_baseline.json``).

A baseline entry grandfathers one *reviewed* finding: the fingerprint
pins its content identity (rule + path + scope + source line, see
:meth:`repro.lint.findings.Finding.fingerprint`) and the mandatory
``justification`` records why it is acceptable.  CI then fails only on
*new* findings -- the ratchet that lets a rule ship before the last
debatable site is resolved, without ever letting the debt grow.

Entries whose fingerprint no longer matches anything are *stale*:
reported informationally (the code they excused is gone or changed) and
dropped by ``--update-baseline``.  Only a run that covered an entry's
rule *and* its file can call it stale, so a ``--select`` run or a
single-file run never prunes the entries it did not look at.  An entry
without a justification is an RPR000 finding in its own right -- the
baseline cannot be used to silence findings silently any more than
inline suppressions can.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Collection, Iterable

from repro.lint.findings import FRAMEWORK_RULE, Finding

BASELINE_VERSION = 1


@dataclass
class Baseline:
    """fingerprint -> entry mapping with (de)serialisation."""

    entries: dict[str, dict[str, Any]] = field(default_factory=dict)
    path: str | None = None

    # ------------------------------------------------------------------
    # io
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        p = Path(path)
        if not p.exists():
            return cls(entries={}, path=str(p))
        raw = json.loads(p.read_text(encoding="utf-8"))
        version = raw.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"{p}: unsupported baseline version {version!r} "
                f"(expected {BASELINE_VERSION})"
            )
        entries: dict[str, dict[str, Any]] = {}
        for entry in raw.get("entries", ()):
            fp = str(entry.get("fingerprint", ""))
            if fp:
                entries[fp] = dict(entry)
        return cls(entries=entries, path=str(p))

    def save(self, path: str | Path | None = None) -> None:
        target = Path(path if path is not None else self.path or "lint_baseline.json")
        doc = {
            "version": BASELINE_VERSION,
            "entries": [
                self.entries[fp]
                for fp in sorted(
                    self.entries,
                    key=lambda k: (
                        str(self.entries[k].get("path", "")),
                        str(self.entries[k].get("rule", "")),
                        str(self.entries[k].get("symbol", "")),
                        k,
                    ),
                )
            ],
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def unjustified(self) -> list[Finding]:
        """RPR000s for entries missing their mandatory justification."""
        out: list[Finding] = []
        for fp in sorted(self.entries):
            entry = self.entries[fp]
            if not str(entry.get("justification", "")).strip():
                out.append(
                    Finding(
                        rule=FRAMEWORK_RULE,
                        path=str(entry.get("path", self.path or "<baseline>")),
                        line=0,
                        col=0,
                        message=(
                            f"baseline entry {fp} ({entry.get('rule', '?')}) "
                            "has no justification"
                        ),
                        snippet=str(entry.get("snippet", "")),
                    )
                )
        return out

    def split(
        self,
        findings: list[Finding],
        *,
        rules: Collection[str] | None = None,
        paths: Collection[str] | None = None,
    ) -> tuple[list[Finding], list[Finding], list[str]]:
        """Partition into (active, baselined) and list stale fingerprints.

        An unmatched entry is stale only if the run checked its rule
        (*rules*; ``None`` means every rule) over its file (*paths*;
        ``None`` means every file).
        """
        active: list[Finding] = []
        baselined: list[Finding] = []
        seen: set[str] = set()
        for f in findings:
            fp = f.fingerprint()
            if fp in self.entries:
                baselined.append(f)
                seen.add(fp)
            else:
                active.append(f)
        stale = sorted(
            fp
            for fp, entry in self.entries.items()
            if fp not in seen
            and (rules is None or entry.get("rule") in rules)
            and (paths is None or entry.get("path") in paths)
        )
        return active, baselined, stale

    @staticmethod
    def entry_for(finding: Finding, justification: str) -> dict[str, Any]:
        """The serialised form of one accepted finding."""
        return {
            "fingerprint": finding.fingerprint(),
            "rule": finding.rule,
            "path": finding.path,
            "symbol": finding.symbol,
            "snippet": finding.snippet,
            "line": finding.line,  # informational; not part of the identity
            "justification": justification,
        }

    def absorb(self, findings: list[Finding], stale: Iterable[str] = ()) -> int:
        """``--update-baseline``: add new findings, drop the *stale* entries.

        New entries get an empty justification the author must fill in
        before the baseline passes (``unjustified`` reports them) --
        updating the baseline is deliberately not the end of the
        review, just its paperwork.  *stale* is :meth:`split`'s list,
        so entries outside the run's rules and files survive.  Returns
        the number added.
        """
        added = 0
        for f in findings:
            fp = f.fingerprint()
            if fp not in self.entries:
                self.entries[fp] = self.entry_for(f, justification="")
                added += 1
        for fp in stale:
            del self.entries[fp]
        return added
