"""Committed baseline of intentional rule exceptions.

Some findings are deliberate (the event-loop benchmark in
:mod:`repro.sim.bench` reads ``time.perf_counter`` because it *measures*
wall time) — the baseline
records them, each with a mandatory human-readable reason, so the lint
run stays a hard gate for everything else.  Entries match findings by
line-number-free identity (rule, normalized path, normalized snippet),
so unrelated edits never orphan an exception; entries that no longer
match anything are reported as *stale* so the file cannot accumulate
dead weight.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.findings import Finding, normalize_snippet
from repro.errors import AnalysisError

BASELINE_VERSION = 1

#: Conventional baseline filename, looked up automatically by the CLI.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineEntry:
    """One intentional exception."""

    __slots__ = ("rule", "path", "snippet", "reason")

    def __init__(self, rule: str, path: str, snippet: str, reason: str):
        if not reason or not reason.strip():
            raise AnalysisError(
                f"baseline entry for {rule} at {path} has no reason; every "
                f"intentional exception must say why it is intentional"
            )
        self.rule = rule
        self.path = path
        self.snippet = normalize_snippet(snippet)
        self.reason = reason

    def identity(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "snippet": self.snippet,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineEntry":
        try:
            return cls(
                rule=data["rule"],
                path=data["path"],
                snippet=data["snippet"],
                reason=data.get("reason", ""),
            )
        except KeyError as exc:
            raise AnalysisError(f"baseline entry missing field {exc}") from None

    @classmethod
    def from_finding(cls, finding: Finding, reason: str) -> "BaselineEntry":
        rule, path, snippet = finding.identity()
        return cls(rule=rule, path=path, snippet=snippet, reason=reason)


class Baseline:
    """A set of :class:`BaselineEntry` with match-use tracking."""

    __slots__ = ("entries", "_index", "_used")

    def __init__(self, entries: list[BaselineEntry] | None = None):
        self.entries = list(entries or [])
        self._index: dict[tuple[str, str, str], BaselineEntry] = {
            e.identity(): e for e in self.entries
        }
        self._used: set[tuple[str, str, str]] = set()

    def match(self, finding: Finding) -> BaselineEntry | None:
        """The entry suppressing *finding*, or None; marks the entry used."""
        entry = self._index.get(finding.identity())
        if entry is not None:
            self._used.add(entry.identity())
        return entry

    def stale_entries(self) -> list[BaselineEntry]:
        """Entries that matched no finding in the runs since construction —
        the violation was fixed (or moved); the entry should be removed."""
        return [e for e in self.entries if e.identity() not in self._used]

    # -- persistence ---------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        p = Path(path)
        try:
            data = json.loads(p.read_text())
        except OSError as exc:
            raise AnalysisError(f"cannot read baseline {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"baseline {p} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or "entries" not in data:
            raise AnalysisError(
                f"baseline {p} has no 'entries' key (expected the "
                f"repro-omp lint baseline schema)"
            )
        return cls([BaselineEntry.from_dict(e) for e in data["entries"]])

    def save(self, path: str | Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "entries": [
                e.to_dict()
                for e in sorted(self.entries, key=BaselineEntry.identity)
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
