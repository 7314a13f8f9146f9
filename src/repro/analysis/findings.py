"""Findings model: what a rule reports and how a report is identified.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`Finding.identity` deliberately excludes the line number: baselined
exceptions (see :mod:`repro.analysis.baseline`) must survive unrelated
edits above them, so a finding is identified by *what* it is (rule, file,
normalized source line) rather than *where exactly* it sits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the lint run (unless baselined); ``WARNING``
    findings are reported but never affect the exit code — used for
    advisory signals like stale baseline entries.
    """

    ERROR = "error"
    WARNING = "warning"


def normalize_snippet(text: str) -> str:
    """Collapse a source line to its whitespace-insensitive form.

    Baseline matching compares snippets through this normalization so a
    re-indent (e.g. moving code into a conditional) does not orphan an
    intentional exception.
    """
    return " ".join(text.split())


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    rule:
        Rule identifier, e.g. ``"DET001"``.
    path:
        Normalized posix path of the offending file (see
        :func:`repro.analysis.context.normalize_path`).
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        What is wrong, specifically (names the offending symbol/field).
    scope:
        Dotted in-file scope (``"WorkStealingScheduler.run"``), or ``"<module>"``.
    snippet:
        The stripped source line the finding points at.
    fix_hint:
        How to fix it (from the rule; may be refined per finding).
    severity:
        :class:`Severity`; only ``ERROR`` findings affect the exit code.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    scope: str = "<module>"
    snippet: str = ""
    fix_hint: str = ""
    severity: Severity = field(default=Severity.ERROR)

    def identity(self) -> tuple[str, str, str]:
        """Line-number-free identity used for baseline matching."""
        return (self.rule, self.path, normalize_snippet(self.snippet))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "scope": self.scope,
            "message": self.message,
            "snippet": self.snippet,
            "fix_hint": self.fix_hint,
        }

    def render(self) -> str:
        """One text-format block: location line, snippet, hint."""
        parts = [
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.scope}] {self.message}"
        ]
        if self.snippet:
            parts.append(f"    {self.snippet}")
        if self.fix_hint:
            parts.append(f"    hint: {self.fix_hint}")
        return "\n".join(parts)
