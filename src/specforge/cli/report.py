"""Report assembly: one stable machine schema, one human text rendering.

The machine form is JSON with sorted keys, two-space indentation, and a
trailing newline; identical inputs produce byte-identical files.  Exact
rationals stay strings; the text rendering adds approximate decimals for
readability, clamping anything below the model's float tolerance to 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from ..core import parse_rational
from ..hypotheses import HypothesisReport

__all__ = ["SCHEMA_VERSION", "Report", "render_json", "render_text"]

SCHEMA_VERSION = 1


class Report:
    """Results of one CLI command over one model file."""

    def __init__(self, command: str, model_path: str, model_name: str,
                 model_sha256: str, cells: int, budget: int):
        self.command = command
        self.model_path = model_path
        self.model_name = model_name
        self.model_sha256 = model_sha256
        self.cells = cells
        self.budget = budget
        self.suites: list[HypothesisReport] = []
        self.gate: list[str] = []
        self.notes: list[str] = []

    def add(self, suite: HypothesisReport, gate: bool = True) -> None:
        """Record a suite result; gated suites decide the exit status."""
        self.suites.append(suite)
        if gate:
            self.gate.append(suite.name)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        gated = set(self.gate)
        return all(s.passed for s in self.suites if s.name in gated)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "specforge",
            "command": self.command,
            "model": {
                "path": self.model_path,
                "name": self.model_name,
                "sha256": self.model_sha256,
            },
            "enumeration": {"cells": self.cells, "budget": self.budget},
            "suites": [s.as_dict() for s in self.suites],
            "gate": list(self.gate),
            "notes": list(self.notes),
            "summary": {"passed": self.passed, "exit_code": self.exit_code},
        }


def render_json(report: Report) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def _approx(text: str, tolerance: Fraction) -> str | None:
    """Decimal companion for an exact rational string, if it is one."""
    try:
        value = parse_rational(text)
    except Exception:
        return None
    if value.denominator == 1:
        return None
    if value < tolerance:
        return "~0.0"
    return f"~{float(value):.6g}"


def _witness_lines(witnesses: Iterable, tolerance: Fraction) -> list[str]:
    lines = []
    for index, witness in enumerate(witnesses):
        lines.append(f"    witness {index}: {witness.description}")
        if witness.lhs is not None or witness.rhs is not None:
            lhs = witness.lhs if witness.lhs is not None else "?"
            rhs = witness.rhs if witness.rhs is not None else "?"
            extra = ""
            approx_l = _approx(lhs, tolerance)
            approx_r = _approx(rhs, tolerance)
            if approx_l or approx_r:
                extra = f"  ({approx_l or lhs} vs {approx_r or rhs})"
            lines.append(f"      lhs {lhs} != rhs {rhs}{extra}")
        replay = json.dumps(witness.replay, sort_keys=True)
        lines.append(f"      replay {replay}")
    return lines


def render_text(report: Report, tolerance: Fraction) -> str:
    lines = [
        f"specforge {report.command}: {report.model_name} ({report.model_path})",
        f"  enumeration cells {report.cells} (budget {report.budget})",
    ]
    gated = set(report.gate)
    for suite in report.suites:
        verdict = "PASS" if suite.passed else "FAIL"
        mark = "" if suite.name in gated else "  [informational]"
        summary = _suite_summary(suite)
        lines.append(f"  {verdict} {suite.name}{mark}{summary}")
        if not suite.passed:
            lines.extend(_witness_lines(suite.witnesses, tolerance))
    for note in report.notes:
        lines.append(f"  note: {note}")
    state = "PASS" if report.passed else "FAIL"
    lines.append(f"summary: {state} (exit {report.exit_code})")
    return "\n".join(lines) + "\n"


def _suite_summary(suite: HypothesisReport) -> str:
    """A one-phrase data summary for the text report, if one stands out."""
    data = suite.data
    for key in ("index_points", "comparisons", "points_compared",
                "permutations_tested", "evaluations", "rederived_points",
                "checks"):
        if key in data:
            value = data[key]
            if isinstance(value, dict):
                value = sum(v for v in value.values() if isinstance(v, int))
            return f"  ({key}: {value})"
    return ""
