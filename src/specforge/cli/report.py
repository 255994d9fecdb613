"""Report assembly: one stable machine schema, one human text rendering.

The machine form is JSON with sorted keys, two-space indentation, and a
trailing newline; identical inputs produce byte-identical files.  Exact
rationals stay strings; the text rendering adds approximate decimals for
readability, clamping anything below the model's float tolerance to 0.

`encode_json` writes that JSON, and the compact one-line form of the
text report's ``replay`` lines.  Its bytes are those of
``json.dumps(value, indent=2, sort_keys=True)`` and, compact, of
``json.dumps(value, sort_keys=True)``, but it is one recursive function
over the C string quoter of ``json.encoder``, where the stdlib's
indented form falls back to its pure-Python encoder.  It also keeps the
``json`` package off the import that every command pays.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # a Python built without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from ..core import parse_rational
from ..hypotheses import HypothesisReport

__all__ = ["SCHEMA_VERSION", "Report", "encode_json", "render_json", "render_text"]

SCHEMA_VERSION = 1
_INFINITY = float("inf")


def _scalar(value) -> str:
    """A str, None, bool, int or float as JSON; anything else raises."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    """A key that is not a str, coerced as the stdlib coerces it."""
    if isinstance(key, (int, float)) or key is None:
        return _scalar(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _encode(value: dict | list | tuple, out: list[str], newline: str | None) -> None:
    """Append a dict, list or tuple to ``out``; ``newline`` opens its
    line, or is None for the compact form."""
    opener, closer = ("{", "}") if isinstance(value, dict) else ("[", "]")
    if not value:
        out.append(opener + closer)
        return
    if newline is None:
        inner, lead, separator = None, opener, ", "
    else:
        inner = newline + "  "
        lead, separator, closer = opener + inner, "," + inner, newline + closer
    keyed = opener == "{"
    # a dict is sorted before its keys are coerced, as the stdlib sorts it
    for item in sorted(value.items()) if keyed else value:
        if keyed:
            key, item = item
            lead += _quote(key if isinstance(key, str) else _key(key)) + ": "
        if isinstance(item, str):
            out.append(lead + _quote(item))
        elif isinstance(item, (dict, list, tuple)):
            out.append(lead)
            _encode(item, out, inner)
        else:
            out.append(lead + _scalar(item))
        lead = separator
    out.append(closer)


def encode_json(value, indent: bool = False) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True)`` writes it, with
    ``indent=2`` when ``indent``.

    Lists and tuples are arrays; dict keys are sorted, then coerced as the
    stdlib coerces them; floats, NaN and the infinities included, are
    written as the stdlib writes them.  Any other type raises `TypeError`.
    The value must hold no cycle.
    """
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    out: list[str] = []
    _encode(value, out, "\n" if indent else None)
    return "".join(out)


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
    return encode_json(report.as_dict(), indent=True) + "\n"


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
        replay = encode_json(witness.replay)
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
