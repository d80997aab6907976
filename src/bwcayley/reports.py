"""JSON certification reports.

The canonical body of a report is byte-identical across runs with the same
arguments: enumeration orders are fixed, seeds are explicit, and timing
lives in a separate non-canonical field that is stripped before hashing or
comparing.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Any, Dict, List, Optional

from . import __version__

SCHEMA_VERSION = "1"
TOOL_NAME = "bwcayley"
TOOL_VERSION = __version__


def jsonable(value: Any) -> Any:
    """Exact values to JSON-safe ones; integral fractions become ints."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


class CheckOutcome:
    """Verdict of one certification check; equal when every field is.

    `passed` is None when the check was skipped; witnesses are replayable
    data (parameter pairs or canonical coordinate tuples).
    """

    def __init__(self, passed: Optional[bool], witness: Optional[tuple] = None,
                 counts: Optional[Dict[str, int]] = None, note: str = ""):
        self.passed, self.witness, self.note = passed, witness, note
        self.counts = {} if counts is None else counts

    def __eq__(self, other) -> bool:
        return type(other) is CheckOutcome and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"CheckOutcome({vars(self)})"


class Check:
    """One named certification check inside a report: the `CheckOutcome`
    its runner returned; `status` is pass, fail or skipped."""

    def __init__(self, name: str, paper_anchor: str, outcome: CheckOutcome, expected: Optional[str] = None,
                 millis: float = 0.0):
        self.name, self.paper_anchor, self.outcome = name, paper_anchor, outcome
        self.expected, self.millis = expected, millis

    @property
    def status(self) -> str:
        passed = self.outcome.passed
        return "skipped" if passed is None else ("pass" if passed else "fail")

    def canonical(self) -> Dict[str, Any]:
        body = {
            "name": self.name,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "witness": jsonable(self.outcome.witness),
            "counts": jsonable(self.outcome.counts),
        }
        if self.expected is not None:
            body["expected"] = self.expected
        if self.outcome.note:
            body["note"] = self.outcome.note
        return body


class Report:
    """Top-level certification report for one CLI command."""

    def __init__(self, command: str, field_spec: str, regime: Optional[str] = None,
                 seed: Optional[int] = None, checks: Optional[List[Check]] = None):
        self.command, self.field_spec, self.regime, self.seed = command, field_spec, regime, seed
        self.checks = [] if checks is None else checks

    def canonical_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "command": self.command,
            "field": self.field_spec,
            "checks": [c.canonical() for c in self.checks],
        }
        if self.regime is not None:
            body["regime"] = self.regime
        if self.seed is not None:
            body["seed"] = self.seed
        return body

    def full_dict(self) -> Dict[str, Any]:
        body = self.canonical_dict()
        body["timing_ms"] = {
            "total": round(sum(c.millis for c in self.checks), 3),
            "per_check": {c.name: round(c.millis, 3) for c in self.checks},
        }
        return body

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    def full_json(self) -> str:
        return json.dumps(self.full_dict(), sort_keys=True, indent=2)

    def mismatches(self) -> List[str]:
        """Names of checks whose status differs from the regime's prediction."""
        return [c.name for c in self.checks if c.expected is not None and c.status != c.expected]
