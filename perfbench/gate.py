"""Correctness gate: exit code, regime predictions and canonical digests.

A command passes when it exits 0, every check's status equals its
``expected`` prediction, and the sha256 of its canonical JSON (the report
with ``timing_ms`` stripped, dumped as ``Report.canonical_json`` does) equals
the digest recorded in ``digests.json`` for that command at that seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_recorded() -> Dict[str, str]:
    """{command key with its seed: canonical digest}."""
    return json.loads(DIGESTS_PATH.read_text())


def sha256_canonical(report: dict) -> str:
    """sha256 of the report's canonical JSON (``timing_ms`` stripped)."""
    body = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest()


def judge(
    key: str,
    exit_code: int,
    report_text: Optional[str],
    recorded: Dict[str, str],
) -> Tuple[List[str], Optional[str]]:
    """Problems with one command's result (empty when it is correct), and
    the canonical digest of its report, if it wrote one."""
    problems: List[str] = []
    if exit_code != 0:
        problems.append(f"{key}: exit code {exit_code}")
    if report_text is None:
        return problems + [f"{key}: no report written"], None
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return problems + [f"{key}: report is not JSON ({exc})"], None
    for check in report.get("checks", []):
        expected = check.get("expected")
        if expected is not None and check.get("status") != expected:
            problems.append(f"{key}: {check.get('name')} is {check.get('status')}, predicted {expected}")
    digest = sha256_canonical(report)
    want = recorded.get(key)
    if want is None:
        problems.append(f"{key}: no recorded digest")
    elif digest != want:
        problems.append(f"{key}: canonical digest {digest[:12]} != recorded {want[:12]}")
    return problems, digest


def per_check_seconds(report_text: Optional[str]) -> Dict[str, float]:
    """Non-canonical ``timing_ms.per_check`` of a report, in seconds."""
    if report_text is None:
        return {}
    try:
        timing = json.loads(report_text).get("timing_ms", {})
    except json.JSONDecodeError:
        return {}
    return {name: ms / 1000.0 for name, ms in timing.get("per_check", {}).items()}
