"""Byte identity of canonical reports against the recorded benchmark digests.

perfbench/digests.json holds the sha256 of every benchmark command's
canonical report (``timing_ms`` stripped, ``json.dumps(sort_keys=True,
indent=2)``). The ``--seed 0`` commands are replayed here, so a change to any
certifier that moves a canonical byte fails tier-1, not only the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bwcayley.cli import main

DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
SEED0 = sorted(key for key in DIGESTS if key.endswith(" --seed 0"))


def test_seed0_command_set():
    assert len(SEED0) == 13


@pytest.mark.parametrize("key", SEED0)
def test_canonical_report_digest(key, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(key.split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    body = json.loads(out.read_text())
    body.pop("timing_ms")
    digest = hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest()
    assert digest == DIGESTS[key]
