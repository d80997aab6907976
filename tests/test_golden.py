"""Byte identity of canonical reports against the recorded benchmark digests.

perfbench/digests.json holds the sha256 of every benchmark command's
canonical report (``timing_ms`` stripped, ``json.dumps(sort_keys=True,
indent=2)``). The ``--seed 0`` commands are replayed here, and the rational
commands at every other pool seed too, so a change to any certifier that
moves a canonical byte fails tier-1, not only the benchmark. The digests are
read, never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bwcayley.cli import main

DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
SEED0 = sorted(key for key in DIGESTS if key.endswith(" --seed 0"))
# The commands whose canonical bytes depend on the seed, replayed at every
# other pool seed: the rational spot checks and the ideal probe's samples.
RATIONAL = ("certify --field q", "ideal --degree 2", "ideal --degree 2 --samples 60", "ideal --degree 3 --samples 60")
RATIONAL_SEEDS = [f"{command} --seed {seed}" for command in RATIONAL for seed in range(1, 16)]


def test_seed0_command_set():
    assert len(SEED0) == 13


def test_rational_replay_set():
    assert set(RATIONAL_SEEDS) <= set(DIGESTS) and len(RATIONAL_SEEDS) == 60


def _replay(key, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(key.split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    body = json.loads(out.read_text())
    body.pop("timing_ms")
    digest = hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest()
    assert digest == DIGESTS[key]


@pytest.mark.parametrize("key", SEED0)
def test_canonical_report_digest(key, tmp_path, capsys):
    _replay(key, tmp_path, capsys)


@pytest.mark.parametrize("key", RATIONAL_SEEDS)
def test_rational_report_digest(key, tmp_path, capsys):
    _replay(key, tmp_path, capsys)
