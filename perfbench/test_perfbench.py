"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bwcayley.cli  # noqa: E402
from gate import judge, load_recorded  # noqa: E402
from passes import SpeedProbe, calls_differ, setup_sample  # noqa: E402
from runsets import verdict  # noqa: E402
from tracer import TARGETS, SpanStack, Stat, Tracer, metric_prefix  # noqa: E402
from workloads import COMMAND_SEEDS, command_key, pass_seeds, with_seed  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self) -> float:
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # A [0,10] has children B [1,4] and D [5,9]; B has child C [2,3].
    spans = SpanStack(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a, b, c, d = Stat(), Stat(), Stat(), Stat()
    ta = spans.enter()
    tb = spans.enter()
    tc = spans.enter()
    spans.leave(tc, c)
    spans.leave(tb, b)
    td = spans.enter()
    spans.leave(td, d)
    spans.leave(ta, a)
    assert (a.self_s, b.self_s, c.self_s, d.self_s) == (3, 2, 1, 4)
    assert spans.depth == 0
    assert all(s.calls == 1 for s in (a, b, c, d))


def test_speed_probe_samples_during_an_item():
    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return "done"

    probe = SpeedProbe()
    result, raw, cpu, scaled = probe.measure(spin)
    assert result == "done"
    assert len(probe.samples) >= 2 + 3  # bracket samples and in-item samples
    assert 0.2 < raw < 0.3  # the probe's own time inside the item is left out
    assert 0 < cpu < 0.3
    assert scaled > 0
    probe.measure(lambda: None)
    assert len(probe.samples) == 2


def test_setup_sample_is_a_positive_time():
    assert 0 < setup_sample() < 10


def _run(argv, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return bwcayley.cli.main(argv + ["--out", str(out)])


def _originals():
    mods = {n: m for n, m in sys.modules.items() if n.startswith("bwcayley.")}
    out = {}
    for mod_name, attr in TARGETS:
        owner_name, _, func = attr.rpartition(".")
        home = mods[f"bwcayley.{mod_name}"]
        out[(mod_name, attr)] = getattr(home, owner_name).__dict__[func] if owner_name else getattr(home, func)
    return out, mods


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    originals, mods = _originals()
    bindings = [
        (mod, key)
        for mod in mods.values()
        for key, value in vars(mod).items()
        if any(value is fn for fn in originals.values())
    ]
    with Tracer() as tracer:
        assert all(not any(getattr(mod, key) is fn for fn in originals.values()) for mod, key in bindings)
        assert bwcayley.cli.canonicalize is not originals[("projspace", "canonicalize")]
        assert _run(["certify", "--field", "gf:2"], tmp_path / "r.json") == 0
        sites = tracer.patch_sites()
    assert len(sites) >= len(TARGETS)
    assert all(getattr(owner, key) is original for owner, key, original in sites)
    assert _originals()[0] == originals
    assert tracer.metrics()["projspace.line_in_plane.calls"] > 0
    assert tracer.metrics()["reports.full_json.calls"] == 1
    assert not tracer.size_errors and tracer.sizes["gf2"]["points"] == 15


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            for argv in (["certify", "--field", "gf:3"], ["klein", "--field", "gf:5"], ["ideal", "--degree", "1"]):
                _run(argv + ["--seed", "4"], tmp_path / "r.json")
        counts.append({k: v for k, v in tracer.metrics().items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert calls_differ(counts[0], counts[1]) == []
    bumped = dict(counts[1], **{"linalg.rref.calls": counts[1]["linalg.rref.calls"] + 1})
    assert calls_differ(counts[0], bumped) == [
        f"linalg.rref.calls: {counts[0]['linalg.rref.calls']} calls in the first traced pass,"
        f" {bumped['linalg.rref.calls']} in the second"
    ]
    assert counts[0][f"{metric_prefix('idealprobe', 'vanishing_space')}.calls"] == 2


GF7 = ["certify", "--field", "gf:7"]
GF7_KEY = command_key(GF7, 0)


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate") / "r.json"
    assert _run(with_seed(GF7, 0), out) == 0
    return out.read_text()


def test_gate_accepts_recorded_reports_at_pool_seeds_only(report_text, tmp_path):
    recorded = load_recorded()
    assert judge(GF7_KEY, 0, report_text, recorded)[0] == []
    retimed = json.loads(report_text)
    retimed["timing_ms"]["total"] += 1000.0
    assert judge(GF7_KEY, 0, json.dumps(retimed), recorded)[0] == []
    out = tmp_path / "r.json"
    last = COMMAND_SEEDS - 1
    _run(with_seed(GF7, last), out)
    assert judge(command_key(GF7, last), 0, out.read_text(), recorded)[0] == []
    _run(with_seed(GF7, COMMAND_SEEDS), out)
    assert judge(command_key(GF7, COMMAND_SEEDS), 0, out.read_text(), recorded)[0] == [
        f"{command_key(GF7, COMMAND_SEEDS)}: no recorded digest"
    ]


def test_pass_seeds_cycle_through_the_pool():
    seeds = list(itertools.islice(pass_seeds(COMMAND_SEEDS - 2), COMMAND_SEEDS + 1))
    assert seeds[:3] == [COMMAND_SEEDS - 2, COMMAND_SEEDS - 1, 0]
    assert sorted(set(seeds)) == list(range(COMMAND_SEEDS))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["checks"][0]["counts"].update(violations=0),
        lambda r: r["checks"][3].update(witness=[0, 0, 0, 1]),
        lambda r: r.update(regime="SpreadAndCovering"),
        lambda r: r.update(seed=r["seed"] + 1),
    ],
)
def test_gate_rejects_a_tampered_report(report_text, tamper):
    report = json.loads(report_text)
    tamper(report)
    problems, _ = judge(GF7_KEY, 0, json.dumps(report), load_recorded())
    assert problems


def test_gate_rejects_exit_code_and_prediction_mismatch(report_text):
    recorded = load_recorded()
    assert judge(GF7_KEY, 2, report_text, recorded)[0]
    report = json.loads(report_text)
    report["checks"][0]["status"] = "pass"  # predicted fail over GF(7)
    assert judge(GF7_KEY, 0, json.dumps(report), recorded)[0]
    assert judge(GF7_KEY, 0, None, recorded)[0]


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    pairs = lambda change: list(zip(parent, change))
    faster = [p * 0.8 for p in parent]
    assert verdict(parent, faster, pairs(faster), spec) == (1.0, "improved")
    slower = [p * 1.3 for p in parent]
    assert verdict(parent, slower, pairs(slower), spec) == (0.0, "worse")
    same = list(reversed(parent))
    assert verdict(parent, same, pairs(same), spec)[1] == "no worse"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), spec) == (0.5, "unresolved")
