"""scripts/certify_all.py: one battery run per field, reports equal to the CLI's."""

import importlib.util
import json
from pathlib import Path

import pytest

from bwcayley import bwspread
from bwcayley.cli import main as cli_main
from bwcayley.projspace import GeometryError
from bwcayley.reports import CheckOutcome

SCRIPT = Path(__file__).parents[1] / "scripts" / "certify_all.py"


def script_main(argv):
    spec = importlib.util.spec_from_file_location("certify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def canonical(path: Path) -> str:
    body = json.loads(path.read_text())
    body.pop("timing_ms")
    return json.dumps(body, sort_keys=True, indent=2)


def test_reports_match_the_cli_and_the_battery_runs_once(tmp_path, capsys, monkeypatch):
    fields = ["gf:2", "gf:7", "q"]
    calls = []
    partial = bwspread.certify_partial_spread
    monkeypatch.setattr(
        bwspread, "certify_partial_spread", lambda F, **kw: calls.append(F) or partial(F, **kw)
    )
    out_dir = tmp_path / "all"
    assert script_main(["--fields", ",".join(fields), "--out-dir", str(out_dir)]) == 0
    assert len(calls) == len(fields)
    for field in fields:
        name = field.replace(":", "_")
        cli_out = tmp_path / f"cli_{name}.json"
        assert cli_main(["certify", "--field", field, "--out", str(cli_out)]) == 0
        assert canonical(out_dir / f"certify_{name}.json") == canonical(cli_out)
    capsys.readouterr()


def test_mismatch_exits_two_without_out_dir(capsys, monkeypatch):
    monkeypatch.setattr(
        bwspread,
        "certify_partial_spread",
        lambda F, seed=0: CheckOutcome(passed=False, witness=((0, 0), (1, 1))),
    )
    assert script_main(["--fields", "gf:5"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["gf:4", "gf:x", "gf:²"])
def test_bad_field_is_a_usage_error(spec, capsys):
    assert script_main(["--fields", f"gf:2,{spec}"]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("certify_all: ") and out.err.count("\n") == 1
    assert out.out == ""  # the specs are checked before any field runs


@pytest.mark.parametrize("fields", ["", ","])
def test_empty_panel_is_a_usage_error(fields, capsys):
    assert script_main(["--fields", fields]) == 1
    out = capsys.readouterr()
    assert out.err == "certify_all: --fields names no field\n"
    assert out.out == ""


def test_check_exception_exits_three(capsys, monkeypatch):
    def broken(F):
        raise GeometryError(f"no cube root of unity in {F.spec_string()}")

    monkeypatch.setattr(bwspread, "nontrivial_cube_root_of_unity", broken)
    assert script_main(["--fields", "gf:5"]) == 3
    err = capsys.readouterr().err
    assert err == "certify_all: internal error in check partial_spread: GeometryError: no cube root of unity in gf:5\n"


def test_unwritable_out_dir_is_one_line_and_exits_one(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert script_main(["--fields", "gf:2", "--out-dir", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"certify_all: cannot write the report to {blocker / 'certify_gf_2.json'}: ")
    assert err.count("\n") == 1  # no traceback
