"""CLI contract: exit codes, report schema, byte-stable canonical JSON."""

import json
import sys

import pytest

from bwcayley import bwspread, projspace
from bwcayley.bwspread import CheckOutcome
from bwcayley.cli import Run, main
from bwcayley.field import PrimeField


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def canonical(payload: str) -> dict:
    body = json.loads(payload)
    body.pop("timing_ms", None)
    return body


class TestExitCodes:
    @pytest.mark.parametrize("field", ["gf:2", "gf:3", "gf:5", "gf:7", "q"])
    def test_certify_matches_prediction(self, capsys, field):
        code, out, _ = run(capsys, "certify", "--field", field)
        assert code == 0, out

    def test_non_prime_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--field", "gf:6")
        assert code == 1 and "prime" in err

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "certify", "--field", "zz")
        assert code == 1

    def test_char3_on_wrong_field_is_usage_error(self, capsys):
        code, _, err = run(capsys, "char3", "--field", "gf:5")
        assert code == 1 and "characteristic 3" in err

    def test_ideal_degree_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ideal", "--degree", "0")
        assert code == 1

    @pytest.mark.parametrize("samples,code", [(20, 1), (21, 0)])
    def test_ideal_samples_at_least_the_monomial_count(self, capsys, samples, code):
        got, _, err = run(capsys, "ideal", "--degree", "2", "--samples", str(samples))
        assert got == code
        assert ("--samples must be at least 21" in err) == (code == 1)

    def test_klein_needs_finite_field(self, capsys):
        code, _, err = run(capsys, "klein", "--field", "q")
        assert code == 1 and "finite" in err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_out_to_missing_directory_is_reported(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "certify", "--field", "gf:2", "--out", str(path))
        assert code == 1
        assert "cannot write the report" in err and str(path) in err
        assert "Traceback" not in err

    def test_violation_exits_two(self, capsys, monkeypatch):
        # force a check that the regime predicts should pass to fail
        monkeypatch.setattr(
            bwspread,
            "certify_partial_spread",
            lambda F, spot_checks=200, seed=0: CheckOutcome(passed=False, witness=((0, 0), (1, 1))),
        )
        code, out, _ = run(capsys, "certify", "--field", "gf:5")
        assert code == 2
        assert "MISMATCH" in out

    def test_certify_builds_O_once(self, capsys, monkeypatch):
        calls = []
        build_O = bwspread.build_O
        monkeypatch.setattr(bwspread, "build_O", lambda F: calls.append(F) or build_O(F))
        code, _, _ = run(capsys, "certify", "--field", "gf:5")
        assert code == 0 and len(calls) == 1

    def test_certify_enumerates_points_and_planes_once(self, capsys, monkeypatch):
        # patch every module's binding, so a check that imported its own copy is counted too
        calls = {"enumerate_points": 0, "enumerate_planes": 0}
        for name in calls:
            original = getattr(projspace, name)

            def counted(F, name=name, original=original):
                calls[name] += 1
                return original(F)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("bwcayley") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, "certify", "--field", "gf:5")
        assert code == 0 and calls == {"enumerate_points": 1, "enumerate_planes": 0}

    def test_run_holds_one_list_for_points_and_planes(self):
        run = Run(PrimeField(5))
        assert run.planes is run.points
        assert run.points == projspace.enumerate_planes(PrimeField(5))

    def test_check_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(F):
            raise bwspread.WrongLineCount("built 25 lines, expected 26")

        monkeypatch.setattr(bwspread, "build_O", broken)
        code, out, err = run(capsys, "certify", "--field", "gf:5")
        assert code == 3 and out == ""
        assert err == "bwcayley: internal error in check dual_spread: WrongLineCount: built 25 lines, expected 26\n"


class TestReports:
    def test_klein_gf3_skipped(self, capsys):
        code, out, _ = run(capsys, "klein", "--field", "gf:3", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["checks"][0]["status"] == "skipped"

    def test_klein_gf3_summary_says_nothing_ran(self, capsys):
        code, out, _ = run(capsys, "klein", "--field", "gf:3")
        assert code == 0
        assert "no check ran" in out
        assert "all checks match" not in out

    def test_klein_gf2_all_pass(self, capsys):
        code, out, _ = run(capsys, "klein", "--field", "gf:2", "--json")
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["variety_equality"]["counts"]["zero_set_points"] == 7
        assert all(c["status"] == "pass" for c in body["checks"])

    def test_certify_schema(self, capsys):
        code, out, _ = run(capsys, "certify", "--field", "gf:2", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["schema_version"] == "1"
        assert body["field"] == "gf:2"
        assert body["regime"] == "SpreadAndCovering"
        names = [c["name"] for c in body["checks"]]
        assert names == ["partial_spread", "covering", "maximality", "dual_spread", "duality"]
        for check in body["checks"]:
            assert check["paper_anchor"]
            assert check["status"] in ("pass", "fail", "skipped")
        assert "timing_ms" in body

    def test_byte_identical_canonical_body(self, capsys):
        _, out1, _ = run(capsys, "certify", "--field", "gf:5", "--json", "--seed", "3")
        _, out2, _ = run(capsys, "certify", "--field", "gf:5", "--json", "--seed", "3")
        c1 = json.dumps(canonical(out1), sort_keys=True)
        c2 = json.dumps(canonical(out2), sort_keys=True)
        assert c1 == c2

    def test_ideal_reports_witnesses(self, capsys):
        code, out, _ = run(capsys, "ideal", "--degree", "2", "--samples", "60", "--seed", "7", "--json")
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["pencil_vanishing"]["status"] == "pass"
        assert by_name["contains_known_forms"]["status"] == "pass"
        assert by_name["nonalgebraicity"]["witness"] == [0, 0, 0, 0, 1, 0]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "char3", "--field", "gf:3", "--out", str(path))
        assert code == 0
        body = json.loads(path.read_text())
        assert body["command"] == "char3"
        assert {c["name"] for c in body["checks"]} == {"congruence", "osculating_plane_pencil"}

    def test_rational_witness_serialization(self, capsys):
        code, out, _ = run(capsys, "certify", "--field", "q", "--json")
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["covering"]["witness"] == [1, 0, 0, 2]
        assert by_name["dual_spread"]["status"] == "skipped"

    def test_gf7_witness_in_report(self, capsys):
        code, out, _ = run(capsys, "certify", "--field", "gf:7", "--json")
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["partial_spread"]["witness"] == [[0, 0], [1, 4]]
        assert by_name["partial_spread"]["status"] == "fail"
        assert by_name["partial_spread"]["expected"] == "fail"
