"""CLI contract: exit codes, report schema, byte-stable canonical JSON."""

import json
import sys
from fractions import Fraction

import pytest

import oracles
from bwcayley import bwspread, cayley, cli, idealprobe, klein, projspace
from bwcayley.cli import build_parser, certify_report, main
from bwcayley.field import PrimeField
from bwcayley.projspace import GeometryError
from bwcayley.reports import CheckOutcome


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through module's binding and every bwcayley
    module's, so a check that imported its own copy is counted too."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, mod in list(sys.modules.items()):
        if (mod is module or module_name.startswith("bwcayley")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def fresh_identities():
    """An empty identity cache before the test and after it, so that a
    formula the test patches is traced and evaluated again."""
    bwspread.certify_identity.cache_clear()
    yield
    bwspread.certify_identity.cache_clear()


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
            lambda F, seed=0: CheckOutcome(passed=False, witness=((0, 0), (1, 1))),
        )
        code, out, _ = run(capsys, "certify", "--field", "gf:5")
        assert code == 2
        assert "MISMATCH" in out

    @pytest.mark.parametrize("command,field", [("certify", "gf:5"), ("klein", "gf:5"), ("char3", "gf:3")])
    def test_no_check_calls_build_O(self, capsys, monkeypatch, command, field):
        # every finite check rests on identities over Z: none streams the
        # tangents (the walks that did are test oracles now) or scans PG(5,q)
        calls = count_calls(monkeypatch, bwspread, "build_O")
        streams = count_calls(monkeypatch, oracles, "tangents")
        scans = count_calls(monkeypatch, klein, "variety_zero_set")
        code, _, _ = run(capsys, command, "--field", field)
        assert code == 0 and len(calls) == 0 and len(streams) == 0 and len(scans) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_finite_battery_walks_no_tangent(self, monkeypatch, p):
        # the checks rest on identities over Z and counts in O(q), and one
        # duality outcome serves both dual_spread and duality
        streams = count_calls(monkeypatch, oracles, "tangents")
        dualities = count_calls(monkeypatch, bwspread, "certify_duality")
        certify_report(PrimeField(p))
        assert len(streams) == 0 and len(dualities) == 1

    def test_rational_battery_samples_the_duality_once(self, capsys, monkeypatch):
        walks = count_calls(monkeypatch, bwspread, "certify_duality")
        planes = count_calls(monkeypatch, cayley, "tangent_plane_coefficients")
        code, _, _ = run(capsys, "certify", "--field", "q")
        assert code == 0 and len(walks) == 1 and len(planes) == bwspread.SPOT_CHECKS

    def test_rational_battery_joins_and_canonicalises_no_sample(self, capsys, monkeypatch):
        # the samples are tested on unreduced int tuples; only the covering
        # check's witness is canonicalised (no check can join a line, by
        # test_invariants.test_no_live_code_references_the_line_layer)
        canonical = count_calls(monkeypatch, projspace, "canonicalize")
        code, _, _ = run(capsys, "certify", "--field", "q")
        assert code == 0 and len(canonical) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 101])
    def test_covering_counts_each_class_at_infinity_once(self, monkeypatch, p):
        # the points at infinity fall into three classes on which the count
        # of lines of O through a point is constant, so covering reads one
        # point of each, not all q^2 + q + 1
        calls = count_calls(monkeypatch, bwspread, "lines_of_O_through")
        bwspread.certify_covering(PrimeField(p))
        assert [x for x, _ in calls] == [(0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 1, 0)]

    @pytest.mark.parametrize("command", ["certify", "klein"])
    def test_no_check_joins_a_tangent(self, capsys, monkeypatch, command):
        # the finite checks never build a tangent by joining two points and
        # canonicalising; the reguli check reads its tangents' Klein images
        # in closed form off kappa, and the certify checks read none
        joined = count_calls(monkeypatch, bwspread, "osculating_tangent")
        closed = count_calls(monkeypatch, bwspread, "kappa")
        code, _, _ = run(capsys, command, "--field", "gf:5")
        assert code == 0 and len(joined) == 0
        assert len(closed) >= 25 if command == "klein" else len(closed) == 0

    @pytest.mark.parametrize("command,field", [("certify", "gf:13"), ("klein", "gf:7"), ("char3", "gf:3")])
    def test_no_subcommand_enumerates_points_planes_or_lines(self, capsys, monkeypatch, command, field):
        # covering and dual_spread count in closed form, partial_spread,
        # maximality and duality rest on identities over Z, and the klein
        # and char3 checks read lines off their Klein images
        names = ("enumerate_points", "enumerate_planes", "enumerate_lines")
        calls = {name: count_calls(monkeypatch, projspace, name) for name in names}
        code, _, _ = run(capsys, command, "--field", field)
        assert code == 0 and {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 0)

    def test_certify_canonicalises_per_line_not_per_point(self, capsys, monkeypatch):
        # PG(3,q) has q^3 + q^2 + q + 1 points and as many planes, and O has
        # q^2 + 1 lines; the tangents are canonical by construction, so the
        # checks canonicalise only a few times per point of the directrix
        calls = []
        canonical = PrimeField.canonical
        monkeypatch.setattr(PrimeField, "canonical", lambda self, vec: calls.append(vec) or canonical(self, vec))
        for q in (13, 101):
            calls.clear()
            code, _, _ = run(capsys, "certify", "--field", f"gf:{q}")
            assert code == 0 and len(calls) < 6 * q

    def test_ideal_degree_help_follows_max_degree(self, capsys, monkeypatch):
        monkeypatch.setattr(idealprobe, "MAX_DEGREE", 5)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ideal", "--help"])
        assert "form degree, 1 to 5" in capsys.readouterr().out

    @pytest.mark.parametrize("degree", ["1", "2", "3"])
    def test_ideal_solves_one_kernel(self, capsys, monkeypatch, degree):
        calls = count_calls(monkeypatch, idealprobe, "vanishing_space")
        code, out, _ = run(capsys, "ideal", "--degree", degree, "--samples", "60", "--seed", "7", "--json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 0 and len(calls) == 1
        dimension = checks["pencil_vanishing"]["counts"]["nullspace_dimension"]
        assert dimension == checks["nonalgebraicity"]["counts"]["forms"]

    def test_check_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(v1, v2, u1, u2, F):
            raise GeometryError(f"no criterion at {(u1, u2)}")

        monkeypatch.setattr(bwspread, "skew_criterion", broken)
        code, out, err = run(capsys, "certify", "--field", "gf:5")
        assert code == 3 and out == ""
        assert err == "bwcayley: internal error in check partial_spread: GeometryError: no criterion at (1, 0)\n"

    @pytest.mark.parametrize(
        "name,broken,identity",
        [
            # the skew value moved off by one: the tangents' pairing no longer equals it
            ("skew_value", lambda f: lambda v1, v2, u1, u2: f(v1, v2, u1, u2) + 1, "polarity"),
            # the sextuple reversed: it no longer leads with 1 or gives its parameter back
            ("osculating_sextuple", lambda f: lambda x0, x1, x2: f(x0, x1, x2)[::-1], "readback"),
        ],
    )
    def test_a_broken_formula_fails_its_identity(self, capsys, monkeypatch, fresh_identities, name, broken, identity):
        monkeypatch.setattr(bwspread, name, broken(getattr(bwspread, name)))
        code, out, err = run(capsys, "certify", "--field", "gf:7")
        assert code == 3 and out == ""
        assert err.startswith(f"bwcayley: internal error in check partial_spread: IdentityFails: identity {identity} fails")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "module,name,broken,identity",
        [
            # h1 doubled: it still vanishes on the tangent images, but no
            # longer fixes Y12 on the chart with the slope 3
            (klein, "h1_form", lambda f: lambda y, F: 2 * f(y, F), "chart"),
            # Y23 moved off by one: the quadric no longer vanishes on the images
            (
                bwspread,
                "osculating_sextuple",
                lambda f: lambda x0, x1, x2: f(x0, x1, x2)[:5] + (f(x0, x1, x2)[5] + 1,),
                "forms_on_kappa",
            ),
        ],
    )
    def test_a_broken_klein_formula_fails_its_identity(
        self, capsys, monkeypatch, fresh_identities, module, name, broken, identity
    ):
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        code, out, err = run(capsys, "klein", "--field", "gf:7")
        assert code == 3 and out == ""
        assert err.startswith(f"bwcayley: internal error in check variety_equality: IdentityFails: identity {identity} fails")
        assert err.count("\n") == 1


@pytest.fixture
def fractions_built(monkeypatch):
    """A counter of the `Fraction`s built while it is read: calls of
    `Fraction.__new__`, and of `Fraction._from_coprime_ints`, through which
    CPython 3.12 and later build arithmetic results."""
    count = [0]
    new = Fraction.__dict__["__new__"].__func__

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in Fraction.__dict__:
        from_coprime = Fraction.__dict__["_from_coprime_ints"].__func__

        def counted_from_coprime(cls, numerator, denominator):
            count[0] += 1
            return from_coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_from_coprime))
    return count


class TestFractionCount:
    """Over Q the samples are drawn, tested and eliminated in ints: the
    `Fraction`s a command builds (the covering check's witness, for one)
    do not grow with the number of samples."""

    @staticmethod
    def built(capsys, count, *argv):
        before = count[0]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        return count[0] - before

    def test_certify_q_with_twice_the_spot_checks(self, capsys, monkeypatch, fractions_built):
        run(capsys, "certify", "--field", "q")  # fills the per-process caches first
        default = self.built(capsys, fractions_built, "certify", "--field", "q")
        monkeypatch.setattr(bwspread, "PAIR_SPOT_CHECKS", 2 * bwspread.PAIR_SPOT_CHECKS)
        monkeypatch.setattr(bwspread, "SPOT_CHECKS", 2 * bwspread.SPOT_CHECKS)
        assert self.built(capsys, fractions_built, "certify", "--field", "q") == default

    def test_ideal_with_twice_the_samples(self, capsys, fractions_built):
        run(capsys, "ideal", "--degree", "3", "--samples", "60")
        default = self.built(capsys, fractions_built, "ideal", "--degree", "3", "--samples", "60")
        assert self.built(capsys, fractions_built, "ideal", "--degree", "3", "--samples", "120") == default


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

    @pytest.mark.parametrize("command, field", [("klein", "gf:5"), ("char3", "gf:3")])
    def test_exhaustive_commands_ignore_the_seed(self, capsys, command, field):
        bodies = []
        for seed in ("0", "9"):
            code, out, _ = run(capsys, command, "--field", field, "--json", "--seed", seed)
            assert code == 0
            bodies.append(canonical(out))
        assert "seed" not in bodies[0]
        assert json.dumps(bodies[0], sort_keys=True, indent=2) == json.dumps(bodies[1], sort_keys=True, indent=2)

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


class TestSharedParser:
    """`main` parses with one parser per process; parsing must leave it as it was."""

    COMMANDS = [
        ["certify", "--field", "gf:5", "--json"],
        ["klein", "--field", "gf:5"],
        ["char3", "--field", "gf:3", "--json", "--out", "{out}"],
        ["ideal", "--degree", "2", "--samples", "30", "--seed", "3", "--json"],
        ["certify", "--field", "gf:6"],
        ["klein"],
        ["ideal", "--degree", "4"],
        ["bogus", "--field", "q"],
        ["certify", "--field", "q", "--seed", "5", "--out", "{out}"],
        ["ideal", "--degree", "1", "--samples", "20"],
        ["klein", "--field", "gf:3", "--json"],
    ]

    @staticmethod
    def outcome(capsys, argv, out):
        """Exit code, output and --out report of one call, with timings dropped."""
        code = main([a.format(out=out) for a in argv])
        captured = capsys.readouterr()
        stdout = canonical(captured.out) if captured.out.startswith("{") else captured.out
        written = canonical(out.read_text()) if out.exists() else None
        out.unlink(missing_ok=True)
        return code, stdout, captured.err, written

    def test_interleaved_calls_match_lone_calls(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        lone = []
        for argv in self.COMMANDS:
            cli._parser.cache_clear()
            lone.append(self.outcome(capsys, argv, out))
        assert {code for code, *_ in lone} == {0, 1}
        cli._parser.cache_clear()
        order = list(range(len(self.COMMANDS)))
        for i in order + order[::-1]:
            assert self.outcome(capsys, self.COMMANDS[i], out) == lone[i], self.COMMANDS[i]
        assert cli._parser.cache_info().misses == 1
