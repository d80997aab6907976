"""Command-line interface producing JSON certification reports.

Subcommands: certify (spread battery), klein (variety equality, reguli,
projection), char3 (parabolic congruence), ideal (degree-bounded vanishing
probe). Exit codes: 0 when every check matches what the field's regime
predicts, 1 on usage errors or when the --out report cannot be written, 2
when a predicted-pass check fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import bwspread, cayley, idealprobe, klein
from .field import Field, FieldError, SpreadRegime, classify_field, parse_field_spec
from .projspace import canonicalize
from .reports import Check, Report, check_from_outcome, jsonable


class UsageError(Exception):
    pass


class ReportWriteError(Exception):
    pass


# what each regime predicts for the certify battery
PREDICTED = {
    SpreadRegime.SPREAD_AND_COVERING: {
        "partial_spread": "pass",
        "covering": "pass",
        "maximality": "pass",
        "dual_spread": "pass",
        "duality": "pass",
    },
    SpreadRegime.NOT_PARTIAL_SPREAD: {
        "partial_spread": "fail",
        "covering": "fail",
        "maximality": "pass",
        "dual_spread": "fail",
        "duality": "pass",
    },
    SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING: {
        "partial_spread": "pass",
        "covering": "fail",
        "maximality": "pass",
        "dual_spread": "skipped",
        "duality": "pass",
    },
    SpreadRegime.CHAR3: {
        "partial_spread": "fail",
        "covering": "fail",
        "maximality": "skipped",
        "dual_spread": "fail",
        "duality": "pass",
    },
}

ANCHORS = {
    "partial_spread": "pairwise skew iff char != 3 and no cube root of unity other than 1",
    "covering": "covers all points iff char != 3 and cubing is onto",
    "maximality": "every point of the plane at infinity lies on a line of the set",
    "dual_spread": "every plane contains exactly one line of the set",
    "duality": "reversing coordinates maps surface points onto tangent planes and fixes the tangent set",
    "variety_equality": "form zero set equals tangent images plus the pencil through the pinch point",
    "reguli": "tangents along one generator plus the directrix form a regulus",
    "projection": "projecting tangent images through the polar line of C traces a twisted cubic in B",
    "generator_cubic": "generator images fill a twisted cubic on the cone C meet Q",
    "congruence": "char 3: tangent images fill the cone cut by D; all lines meet the line of nuclei",
    "osculating_plane_pencil": "char 3: osculating planes of the generator cubic share the polar axis of D",
    "pencil_vanishing": "forms vanishing on sampled tangent images vanish on the whole pencil line",
    "contains_known_forms": "the quadric and the three cone forms lie in the degree-2 space",
    "nonalgebraicity": "the form zero set strictly exceeds the tangent images",
}


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000.0


def _emit(report: Report, args) -> None:
    if args.out:
        try:
            Path(args.out).write_text(report.full_json() + "\n")
        except OSError as exc:
            raise ReportWriteError(f"cannot write the report to {args.out}: {exc.strerror}") from exc
    if args.json:
        print(report.full_json())
        return
    header = f"{report.command}  field={report.field_spec}"
    if report.regime:
        header += f"  regime={report.regime}"
    print(header)
    for c in report.checks:
        line = f"  {c.name:<26} {c.status}"
        if c.expected is not None:
            line += f"  (predicted {c.expected})"
        if c.witness is not None and c.status == "fail":
            line += f"  witness={jsonable(c.witness)}"
        print(line)
    bad = report.mismatches()
    if bad:
        print(f"MISMATCH against regime prediction: {', '.join(bad)}")
    elif all(c.status == "skipped" for c in report.checks):
        print("no check ran")
    else:
        print("all checks match the prediction")


def cmd_certify(args) -> int:
    F = parse_field_spec(args.field)
    regime = classify_field(F)
    expected = PREDICTED[regime]
    report = Report(command="certify", field_spec=F.spec_string(), regime=regime.value, seed=args.seed)

    battery = [
        ("partial_spread", lambda: bwspread.certify_partial_spread(F, seed=args.seed)),
        ("covering", lambda: bwspread.covering_outcome(F)),
        ("maximality", lambda: bwspread.maximality_outcome(F, seed=args.seed)),
        ("dual_spread", lambda: bwspread.dual_spread_outcome(F)),
        ("duality", lambda: bwspread.certify_duality(F, seed=args.seed)),
    ]
    for name, run in battery:
        outcome, ms = _timed(run)
        report.checks.append(
            check_from_outcome(name, ANCHORS[name], outcome, expected=expected[name], millis=ms)
        )
    _emit(report, args)
    return 2 if report.mismatches() else 0


def _projected_cubic_point(s, F: Field):
    s = F.of(s)
    mul = F.mul
    three = F.of(3)
    return canonicalize(
        (F.one, mul(three, s), F.zero, mul(three, mul(s, s)), mul(mul(s, s), s), F.zero),
        F,
    )


def _generator_images_on_cone(F: Field) -> bool:
    params = [(F.one, s) for s in F.elements()] + [(F.zero, F.one)]
    for s0, s1 in params:
        y = klein.generator_cubic(s0, s1, F)
        if not (klein.in_C(y, F) and klein.k_form(y, F) == F.zero):
            return False
    return True


def cmd_klein(args) -> int:
    F = parse_field_spec(args.field)
    if not F.is_finite:
        raise UsageError("klein: the exhaustive scan needs a finite field (use gf:<p>)")
    report = Report(command="klein", field_spec=F.spec_string())
    if F.characteristic == 3:
        report.checks.append(
            Check(
                name="variety_equality",
                paper_anchor=ANCHORS["variety_equality"],
                status="skipped",
                note="characteristic 3 has its own congruence description; see the char3 command",
            )
        )
        _emit(report, args)
        return 0

    outcome, ms = _timed(klein.verify_variety_equality, F)
    report.checks.append(
        check_from_outcome("variety_equality", ANCHORS["variety_equality"], outcome, expected="pass", millis=ms)
    )

    t0 = time.perf_counter()
    reguli_ok = True
    witness = None
    for s in F.elements():
        reg = bwspread.regulus_minus(s, F)
        ok, opposite = bwspread.verify_regulus(reg, F)
        if not (ok and cayley.generator(1, s, F) in opposite):
            reguli_ok = False
            witness = s
            break
    report.checks.append(
        Check(
            name="reguli",
            paper_anchor=ANCHORS["reguli"],
            status="pass" if reguli_ok else "fail",
            expected="pass",
            witness=witness,
            counts={"reguli": F.order, "lines_each": F.order + 1},
            millis=(time.perf_counter() - t0) * 1000.0,
        )
    )

    t0 = time.perf_counter()
    proj_ok = True
    proj_witness = None
    for s in F.elements():
        want = _projected_cubic_point(s, F)
        for u2 in F.elements():
            got = klein.project_through_Cperp(klein.kappa_osculating(s, u2, F), F)
            if got != want:
                proj_ok = False
                proj_witness = (s, u2)
                break
        if not proj_ok:
            break
    report.checks.append(
        Check(
            name="projection",
            paper_anchor=ANCHORS["projection"],
            status="pass" if proj_ok else "fail",
            expected="pass",
            witness=proj_witness,
            counts={"parameter_pairs": F.order**2},
            millis=(time.perf_counter() - t0) * 1000.0,
        )
    )

    cone_ok, ms = _timed(_generator_images_on_cone, F)
    report.checks.append(
        Check(
            name="generator_cubic",
            paper_anchor=ANCHORS["generator_cubic"],
            status="pass" if cone_ok else "fail",
            expected="pass",
            counts={"generators": F.order + 1},
            millis=ms,
        )
    )

    _emit(report, args)
    return 2 if report.mismatches() else 0


def cmd_char3(args) -> int:
    F = parse_field_spec(args.field)
    if F.characteristic != 3:
        raise UsageError(f"char3: needs a field of characteristic 3, got {F.spec_string()}")
    report = Report(command="char3", field_spec=F.spec_string())
    outcome, ms = _timed(klein.char3_congruence_check, F)
    report.checks.append(
        check_from_outcome("congruence", ANCHORS["congruence"], outcome, expected="pass", millis=ms)
    )
    outcome, ms = _timed(klein.osculating_plane_pencil_check, F)
    report.checks.append(
        check_from_outcome(
            "osculating_plane_pencil", ANCHORS["osculating_plane_pencil"], outcome, expected="pass", millis=ms
        )
    )
    _emit(report, args)
    return 2 if report.mismatches() else 0


def cmd_ideal(args) -> int:
    if not 1 <= args.degree <= idealprobe.MAX_DEGREE:
        raise UsageError(f"ideal: --degree must be between 1 and {idealprobe.MAX_DEGREE}")
    if args.samples < 1:
        raise UsageError("ideal: --samples must be positive")
    report = Report(command="ideal", field_spec="q", seed=args.seed)
    probe, ms = _timed(idealprobe.closure_probe, args.degree, args.samples, args.seed)
    report.checks.append(
        Check(
            name="pencil_vanishing",
            paper_anchor=ANCHORS["pencil_vanishing"],
            status="pass" if probe.pencil_vanishing else "fail",
            expected="pass",
            counts={
                "degree": probe.degree,
                "samples": probe.samples,
                "nullspace_dimension": probe.nullspace_dimension,
            },
            millis=ms,
        )
    )
    if args.degree == 2:
        report.checks.append(
            Check(
                name="contains_known_forms",
                paper_anchor=ANCHORS["contains_known_forms"],
                status="pass" if probe.contains_known_forms else "fail",
                expected="pass",
            )
        )
    outcome, ms = _timed(idealprobe.nonalgebraicity_evidence, args.degree, args.samples, args.seed)
    report.checks.append(
        check_from_outcome("nonalgebraicity", ANCHORS["nonalgebraicity"], outcome, expected="pass", millis=ms)
    )
    _emit(report, args)
    return 2 if report.mismatches() else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bwcayley", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the full JSON report to this path")
        p.add_argument("--json", action="store_true", help="print JSON instead of a summary")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")

    p = sub.add_parser("certify", help="spread / covering / maximality / dual-spread battery")
    p.add_argument("--field", required=True, help="gf:<p> or q")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("klein", help="variety equality, reguli and the projection to B")
    p.add_argument("--field", required=True, help="gf:<p>, characteristic != 3")
    common(p)
    p.set_defaults(fn=cmd_klein)

    p = sub.add_parser("char3", help="characteristic-3 congruence checks")
    p.add_argument("--field", required=True, help="gf:<p> with p = 3")
    common(p)
    p.set_defaults(fn=cmd_char3)

    p = sub.add_parser("ideal", help="degree-bounded vanishing probe over the rationals")
    p.add_argument("--degree", type=int, required=True, help="form degree, 1 to 3")
    p.add_argument("--samples", type=int, default=60, help="number of sampled tangent images")
    common(p)
    p.set_defaults(fn=cmd_ideal)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ReportWriteError, FieldError) as exc:
        sys.stderr.write(f"bwcayley: {exc}\n")
        return 1
    except SystemExit as exc:
        return 1 if exc.code is None else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
