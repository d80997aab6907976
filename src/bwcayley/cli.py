"""Command-line interface producing JSON certification reports.

Subcommands: certify (spread battery), klein (variety equality, reguli,
projection), char3 (parabolic congruence), ideal (degree-bounded vanishing
probe). Exit codes: 0 when every check matches what the field's regime
predicts, 1 on usage errors or when the --out report cannot be written, 2
when a predicted-pass check fails, 3 when a check ends in an internal error
(an exception such as IdentityFails, raised when a polynomial identity a
finite check rests on does not hold; one line on stderr names the check).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import bwspread, idealprobe, klein
from .field import QQ, Field, FieldError, SpreadRegime, classify_field, parse_field_spec
from .reports import Check, CheckOutcome, Report, jsonable


class UsageError(Exception):
    pass


class ReportWriteError(Exception):
    pass


class CheckError(Exception):
    """An exception escaped a check runner."""

    def __init__(self, name: str, exc: Exception):
        super().__init__(f"internal error in check {name}: {type(exc).__name__}: {exc}")


class Run:
    """The inputs one command's checks share. The ideal probe and the
    duality's outcome are built on first use, by `pencil_vanishing` and by
    `dual_spread`, which reads its d(O) = O flag. No check holds the tangent
    set O or lists the points, planes or lines of PG(3,q) or the points of
    PG(5,q): over a finite field the certify, klein and char3 checks rest on
    identities over Z and counts in closed form, and the reguli check reads
    the Klein images of each regulus in closed form (`bwspread.kappa`)."""

    def __init__(self, F: Field, seed: int = 0, degree: int = 0, samples: int = 0):
        self.F, self.seed, self.degree, self.samples = F, seed, degree, samples

    @cached_property
    def probe(self) -> Dict[str, Optional[CheckOutcome]]:
        return idealprobe.closure_probe(self.degree, self.samples, self.seed)

    @cached_property
    def duality(self) -> Tuple[CheckOutcome, Optional[bool]]:
        return bwspread.certify_duality(self.F, seed=self.seed)


def _by_regime(spread: str, not_partial: str, maximal_partial: str, char3: str) -> Dict[SpreadRegime, str]:
    return {
        SpreadRegime.SPREAD_AND_COVERING: spread,
        SpreadRegime.NOT_PARTIAL_SPREAD: not_partial,
        SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING: maximal_partial,
        SpreadRegime.CHAR3: char3,
    }


# Every command's checks in report order, as (name, paper anchor, prediction,
# runner). The prediction is a status, for certify one per regime. A runner
# returns None when its check does not apply to the run. Runners look library
# functions up through their module when called, so patching a module
# attribute (in a test or a tracer) reaches them.
CHECKS = {
    "certify": [
        (
            "partial_spread",
            "pairwise skew iff char != 3 and no cube root of unity other than 1",
            _by_regime("pass", "fail", "pass", "fail"),
            lambda run: bwspread.certify_partial_spread(run.F, seed=run.seed),
        ),
        (
            "covering",
            "covers all points iff char != 3 and cubing is onto",
            _by_regime("pass", "fail", "fail", "fail"),
            lambda run: bwspread.certify_covering(run.F),
        ),
        (
            "maximality",
            "every point of the plane at infinity lies on a line of the set",
            _by_regime("pass", "pass", "pass", "skipped"),
            lambda run: bwspread.certify_maximality(run.F, seed=run.seed),
        ),
        (
            "dual_spread",
            "every plane contains exactly one line of the set",
            _by_regime("pass", "fail", "skipped", "fail"),
            lambda run: bwspread.certify_dual_spread(run.F, run.duality[1]),
        ),
        (
            "duality",
            "reversing coordinates maps surface points onto tangent planes and fixes the tangent set",
            _by_regime("pass", "pass", "pass", "pass"),
            lambda run: run.duality[0],
        ),
    ],
    "klein": [
        (
            "variety_equality",
            "form zero set equals tangent images plus the pencil through the pinch point",
            "pass",
            lambda run: klein.verify_variety_equality(run.F),
        ),
        (
            "reguli",
            "tangents along one generator plus the directrix form a regulus",
            "pass",
            lambda run: klein.reguli_check(run.F),
        ),
        (
            "projection",
            "projecting tangent images through the polar line of C traces a twisted cubic in B",
            "pass",
            lambda run: klein.projection_check(run.F),
        ),
        (
            "generator_cubic",
            "generator images fill a twisted cubic on the cone C meet Q",
            "pass",
            lambda run: klein.generator_cubic_check(run.F),
        ),
    ],
    "char3": [
        (
            "congruence",
            "char 3: tangent images fill the cone cut by D; all lines meet the line of nuclei",
            "pass",
            lambda run: klein.char3_congruence_check(run.F),
        ),
        (
            "osculating_plane_pencil",
            "char 3: osculating planes of the generator cubic share the polar axis of D",
            "pass",
            lambda run: klein.osculating_plane_pencil_check(run.F),
        ),
    ],
    "ideal": [
        (
            "pencil_vanishing",
            "forms vanishing on sampled tangent images vanish on the whole pencil line",
            "pass",
            lambda run: run.probe["pencil_vanishing"],
        ),
        (
            "contains_known_forms",
            "the quadric and the three cone forms lie in the degree-2 space",
            "pass",
            lambda run: run.probe["contains_known_forms"],
        ),
        (
            "nonalgebraicity",
            "the form zero set strictly exceeds the tangent images",
            "pass",
            lambda run: run.probe["nonalgebraicity"],
        ),
    ],
}


def run_checks(report: Report, run: Run) -> Report:
    """Time every check of the report's command and append its result."""
    for name, anchor, prediction, runner in CHECKS[report.command]:
        t0 = time.perf_counter()
        try:
            outcome = runner(run)
        except Exception as exc:
            raise CheckError(name, exc) from exc
        millis = (time.perf_counter() - t0) * 1000.0
        if outcome is None:
            continue
        expected = prediction[SpreadRegime(report.regime)] if report.regime else prediction
        report.checks.append(Check(name, anchor, outcome, expected, millis))
    return report


def certify_report(F: Field, seed: int = 0) -> Report:
    """The certify battery for one field."""
    report = Report(command="certify", field_spec=F.spec_string(), regime=classify_field(F).value, seed=seed)
    return run_checks(report, Run(F, seed))


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(report: Report, args) -> int:
    """Write and print the report; return the exit code its checks call for."""
    if args.out:
        try:
            Path(args.out).write_text(report.full_json() + "\n")
        except OSError as exc:
            raise ReportWriteError(f"cannot write the report to {args.out}: {exc.strerror}") from exc
    bad = report.mismatches()
    if args.json:
        print(report.full_json())
        return 2 if bad else 0
    header = f"{report.command}  field={report.field_spec}"
    if report.regime:
        header += f"  regime={report.regime}"
    print(header)
    for c in report.checks:
        line = f"  {c.name:<26} {c.status}"
        if c.expected is not None:
            line += f"  (predicted {c.expected})"
        if c.outcome.witness is not None and c.status == "fail":
            line += f"  witness={jsonable(c.outcome.witness)}"
        print(line)
    if bad:
        print(f"MISMATCH against regime prediction: {', '.join(bad)}")
    elif all(c.status == "skipped" for c in report.checks):
        print("no check ran")
    else:
        print("all checks match the prediction")
    return 2 if bad else 0


def cmd_certify(args) -> int:
    return _emit(certify_report(parse_field_spec(args.field), args.seed), args)


def cmd_klein(args) -> int:
    F = parse_field_spec(args.field)
    if not F.is_finite:
        raise UsageError("klein: the checks need a finite field (use gf:<p>)")
    report = Report(command="klein", field_spec=F.spec_string())
    if F.characteristic == 3:
        name, anchor, _, _ = CHECKS["klein"][0]
        skipped = CheckOutcome(
            passed=None, note="characteristic 3 has its own congruence description; see the char3 command"
        )
        report.checks.append(Check(name, anchor, skipped))
        return _emit(report, args)
    return _emit(run_checks(report, Run(F)), args)


def cmd_char3(args) -> int:
    F = parse_field_spec(args.field)
    if F.characteristic != 3:
        raise UsageError(f"char3: needs a field of characteristic 3, got {F.spec_string()}")
    return _emit(run_checks(Report(command="char3", field_spec=F.spec_string()), Run(F)), args)


def cmd_ideal(args) -> int:
    if not 1 <= args.degree <= idealprobe.MAX_DEGREE:
        raise UsageError(f"ideal: --degree must be between 1 and {idealprobe.MAX_DEGREE}")
    least = len(idealprobe.monomial_exponents(args.degree))
    if args.samples < least:
        raise UsageError(
            f"ideal: --samples must be at least {least} at degree {args.degree}, "
            f"the number of degree-{args.degree} monomials"
        )
    report = Report(command="ideal", field_spec="q", seed=args.seed)
    run = Run(QQ, args.seed, args.degree, args.samples)
    return _emit(run_checks(report, run), args)


def build_parser() -> _Parser:
    """The parser, built once per `idealprobe.MAX_DEGREE` (its `--degree` help
    names it) and shared by `main` calls: parsing leaves it as it was."""
    return _parser(idealprobe.MAX_DEGREE)


@lru_cache(maxsize=None)
def _parser(max_degree: int) -> _Parser:
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
    p.add_argument("--degree", type=int, required=True, help=f"form degree, 1 to {max_degree}")
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
    except CheckError as exc:
        sys.stderr.write(f"bwcayley: {exc}\n")
        return 3
    except SystemExit as exc:
        return 1 if exc.code is None else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())
