"""Record semantics: the NamedTuples and plain classes that carry results.

Frozen value records (`GMatrix`, `Line`) refuse assignment and hash by value; mutable records (`CheckOutcome`,
`Check`, `Report`, `Run`) are built the way their call sites build them and
never share a default `counts` dict or `checks` list.
"""

import pytest

from bwcayley.cli import Run
from bwcayley.field import QQ, PrimeField
from bwcayley.projspace import Line, plucker
from bwcayley.reports import Check, CheckOutcome, Report
from oracles import GMatrix, group_matrix

F7 = PrimeField(7)

# each record with every field given, in declaration order
RECORDS = {
    "GMatrix": (GMatrix, dict(a=1, b=0, c=1, entries=group_matrix(1, 0, 1, F7).entries)),
    "Line": (Line, dict(p=(0, 0, 1, 0), q=(0, 0, 0, 1), plucker=(0, 0, 0, 0, 0, 1))),
    "CheckOutcome": (CheckOutcome, dict(passed=False, witness=(1, 2), counts={"pairs": 3}, note="n")),
    "Check": (Check, dict(
        name="covering", paper_anchor="Thm 3", outcome=CheckOutcome(False, (1, 2), {"pairs": 3}, "n"),
        expected="pass", millis=1.5)),
    "Report": (Report, dict(command="certify", field_spec="gf:7", regime="NotPartialSpread", seed=4, checks=[])),
    "Run": (Run, dict(F=F7, seed=1, degree=2, samples=60)),
}
FROZEN = {"GMatrix", "Line"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    cls, fields = RECORDS[name]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    for record in (by_keyword, by_position):
        assert {f: getattr(record, f) for f in fields} == fields
    first = next(iter(fields))
    if name in FROZEN:
        with pytest.raises(AttributeError):
            setattr(by_keyword, first, fields[first])
        with pytest.raises(AttributeError):
            delattr(by_keyword, first)
        assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    else:
        setattr(by_keyword, first, "changed")
        assert getattr(by_keyword, first) == "changed"


def test_check_outcome_equality_is_by_value():
    by_position = CheckOutcome(True, (1, 2), {"n": 1}, "x")
    assert by_position == CheckOutcome(passed=True, witness=(1, 2), counts={"n": 1}, note="x")
    assert CheckOutcome(passed=True) == CheckOutcome(True, None, {}, "")
    assert CheckOutcome(passed=True) != CheckOutcome(passed=True, note="x")
    assert CheckOutcome(passed=True) != CheckOutcome(passed=True, counts={"n": 1})
    assert CheckOutcome(passed=None) != CheckOutcome(passed=False)


def test_default_containers_are_fresh():
    a, b = CheckOutcome(passed=True), CheckOutcome(passed=True)
    a.counts["n"] = 1
    assert b.counts == {} and a.counts is not b.counts
    r, s = Report(command="klein", field_spec="gf:5"), Report(command="klein", field_spec="gf:5")
    r.checks.append(Check("covering", "Thm 3", a))
    assert s.checks == [] and r.checks is not s.checks


def test_check_status_reads_its_outcome():
    check = Check("covering", "Thm 3", CheckOutcome(passed=None), expected="pass")
    assert check.status == "skipped"
    for passed, status in ((True, "pass"), (False, "fail")):
        check.outcome = CheckOutcome(passed=passed, witness=(1, 2))
        assert check.status == status and check.canonical()["status"] == status


@pytest.mark.parametrize("F", [F7, QQ], ids=str)
def test_line_is_its_plucker_sextuple(F):
    p, q = (1, 0, 0, 0), (0, 1, 0, 0)
    r, s = (1, 2, 0, 0), (1, 3, 0, 0)  # two other points of the same line
    one, other = Line(p, q, plucker(p, q, F)), Line(r, s, plucker(r, s, F))
    assert (one.p, one.q) != (other.p, other.q)
    assert one == other and hash(one) == hash(other) and len({one, other}) == 1
    assert one != Line(p, (0, 0, 1, 0), plucker(p, (0, 0, 1, 0), F))
    assert repr(one) == f"Line(plucker={one.plucker})"
