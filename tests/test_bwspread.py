"""Osculating tangents, skewness, covering, maximality, dual spread, reguli."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bwcayley import bwspread, cayley, idealprobe
from bwcayley.bwspread import (
    IDENTITIES,
    Char3Unsupported,
    Degree,
    IdentityFails,
    NotARegulus,
    SamePoint,
    betten_chart,
    betten_collineation,
    build_O,
    certify_covering,
    certify_dual_spread,
    certify_duality,
    certify_maximality,
    certify_identity,
    certify_partial_spread,
    covering_deficit,
    identity_bounds,
    lines_of_O_through,
    osculating_tangent,
    parameter_reader,
    skew_criterion,
    skew_value,
    uncovered_witness_rational,
    verify_regulus,
)
from bwcayley.cli import Run, certify_report, run_checks
from bwcayley.klein import in_kappa_O, reguli_check
from bwcayley.reports import Check, CheckOutcome, Report
from bwcayley.field import (
    InfiniteField,
    PrimeField,
    Rationals,
    SpreadRegime,
    classify_field,
    cube_roots,
    least_non_cube,
    nontrivial_cube_root_of_unity,
)
from bwcayley.projspace import (
    canonicalize,
    enumerate_lines,
    enumerate_planes,
    enumerate_points,
    incidence,
    is_int_multiple,
    line_in_plane,
    lines_skew,
    plucker,
    quadric_value,
)
import oracles
from oracles import (
    IndistinctTangents,
    _image_difference,
    add,
    break_kappa,
    closed_tangent,
    compound_image,
    covering_by_points,
    dedup_lines,
    dual_spread_by_O,
    dual_spread_by_pencils,
    duality_by_fractions,
    duality_by_O,
    duality_by_parameters,
    duality_by_scans,
    g_infinity,
    generator,
    group_apply,
    group_matrix,
    int_pairs,
    kappa_osculating,
    line_through,
    maximality_by_filter,
    maximality_by_fractions,
    maximality_by_O,
    maximality_by_walk,
    mul,
    nuclei_line,
    omega_points,
    param_action,
    parameter_grid,
    partial_spread_by_fractions,
    partial_spread_by_O,
    partial_spread_by_translations,
    point_in_plane,
    primes_below,
    rank,
    reguli_by_O,
    reguli_by_walk,
    regulus_lines,
    regulus_minus,
    second_compound,
    span_points,
    sub,
    surface_point,
    tangent_plane,
    tangents,
    z_point,
)

QQ = Rationals()
F2, F3, F5, F7 = (PrimeField(p) for p in (2, 3, 5, 7))

small_fractions = st.fractions(min_value=-15, max_value=15, max_denominator=8)

PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestOsculatingTangent:
    def test_frozen_pluckers(self):
        assert osculating_tangent(0, 0, F5).plucker == (1, 0, 0, 0, 0, 0)
        assert osculating_tangent(1, 1, QQ).plucker == tuple(
            map(Fraction, (1, 3, 1, 2, 1, 1))
        )
        assert osculating_tangent(1, 1, F3).plucker == (1, 0, 1, 2, 1, 1)

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_multiplicity_three_exhaustive(self, F):
        # f(lam*P(u) + mu*q) = -mu^3: P(u) is the only meet, of multiplicity 3
        for u1, u2 in parameter_grid(F):
            t = osculating_tangent(u1, u2, F)
            assert t.p == surface_point(u1, u2, F)
            assert cayley.restrict_cubic(t.p, t.q, F) == [0, 0, 0, F.of(-1)]

    @given(small_fractions, small_fractions)
    @settings(max_examples=60)
    def test_multiplicity_three_rational(self, u1, u2):
        t = osculating_tangent(u1, u2, QQ)
        assert t.p == canonicalize(surface_point(u1, u2, QQ), QQ)
        assert cayley.restrict_cubic(t.p, t.q, QQ) == [0, 0, 0, -t.q[1] ** 3]

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_skew_to_directrix(self, F):
        ginf = g_infinity(F)
        for u1, u2 in parameter_grid(F):
            assert lines_skew(osculating_tangent(u1, u2, F), ginf, F)

    @pytest.mark.parametrize("F,size", [(F2, 5), (F3, 10), (F5, 26)])
    def test_build_O_sizes(self, F, size):
        assert len(build_O(F)) == size

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_closed_form_equals_the_joined_tangent(self, p):
        F = PrimeField(p)
        for u, t in tangents(F):
            l = osculating_tangent(*u, F)
            assert t == (l.p, l.q, l.plucker)
            assert closed_tangent(u[0] + p, u[1] - 3 * p, F) == t  # arguments are reduced

    def test_tangents_refuse_the_rationals(self):
        with pytest.raises(InfiniteField):
            next(tangents(QQ))


class TestSkewCriterion:
    def test_frozen_values(self):
        assert skew_criterion(0, 0, 1, 1, QQ) == 1  # 1 - 3 + 3
        assert skew_criterion(0, 0, 0, 5, QQ) == 25  # u1 = 0 branch: u2^2
        assert skew_criterion(0, 0, 1, 4, F7) == 0  # 16 - 12 + 3 = 7

    def test_same_point_rejected(self):
        with pytest.raises(SamePoint):
            skew_criterion(1, 2, 1, 2, QQ)

    def test_same_point_rejected_mod_p(self):
        with pytest.raises(SamePoint):
            skew_criterion(1, 2, 8, -5, F7)
        with pytest.raises(SamePoint):
            skew_criterion(Fraction(1, 2), 0, 4, 7, F7)

    @given(small_fractions, small_fractions, small_fractions, small_fractions)
    @settings(max_examples=80)
    def test_value_equals_field_operations(self, v1, v2, u1, u2):
        # the plain-operator value against the formula in step-reduced field operations,
        # over Q and GF(11), where every denominator of small_fractions is invertible
        for F in (QQ, PrimeField(11)):
            a, b, c, d = (F.of(t) for t in (v1, v2, u1, u2))
            if (a, b) == (c, d):
                continue
            three = F.of(3)
            d1 = sub(c, a, F)
            d2 = sub(sub(d, b, F), mul(three, mul(a, d1, F), F), F)
            sq = mul(d1, d1, F)
            want = add(sub(mul(d2, d2, F), mul(three, mul(sq, d2, F), F), F), mul(three, mul(sq, sq, F), F), F)
            assert skew_criterion(v1, v2, u1, u2, F) == want

    def test_symmetric_verdict(self):
        for (v1, v2), (u1, u2) in combinations(parameter_grid(F7), 2):
            a = skew_criterion(v1, v2, u1, u2, F7) == 0
            b = skew_criterion(u1, u2, v1, v2, F7) == 0
            assert a == b

    @pytest.mark.parametrize("F", [F5, F7])
    def test_criterion_matches_determinant_exhaustive(self, F):
        for (v1, v2), (u1, u2) in combinations(parameter_grid(F), 2):
            criterion_zero = skew_criterion(v1, v2, u1, u2, F) == 0
            polarity_skew = lines_skew(
                osculating_tangent(v1, v2, F), osculating_tangent(u1, u2, F), F
            )
            assert criterion_zero == (not polarity_skew)


def _variables(n):
    """n `Degree` trackers, the i-th of degree 1 in variable i alone."""
    return [Degree(int(i == j) for j in range(n)) for i in range(n)]


# Each identity's traced degree bounds, one per variable.
IDENTITY_BOUNDS = {
    "readback": (3, 1),
    "polarity": (4, 2, 4, 2),
    "translation": (4, 2, 4, 2),
    "weight_4": (4, 4, 2),
    "row_zero": (2,),
    "row_one": (2,),
    "directrix_skew": (4, 2),
    "infinity_point": (4, 2),
    "dual_point": (3, 1),
    "dual_line": (4, 2),
    "involution": (2, 1),
    "on_surface": (3, 1),
    "tangent_plane": (3, 1),
    "directrix_on_surface": (1, 1),
    "directrix_planes": (1, 1),
    "directrix_reversal": (1, 1),
    "forms_on_kappa": (4, 2),
    "chart": (4, 2, 1, 1, 1),
    "off_chart": (2, 2, 2, 1, 1),
    "projection": (3, 1),
    "regulus_plane": (4, 2),
    "regulus_polar": (10,),
    "generator_on_cone": (4, 3),
    "char3_kappa": (4, 2),
    "char3_osculating": (3, 3),
    "char3_section": (2, 1, 1),
    "nuclei_meet": (4, 2, 1, 1),
    "kappa_weights": (4, 4, 2),
}


@pytest.fixture
def fresh_identities():
    """An empty identity cache before the test and after it, so that a
    formula the test patches is traced and evaluated again; with it the
    cache of the `ideal` probe's kernels, which rest on an identity."""
    certify_identity.cache_clear()
    idealprobe.exact_kernel.cache_clear()
    yield
    certify_identity.cache_clear()
    idealprobe.exact_kernel.cache_clear()


class TestDegreeTracker:
    def test_bounds_sums_and_products(self):
        x, y = _variables(2)
        assert (3 * x * x * y - y + 1).bounds == (2, 1)
        assert (1 - x * (-y) * y).bounds == (1, 2)

    def test_reduction_mod_p_raises(self):
        u1, u2 = _variables(2)
        with pytest.raises(TypeError):
            bwspread.kappa(u1, u2, F7)

    def test_comparison_raises(self):
        # F.of is the identity, so the equal-parameter test compares a bound with 0
        v1, v2, u1, u2 = _variables(4)
        with pytest.raises(TypeError):
            skew_criterion(v1, v2, u1, u2, SimpleNamespace(of=lambda x: x, zero=0))

    def test_truth_value_raises(self):
        (x,) = _variables(1)
        with pytest.raises(TypeError):
            bool(x - x)

    def test_fraction_operand_raises(self):
        (x,) = _variables(1)
        with pytest.raises(TypeError):
            x + Fraction(1, 2)
        with pytest.raises(TypeError):
            Fraction(1, 2) * x


class TestIdentities:
    def test_the_table_is_pinned(self):
        assert sorted(IDENTITIES) == sorted(IDENTITY_BOUNDS)

    @pytest.mark.parametrize("name", sorted(IDENTITY_BOUNDS))
    def test_traced_bounds(self, name):
        assert identity_bounds(IDENTITIES[name]) == IDENTITY_BOUNDS[name]

    @pytest.mark.parametrize("name", sorted(IDENTITY_BOUNDS))
    def test_each_identity_holds(self, fresh_identities, name):
        assert certify_identity(name) == IDENTITY_BOUNDS[name]

    @pytest.mark.parametrize("name", sorted(IDENTITY_BOUNDS))
    def test_each_identity_holds_off_its_grid(self, name):
        # seeded points outside prod range(d_i + 1): the grid decided for them
        rng = random.Random(name)
        identity = IDENTITIES[name]
        for _ in range(20):
            point = [rng.randint(-50, 50) for _ in IDENTITY_BOUNDS[name]]
            assert not any(identity(*point))

    def test_a_false_identity_fails_at_its_first_grid_point(self, fresh_identities, monkeypatch):
        # u2^2 - u2 has degree 2 and vanishes at 0 and 1, not at 2
        monkeypatch.setitem(IDENTITIES, "row_zero", lambda u2: (skew_value(0, 0, 0, u2) - u2,))
        with pytest.raises(IdentityFails, match=r"^identity row_zero fails at \(2,\)$"):
            certify_identity("row_zero")

    def test_an_untraceable_identity_fails(self, fresh_identities, monkeypatch):
        monkeypatch.setitem(IDENTITIES, "row_zero", lambda u2: (u2 * u2 % 7,))
        with pytest.raises(IdentityFails, match="^identity row_zero cannot be traced"):
            certify_identity("row_zero")

    def test_each_identity_is_certified_once_per_process(self, fresh_identities, monkeypatch):
        traced = []
        bounds = bwspread.identity_bounds
        monkeypatch.setattr(bwspread, "identity_bounds", lambda identity: traced.append(identity) or bounds(identity))

        def every_command(F):
            certify_report(F)
            run_checks(Report("klein", F.spec_string()), Run(F))
            run_checks(Report("char3", "gf:3"), Run(F3))
            run_checks(Report("ideal", "q"), Run(QQ, 0, 2, 60))

        every_command(F5)
        assert len(traced) == len(IDENTITIES)
        every_command(F7)
        assert len(traced) == len(IDENTITIES)


class TestPartialSpread:
    def test_gf5_passes(self):
        r = certify_partial_spread(F5)
        assert r.passed and r.counts["pairs_checked"] == 26 * 25 // 2

    def test_gf7_witness(self):
        r = certify_partial_spread(F7)
        assert not r.passed
        assert r.witness == ((0, 0), (1, 4))
        # witness replay
        assert skew_criterion(*r.witness[0], *r.witness[1], F7) == 0

    def test_char3_fails(self):
        r = certify_partial_spread(F3)
        assert not r.passed and r.witness is not None

    def test_roots_equal_a_scan_at_every_prime_below_1000(self):
        # the roots of t^2 - 3t + 3 in closed form, 2 + w and 1 - w for a
        # nontrivial cube root w of 1 (w = 1 in characteristic 3), against
        # the criterion on the row u1 = 1 at every t of GF(p)
        for p in primes_below(1000):
            F = PrimeField(p)
            scan = [t for t in range(p) if skew_criterion(0, 0, 1, t, F) == 0]
            w = 1 if p == 3 else nontrivial_cube_root_of_unity(F)
            assert ([] if w is None else sorted({(2 + w) % p, (1 - w) % p})) == scan, p
            r = certify_partial_spread(F)
            assert r.witness == (((0, 0), (1, scan[0])) if scan else None), p
            assert r.counts["violations"] == p * p * (p - 1) * len(scan) // 2, p

    def test_rationals_pass(self):
        r = certify_partial_spread(QQ, seed=1)
        assert r.passed

    def test_rational_duplicate_draw_is_skipped(self):
        # this seed draws u == v once among its 200 pairs; that draw is not a check
        r = certify_partial_spread(QQ, seed=1991668817)
        assert r.passed
        assert r.counts == {"spot_checks": 199}

    def test_rational_spot_checks_form_no_fraction_from_an_int(self, monkeypatch):
        # both routes give ints, which are tested against 0 as they stand
        wrapped = []
        of = Rationals.of

        def counted(self, n):
            wrapped.append(type(n))
            return of(self, n)

        monkeypatch.setattr(Rationals, "of", counted)
        assert certify_partial_spread(QQ, seed=0).passed
        assert int not in wrapped

    def test_rational_route_disagreement_is_a_failed_check(self, monkeypatch):
        # the polarity route calls every pair meeting; the criterion does not
        monkeypatch.setattr(bwspread, "polar_pairing", lambda y, z: 0)
        r = certify_partial_spread(QQ, seed=0)
        assert r.passed is False and r.note == "route disagreement"

    def test_route_disagreement_is_a_failed_check(self, monkeypatch):
        # the polarity route calls every pair skew; the criterion does not
        monkeypatch.setattr(oracles, "quadric_polarization", lambda y, z, F: F.one)
        r = partial_spread_by_translations(F7)
        assert r.passed is False
        assert r.note == "route disagreement"
        assert r.witness == ((0, 0), (1, 4))


    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_group_route_equals_pairwise_scan(self, p):
        F = PrimeField(p)
        r = partial_spread_by_translations(F)
        counts, witness = _pairwise_partial_spread(F)
        assert r.note == ""
        assert r.counts == counts
        assert r.witness == witness
        assert r.passed == (counts["violations"] == 0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_identity_route_equals_pairwise_scan(self, p):
        F = PrimeField(p)
        r = certify_partial_spread(F)
        counts, witness = _pairwise_partial_spread(F)
        assert r.note == ""
        assert r.counts == counts
        assert r.witness == witness
        assert r.passed == (counts["violations"] == 0)

    def test_wrong_param_action_fails_the_action_step(self, monkeypatch):
        # drops the 3ac*u1 term of the second coordinate
        monkeypatch.setattr(
            oracles, "param_action", lambda M, u1, u2, F: (F.of(M.a + u1), F.of(M.b + u2))
        )
        r = partial_spread_by_translations(F5)
        assert r.passed is False
        assert r.note == "group action disagrees with param_action"
        assert r.witness == ((1, 0, 1), (1, 0))
        assert "violations" not in r.counts

    def test_identity_generators_fail_the_orbit_step(self, monkeypatch):
        monkeypatch.setattr(oracles, "group_matrix", lambda a, b, c, F: group_matrix(0, 0, 1, F))
        r = partial_spread_by_translations(F5)
        assert r.passed is False
        assert r.note == "generator orbit of (0,0) misses parameters"
        assert r.witness == (0, 1)

    def test_a_generator_moving_the_directrix_fails_the_action_step(self, monkeypatch):
        # the first compound image taken is the directrix's under M(1,0,1)
        calls = []
        image = oracles.compound_image

        def first_moves(compound, y, F):
            calls.append(y)
            moved = image(compound, y, F)
            return moved[1:] + moved[:1] if len(calls) == 1 else moved

        monkeypatch.setattr(oracles, "compound_image", first_moves)
        r = partial_spread_by_translations(F5)
        assert r.passed is False
        assert r.note == "generator is singular or moves the directrix"
        assert r.witness == ((1, 0, 1), None)

    def test_criterion_forced_nonzero_is_a_route_disagreement(self, monkeypatch):
        monkeypatch.setattr(oracles, "skew_criterion", lambda v1, v2, u1, u2, F: F.one)
        r = partial_spread_by_translations(F7)
        assert r.passed is False
        assert r.note == "route disagreement"
        assert r.witness == ((0, 0), (1, 4))


def _pairwise_partial_spread(F):
    """Reference route: the criterion on every pair of parameters, in
    lexicographic order, and every tangent against the directrix."""
    params = parameter_grid(F)
    witness = None
    violations = 0
    for i, v in enumerate(params):
        for u in params[i + 1 :]:
            if skew_criterion(v[0], v[1], u[0], u[1], F) == F.zero:
                violations += 1
                if witness is None:
                    witness = (v, u)
    ginf = g_infinity(F)
    meeting_ginf = sum(
        1 for u1, u2 in params if not lines_skew(osculating_tangent(u1, u2, F), ginf, F)
    )
    n_lines = F.order**2 + 1
    counts = {
        "lines": n_lines,
        "pairs_checked": n_lines * (n_lines - 1) // 2,
        "violations": violations,
        "tangents_meeting_directrix": meeting_ginf,
    }
    return counts, witness


class TestBuildO:
    def test_line_count_checked(self, monkeypatch):
        # the tangent at (1, 1) built as the one at (0, 0): O would hold q^2 lines
        kappa = bwspread.kappa
        monkeypatch.setattr(bwspread, "kappa", lambda u1, u2, F: kappa(0, 0, F) if (u1, u2) == (1, 1) else kappa(u1, u2, F))
        with pytest.raises(IndistinctTangents, match=r"the tangent at \(1, 1\)"):
            list(tangents(F5))

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_O_lists_the_parameter_grid_then_the_directrix(self, F):
        O = build_O(F)
        grid = parameter_grid(F)
        assert len(O) == len(grid) + 1
        for i, u in enumerate(grid):
            assert O[i] == osculating_tangent(*u, F)
        assert O[-1] == g_infinity(F)

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_regulus_minus_equals_the_per_generator_construction(self, F):
        O = build_O(F)
        q = F.order
        for i, s in enumerate(F.elements()):
            reg = regulus_minus(s, F)
            assert len(reg) == q + 1
            assert set(reg) == {l.plucker for l in _regulus_by_construction(s, F)}
            assert reg == [l.plucker for l in O[i * q : (i + 1) * q] + [O[-1]]]
            assert reg == [l.plucker for l in regulus_lines(s, F)]


class TestParameterReader:
    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_reads_every_kappa_image_back(self, F):
        read = parameter_reader(F)
        for u in parameter_grid(F):
            assert read(bwspread.kappa(*u, F)) == u

    @given(small_fractions, small_fractions)
    def test_reads_the_rational_image_back(self, u1, u2):
        assert parameter_reader(QQ)(kappa_osculating(u1, u2, QQ)) == (u1, u2)

    def test_every_consumer_reads_through_it(self, monkeypatch):
        monkeypatch.setattr(bwspread, "parameter_reader", lambda F: lambda y: (0, 0))
        y = bwspread.kappa(1, 1, F5)
        with pytest.raises(IndistinctTangents):
            list(tangents(F5))
        assert not in_kappa_O(y, F5)
        with pytest.raises(IndistinctTangents):
            _image_difference({y}, F5)


def _regulus_by_construction(s, F):
    """Reference route: the tangents at (s, s^2 + t) for every t, plus the directrix."""
    ssq = mul(s, s, F)
    lines = [osculating_tangent(s, add(ssq, t, F), F) for t in F.elements()]
    lines.append(g_infinity(F))
    return dedup_lines(lines)


class TestCovering:
    def test_gf5_exact_partition(self):
        r = certify_covering(F5)
        assert r.passed
        assert r.counts["points"] == 156
        assert r.counts["affine_with_1_tangents"] == 125

    def test_gf2_partition(self):
        r = certify_covering(F2)
        assert r.passed and r.counts["points"] == 15

    def test_gf3_witness(self):
        r = certify_covering(F3)
        assert not r.passed
        assert r.witness == (0, 1, 1, 0)
        # replay: no line of O passes through the witness
        assert not any(incidence(r.witness, l, F3) for l in build_O(F3))

    def test_gf7_split_multiplicities(self):
        r = certify_covering(F7)
        assert not r.passed
        assert r.counts["affine_with_0_tangents"] == 2 * 343 // 7 * 2
        assert r.counts["affine_with_3_tangents"] == 2 * 343 // 7
        assert r.counts["affine_with_1_tangents"] == 343 // 7

    @pytest.mark.parametrize("F", [F2, F5])
    def test_incidence_partition_brute_force(self, F):
        # independent oracle: count actual point-line incidences
        O = build_O(F)
        for x in enumerate_points(F):
            assert sum(1 for l in O if incidence(x, l, F)) == 1

    def test_rational_witness(self):
        assert uncovered_witness_rational() == (1, 0, 0, 2)

    def test_rationals_fail_with_the_small_height_witness(self):
        r = certify_covering(QQ)
        assert r.passed is False
        assert r.witness == (1, 0, 0, 2)
        assert r.note == "small-height scan for a deficit with no rational cube root"

    def test_rational_small_points_covered(self):
        # (1,0,0,1) lies on a tangent since 1 has the rational cube root 1
        assert cube_roots(covering_deficit(0, 0, 1, QQ), QQ) == {Fraction(1)}
        # 3 is not a perfect cube, so (1,0,0,3) is uncovered
        assert cube_roots(covering_deficit(0, 0, 3, QQ), QQ) == set()


class TestMaximality:
    def test_gf5(self):
        r = certify_maximality(F5)
        assert r.passed and r.counts["omega_points"] == 31

    def test_gf2_point(self):
        # (0,1,1,1): 3 = 1 in GF(2), so u1 = 1, u2 = 1
        t = osculating_tangent(1, 1, F2)
        assert incidence((0, 1, 1, 1), t, F2)

    def test_rational_point(self):
        t = osculating_tangent(2, 7, QQ)
        assert incidence((0, 1, 6, 7), t, QQ)

    def test_char3_skipped(self):
        r = certify_maximality(F3)
        assert r.passed is None
        assert r.note == "the maximality argument inverts 3"

    def test_rationals_pass(self):
        assert certify_maximality(QQ, seed=3).passed

    def test_brute_force_cross_check_gf5(self):
        O = build_O(F5)
        for x in enumerate_points(F5):
            if x[0] != 0:
                continue
            assert any(incidence(x, l, F5) for l in O)


def _dual_spread(F):
    """`certify_dual_spread` on the d(O) = O flag of the duality walk."""
    return certify_dual_spread(F, certify_duality(F)[1])


@lru_cache(maxsize=None)
def _O(p):
    return build_O(PrimeField(p))


class TestOracleRoutes:
    """Each certifier against its point-list route in tests/oracles.py:
    the same flag, witness, counts and note."""

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_covering(self, p):
        F = PrimeField(p)
        assert certify_covering(F) == covering_by_points(F)

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_dual_spread(self, p):
        F = PrimeField(p)
        assert _dual_spread(F) == dual_spread_by_pencils(F, _O(p))

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_duality(self, p):
        F = PrimeField(p)
        assert certify_duality(F)[0] == duality_by_scans(F, _O(p))

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_maximality(self, p):
        F = PrimeField(p)
        assert certify_maximality(F) == maximality_by_filter(F, _O(p))


def _dual_spread_by_walk(F):
    """`certify_dual_spread` on the d(O) = O flag of the oracles' duality walk."""
    return certify_dual_spread(F, duality_by_parameters(F)[1])


# The routes that read the tangents one parameter at a time: the certify walks
# and the reguli walk, kept in tests/oracles.py.
STREAMED_AND_BY_O = {
    "partial_spread": (partial_spread_by_translations, partial_spread_by_O),
    "maximality": (maximality_by_walk, maximality_by_O),
    "dual_spread": (_dual_spread_by_walk, dual_spread_by_O),
    "duality": (lambda F: duality_by_parameters(F)[0], duality_by_O),
    "reguli": (reguli_by_walk, reguli_by_O),
}

# The finite certify checks, which rest on identities over Z and read no tangent.
CERTIFIED = {
    "partial_spread": certify_partial_spread,
    "maximality": certify_maximality,
    "dual_spread": _dual_spread,
    "duality": lambda F: certify_duality(F)[0],
}


class TestCertifiedEqualsWalkAndByO:
    """Each finite certify check against its walk over the parameters and its
    route on the list O = build_O(F), both in tests/oracles.py: the same flag,
    witness, counts and note."""

    @pytest.mark.parametrize("p", PRIMES_TO_31 + [101])
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_every_prime_to_31_and_101(self, name, p):
        walk, by_O = STREAMED_AND_BY_O[name]
        F = PrimeField(p)
        r = CERTIFIED[name](F)
        assert r == walk(F)
        assert r == by_O(F, _O(p))

    @pytest.mark.parametrize("p", PRIMES_TO_31 + [101])
    def test_the_dual_spread_premise_equals_the_walk(self, p):
        F = PrimeField(p)
        assert certify_duality(F)[1] is duality_by_parameters(F)[1] is True


class TestStreamedEqualsByO:
    """Each streamed route against its finite branch on the list O = build_O(F)
    in tests/oracles.py: the same flag, witness, counts and note."""

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    @pytest.mark.parametrize("name", sorted(STREAMED_AND_BY_O))
    def test_every_prime_to_31(self, name, p):
        streamed, by_O = STREAMED_AND_BY_O[name]
        F = PrimeField(p)
        assert streamed(F) == by_O(F, _O(p))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("u", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("name", sorted(STREAMED_AND_BY_O))
    def test_one_broken_tangent_fails_both_routes_alike(self, monkeypatch, name, u, p):
        # Y23 moved off the closed form: the image still gives its parameter back
        break_kappa(monkeypatch, u, lambda y, F: y[:5] + ((y[5] + 1) % F.p,))
        streamed, by_O = STREAMED_AND_BY_O[name]
        F = PrimeField(p)
        r = streamed(F)
        assert r == by_O(F, build_O(F))
        if (u, p) == ((1, 1), 5):  # at GF(5) every check sees this one
            assert r.passed is False

    @pytest.mark.parametrize("name", sorted(STREAMED_AND_BY_O))
    def test_an_image_that_does_not_give_its_parameter_back_is_an_error(self, monkeypatch, name):
        break_kappa(monkeypatch, (1, 1), lambda y, F: y[:2] + ((y[2] + 1) % F.p,) + y[3:])
        streamed, _ = STREAMED_AND_BY_O[name]
        with pytest.raises(IndistinctTangents):
            list(tangents(F5))
        if name == "maximality":
            # it reads each tangent at the parameter of a point at infinity, so
            # it meets the broken one as a point off its tangent: (0, 1, 3u1, u2)
            assert streamed(F5) == CheckOutcome(passed=False, witness=(0, 1, 3, 1))
        elif name == "reguli":
            # the reguli read each tangent by its parameter too; the moved Y03
            # puts one image off the regulus's plane
            assert streamed(F5).witness == 1
        else:
            with pytest.raises(IndistinctTangents):
                streamed(F5)


RATIONAL_SEEDS = list(range(16)) + [1991668817]  # the last draws u == v once


def _draws(seed, count, bound):
    """The first count Fractions a rational spot check draws at seed."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 9)) for _ in range(count)]


class TestRationalSpotChecks:
    """The rational branches test their samples on unreduced int tuples;
    the `*_by_fractions` routes in tests/oracles.py draw the same samples
    and test them in Fraction arithmetic on joined lines."""

    @pytest.mark.parametrize("seed", RATIONAL_SEEDS)
    def test_each_branch_equals_its_fraction_route(self, seed):
        assert certify_partial_spread(QQ, seed) == partial_spread_by_fractions(seed)
        assert certify_maximality(QQ, seed) == maximality_by_fractions(seed)
        assert certify_duality(QQ, seed) == (duality_by_fractions(seed), None)

    @given(small_fractions, small_fractions, small_fractions, small_fractions)
    @settings(max_examples=80)
    def test_criterion_is_weighted_homogeneous(self, v1, v2, u1, u2):
        assume((v1, v2) != (u1, u2))
        lam = lcm(v1.denominator, v2.denominator, u1.denominator, u2.denominator)
        scaled = (int(lam * v1), int(lam**2 * v2), int(lam * u1), int(lam**2 * u2))
        assert skew_criterion(*scaled, QQ) == lam**4 * skew_criterion(v1, v2, u1, u2, QQ)

    @given(small_fractions, small_fractions)
    @settings(max_examples=80)
    def test_integer_tangent_is_a_multiple_of_the_joined_tangent(self, u1, u2):
        x, y = bwspread._integer_tangent(*int_pairs(u1, u2))
        t = osculating_tangent(u1, u2, QQ)
        assert all(type(v) is int for v in x + y) and x[0] != 0 and y[0] != 0
        assert canonicalize(x, QQ) == t.p and canonicalize(y, QQ) == t.plucker
        assert is_int_multiple(y, t.plucker) and is_int_multiple(x, t.p)

    @pytest.mark.parametrize("u", [(0, -4), (0, 0), (0, Fraction(1, 3))])
    def test_duality_pivots_on_the_last_entry_of_the_plane(self, u):
        # entry 0 of the partner's tangent plane vanishes at u1 = 0, so a
        # pivot there reads False on a true identity
        a, b = u
        x0, x1, x2, x3 = cayley.surface_point_coefficients(*int_pairs(a, b))
        e = cayley.tangent_plane_coefficients(*int_pairs(0, 3 * a * a - b))
        assert e[0] == 0
        assert is_int_multiple((x3, x2, x1, x0), e, 3) and not is_int_multiple((x3, x2, x1, x0), e, 0)

    def test_one_tangent_for_all_is_a_route_disagreement(self, monkeypatch):
        # every sample's sextuple is the tangent at (0, 0): polarity says every
        # pair meets, the criterion that none does, so route 2 is not vacuous
        sextuple = bwspread.osculating_sextuple
        monkeypatch.setattr(bwspread, "osculating_sextuple", lambda x0, x1, x2: sextuple(x0, 0, 0))
        v1, v2, u1, u2 = _draws(0, 4, 20)
        assert certify_partial_spread(QQ, seed=0) == CheckOutcome(
            passed=False, witness=((v1, v2), (u1, u2)), note="route disagreement"
        )
        assert certify_maximality(QQ, seed=0).passed is False

    def test_a_wrong_sextuple_fails_the_duality(self, monkeypatch):
        # Y03 dropped: the line map no longer sends the tangent at u to its
        # partner's, as the dual moves Y03 to Y12
        sextuple = bwspread.osculating_sextuple

        def dropped(x0, x1, x2):
            y = sextuple(x0, x1, x2)
            return y[:2] + (0,) + y[3:]

        monkeypatch.setattr(bwspread, "osculating_sextuple", dropped)
        u1, u2 = _draws(0, 2, 30)
        assert certify_duality(QQ, seed=0) == (CheckOutcome(passed=False, witness=(u1, u2)), None)


class TestLinesThroughPoints:
    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_closed_form_equals_incidence_count(self, F):
        O = build_O(F)
        for x in enumerate_points(F):
            assert lines_of_O_through(x, F) == sum(1 for l in O if incidence(x, l, F))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_omega_points_are_the_filtered_points(self, p):
        F = PrimeField(p)
        assert list(omega_points(F)) == [x for x in enumerate_points(F) if x[0] == 0]


class TestDualSpread:
    def test_an_O_the_duality_does_not_fix_fails(self):
        # without the tangent at (1, 1) the set misses the dual of the tangent at (-1, 2)
        O = [l for l in build_O(F5) if l != osculating_tangent(1, 1, F5)]
        r = dual_spread_by_O(F5, O)
        assert r.passed is False and r.counts == {} and r.witness is None
        assert r.note.startswith("the duality does not fix O")

    @pytest.mark.parametrize("F,planes", [(F2, 15), (F5, 156)])
    def test_exactly_one_line_per_plane(self, F, planes):
        r = _dual_spread(F)
        assert r.passed
        assert r.counts["planes_with_1_lines"] == planes

    def test_gf7_fails_with_witness(self):
        r = _dual_spread(F7)
        assert not r.passed
        assert r.witness is not None
        O = build_O(F7)
        count = sum(1 for l in O if line_in_plane(l, r.witness, F7))
        assert count != 1

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_pencil_counts_equal_brute_plane_by_line_counts(self, F):
        r = _dual_spread(F)
        counts, witness = _brute_dual_spread(F)
        assert r.counts == counts
        assert r.witness == witness

    def test_rationals_skipped(self):
        r = _dual_spread(QQ)
        assert r.passed is None
        assert r.note == "plane counting needs a finite field"


class TestDualSpreadPremise:
    """On the oracles' duality walk, `dual_spread` reads d(O) = O off the
    walk's line map, not off the duality check's verdict."""

    @staticmethod
    def _checks(F):
        outcome, fixes_O = duality_by_parameters(F)
        outcomes = {"duality": outcome, "dual_spread": certify_dual_spread(F, fixes_O)}
        return {name: Check(name, "", o).canonical() for name, o in outcomes.items()}

    def test_a_moved_directrix_fails_both_checks(self, monkeypatch):
        # the certify battery's d(O) = O flag is the directrix's test
        moved = nuclei_line(F5).plucker
        dual_plucker = cayley.dual_plucker
        monkeypatch.setattr(
            cayley, "dual_plucker", lambda y, F: moved if y == bwspread.DIRECTRIX_IMAGE else dual_plucker(y, F)
        )
        checks = {c.name: c.canonical() for c in certify_report(F5).checks}
        assert checks["duality"]["status"] == "fail" and checks["duality"]["witness"] is None
        assert checks["dual_spread"]["status"] == "fail"
        assert checks["dual_spread"]["note"] == "the duality does not fix O, so planes cannot be counted as points"

    def test_a_rejected_tangent_plane_fails_duality_only(self, monkeypatch):
        unpatched = self._checks(F5)
        rejected = tangent_plane(1, 1, F5)
        tangency_test = cayley.tangency_test
        monkeypatch.setattr(
            cayley, "tangency_test", lambda e, F: canonicalize(e, F) != rejected and tangency_test(e, F)
        )
        checks = self._checks(F5)
        assert unpatched["duality"]["status"] == "pass" and checks["duality"]["status"] == "fail"
        assert checks["dual_spread"] == unpatched["dual_spread"]
        assert checks["dual_spread"]["status"] == "pass"

    def test_a_broken_tangent_fails_dual_spread(self, monkeypatch):
        break_kappa(monkeypatch, (1, 1), lambda y, F: y[:5] + ((y[5] + 1) % F.p,))
        checks = self._checks(F5)
        assert checks["dual_spread"]["status"] == "fail"
        assert checks["dual_spread"]["note"] == "the duality does not fix O, so planes cannot be counted as points"
        assert checks["dual_spread"]["counts"] == {} and checks["dual_spread"]["witness"] is None
        assert checks["duality"]["status"] == "fail" and checks["duality"]["witness"] == [1, 1]

    @pytest.mark.parametrize("u", [(1, 1), (4, 3)])
    def test_the_flag_is_the_line_map_past_the_witness(self, monkeypatch, u):
        # the point/plane test fails first at (0, 0); the walk goes on, so a
        # tangent broken after the witness still clears the flag
        coefficients = cayley.tangent_plane_coefficients

        def moved(a, b, c, d):  # the plane of (0, 0), its own partner, off by one
            e = coefficients(a, b, c, d)
            return ((e[0] + 1) % F5.p,) + e[1:] if (a, c) == (0, 0) else e

        monkeypatch.setattr(cayley, "tangent_plane_coefficients", moved)
        outcome, fixes_O = duality_by_parameters(F5)
        assert outcome == CheckOutcome(passed=False, witness=(0, 0)) and fixes_O
        break_kappa(monkeypatch, u, lambda y, F: y[:5] + ((y[5] + 1) % F.p,))
        outcome, fixes_O = duality_by_parameters(F5)
        assert outcome == CheckOutcome(passed=False, witness=(0, 0)) and fixes_O is False

    def test_rationals_have_no_flag(self):
        outcome, fixes_O = certify_duality(QQ)
        assert outcome.passed and fixes_O is None
        assert certify_dual_spread(QQ, fixes_O).passed is None


def _brute_dual_spread(F):
    """Reference route: test every plane against every line of O."""
    O = build_O(F)
    z = z_point(F)
    witness = None
    histogram = {}
    missing = 0
    for plane in enumerate_planes(F):
        n = sum(1 for l in O if line_in_plane(l, plane, F))
        histogram[n] = histogram.get(n, 0) + 1
        if n != 1 and witness is None:
            witness = plane
        if point_in_plane(z, plane, F) and n == 0:
            missing += 1
    counts = {
        "planes": sum(histogram.values()),
        "planes_through_Z_without_line": missing,
        **{f"planes_with_{k}_lines": v for k, v in sorted(histogram.items())},
    }
    return counts, witness


class TestDuality:
    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_duality_fixes_O(self, F):
        assert certify_duality(F)[0].passed

    def test_rationals(self):
        assert certify_duality(QQ, seed=5)[0].passed

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_counts_equal_canonicalising_scan(self, F):
        r = certify_duality(F)[0]
        points = [canonicalize(x, F) for x in enumerate_points(F)]
        surface = [x for x in points if _form(x, F) == 0]
        tangent = [e for e in points if _form(canonicalize(e[::-1], F), F) == 0]
        assert (r.counts["surface_points"], r.counts["tangent_planes"]) == (len(surface), len(tangent))
        assert len(surface) == len(tangent) == F.order**2 + F.order + 1

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_a_duality_moving_only_the_directrix_fails(self, F, monkeypatch):
        # every tangent still goes to its partner, so only the directrix test sees it
        ginf = g_infinity(F).plucker
        moved = nuclei_line(F).plucker
        dual_plucker = cayley.dual_plucker
        monkeypatch.setattr(cayley, "dual_plucker", lambda y, F: moved if y == ginf else dual_plucker(y, F))
        r = certify_duality(F)[0]
        assert r.passed is False and r.witness is None
        assert r == duality_by_scans(F, build_O(F))

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_a_rejected_tangent_plane_fails(self, F, monkeypatch):
        # the check hands tangency_test any representative of a plane, so the
        # rejected plane is recognised by its class
        rejected = tangent_plane(1, 1, F)
        tangency_test = cayley.tangency_test
        monkeypatch.setattr(
            cayley, "tangency_test", lambda e, F: canonicalize(e, F) != rejected and tangency_test(e, F)
        )
        r = duality_by_parameters(F)[0]
        assert not r.passed
        assert r.counts["tangent_planes"] == F.order**2 + F.order


def _form(x, F):
    """The cubic form X0*X1*X2 - X1^3 - X0^2*X3 through step-reduced field
    operations, on a canonical tuple; on a plane's reversed coefficients it
    is the tangency form a1*a2*a3 - a2^3 - a0*a3^2."""
    x0, x1, x2, x3 = x
    cube = mul(mul(x1, x1, F), x1, F)
    return sub(sub(mul(mul(x0, x1, F), x2, F), cube, F), mul(mul(x0, x0, F), x3, F), F)


class TestGEquivariance:
    def test_translation_action_on_tangents_gf5(self):
        for a in range(5):
            for b in range(5):
                M = group_matrix(a, b, 1, F5)
                for u1, u2 in parameter_grid(F5):
                    v1, v2 = param_action(M, u1, u2, F5)
                    assert (v1, v2) == ((u1 + a) % 5, (u2 + 3 * a * u1 + b) % 5)
                    image = {
                        tuple(group_apply(M, x, F5))
                        for x in _line_points(osculating_tangent(u1, u2, F5), F5)
                    }
                    target = set(map(tuple, _line_points(osculating_tangent(v1, v2, F5), F5)))
                    assert image == target


def _seeded_matrices(F, n=4):
    """The two generators of the translation group and n seeded M(a, b, c)."""
    rng = random.Random(F.order)
    seeded = [
        group_matrix(rng.randrange(F.order), rng.randrange(F.order), rng.randrange(1, F.order), F)
        for _ in range(n)
    ]
    return [group_matrix(1, 0, 1, F), group_matrix(0, 1, 1, F)] + seeded


def _images_agree(lines, F):
    """Whether the second compound maps every line as the point map does."""
    for M in _seeded_matrices(F):
        compound = second_compound(M.entries, F)
        for l in lines:
            want = plucker(group_apply(M, l.p, F), group_apply(M, l.q, F), F)
            if compound_image(compound, l.plucker, F) != want:
                return False
    return True


class TestSecondCompound:
    """The Plücker action of a group matrix against the images of two
    spanning points: on every line of PG(3,q) at small q, and on O."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_line_of_pg3(self, p):
        F = PrimeField(p)
        assert _images_agree(enumerate_lines(F), F)

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_every_line_of_O(self, p):
        F = PrimeField(p)
        assert _images_agree(_O(p), F)

    def test_rationals(self):
        rng = random.Random(3)
        params = [(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-9, 9)) for _ in range(20)]
        lines = [osculating_tangent(u1, u2, QQ) for u1, u2 in params]
        M = group_matrix(Fraction(2, 3), -1, Fraction(-5, 2), QQ)
        compound = second_compound(M.entries, QQ)
        for l in lines:
            want = plucker(group_apply(M, l.p, QQ), group_apply(M, l.q, QQ), QQ)
            assert compound_image(compound, l.plucker, QQ) == want

    def test_entry_rule(self):
        # row (0,1), column (0,1) of M(a, b, c) is M_00*M_11 - M_01*M_10 = c
        M = group_matrix(2, 3, 4, F7)
        compound = second_compound(M.entries, F7)
        assert compound[0][0] == 4
        # lower triangular, as M is
        assert all(compound[r][k] == 0 for r in range(6) for k in range(r + 1, 6))


def _line_points(l, F):
    return [x for x in enumerate_points(F) if incidence(x, l, F)]


class TestChartAndTransversal:
    def test_chart_origin(self):
        (t, s), e1, e2 = betten_chart(0, 0, QQ)
        assert (t, s) == (0, 0)
        assert e1 == (0, 0, 1, 0) and e2 == (0, 0, 0, 1)

    def test_chart_frozen(self):
        (t, s), e1, e2 = betten_chart(1, 3, QQ)
        assert (t, s) == (0, 1)
        assert e1 == (0, 1, -1, 0)  # x2 = 0*x0 + 1*x1
        assert e2 == (1, -3, 0, 3)  # x3 = -x0/3 + x1, cleared

    def test_chart_gf5(self):
        (t, s), _, _ = betten_chart(1, 0, F5)
        assert (t, s) == (4, 1)

    @given(small_fractions, small_fractions)
    @settings(max_examples=60)
    def test_chart_planes_cut_out_tangent_image(self, u1, u2):
        (t, s), e1, e2 = betten_chart(u1, u2, QQ)
        line = osculating_tangent(u1, u2, QQ)
        for x in (line.p, line.q):
            ax = betten_collineation(x, QQ)
            assert point_in_plane(ax, e1, QQ) and point_in_plane(ax, e2, QQ)

    def test_chart_char3_refused(self):
        with pytest.raises(Char3Unsupported):
            betten_chart(0, 0, F3)


class TestReguli:
    def test_gf2_regulus(self):
        reg = regulus_minus(0, F2)
        assert len(reg) == 3
        ok, polar = verify_regulus(reg, F2)
        assert ok
        assert _in_span(generator(1, 0, F2), polar, F2)

    def test_gf5_all_parameters(self):
        O = {l.plucker for l in build_O(F5)}
        for s in range(5):
            reg = regulus_minus(s, F5)
            assert len(reg) == 6
            assert set(reg) <= O
            ok, polar = verify_regulus(reg, F5)
            assert ok and rank(polar, F5) == 3
            assert _in_span(generator(1, s, F5), polar, F5)

    def test_check_passes_with_counts(self):
        r = reguli_check(F5)
        assert r.passed and r.witness is None
        assert r.counts == {"reguli": 5, "lines_each": 6}

    def test_check_stops_at_first_failing_parameter(self, monkeypatch):
        verify = bwspread.verify_regulus
        calls = []

        def third_fails(lines, F):
            calls.append(lines)
            ok, polar = verify(lines, F)
            return ok and len(calls) != 3, polar

        monkeypatch.setattr(bwspread, "verify_regulus", third_fails)
        r = reguli_by_walk(F5)
        assert not r.passed and r.witness == 2 and len(calls) == 3
        assert r.counts == {"reguli": 5, "lines_each": 6}

    def test_check_fails_when_polar_misses_the_generator(self, monkeypatch):
        verify = bwspread.verify_regulus
        _, other_polar = verify(regulus_minus(3, F5), F5)
        assert not _in_span(generator(1, 2, F5), other_polar, F5)
        calls = []

        def third_misses(lines, F):
            calls.append(lines)
            ok, polar = verify(lines, F)
            return ok, other_polar if len(calls) == 3 else polar

        monkeypatch.setattr(bwspread, "verify_regulus", third_misses)
        r = reguli_by_walk(F5)
        assert not r.passed and r.witness == 2 and len(calls) == 3

    def test_not_a_regulus_on_degenerate_input(self):
        with pytest.raises(NotARegulus):
            verify_regulus([g_infinity(F2).plucker], F2)

    @pytest.mark.parametrize("F", [F2, F3, F5, F7])
    def test_polarity_equals_brute_transversals_on_reguli(self, F):
        all_lines = enumerate_lines(F)
        by_image = {l.plucker: l for l in all_lines}
        for s in F.elements():
            reg = regulus_minus(s, F)
            ok, polar = verify_regulus(reg, F)
            brute_ok, opposite = _brute_regulus([by_image[y] for y in reg], F, all_lines)
            assert ok == brute_ok
            assert all(_in_span(m, polar, F) for m in opposite)
            g = generator(1, s, F)
            assert ok and g in opposite and _in_span(g, polar, F)

    @pytest.mark.parametrize("F", [F2, F3, F5])
    @pytest.mark.parametrize(
        "shape",
        [
            # three concurrent coplanar lines: the images span a line of the quadric
            lambda F: [((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)), ((1, 0, 0, 0), (0, 1, 1, 0))],
            # three lines through one point, not coplanar
            lambda F: [((1, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 0, 1, 0)), ((1, 0, 0, 0), (0, 0, 0, 1))],
            # two skew lines and one line meeting both
            lambda F: [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)), ((1, 0, 0, 0), (0, 0, 1, 0))],
            # q+1 lines through (1,0,0,0) aimed at a conic: a plane inside the quadric
            lambda F: [((1, 0, 0, 0), (0, 1, t, F.of(t * t))) for t in F.elements()]
            + [((1, 0, 0, 0), (0, 0, 0, 1))],
            # q lines of one pencil and one of another sharing a line: a line-pair section
            lambda F: [((1, 0, 0, 0), (0, 1, t, 0)) for t in F.elements()] + [((0, 1, 0, 0), (0, 0, 0, 1))],
            # the whole pencil through (1,0,0,0) in x3 = 0: q+1 collinear images
            lambda F: [((1, 0, 0, 0), (0, 1, t, 0)) for t in F.elements()] + [((1, 0, 0, 0), (0, 0, 1, 0))],
        ],
        ids=[
            "concurrent-coplanar",
            "concurrent-spatial",
            "skew-pair-and-transversal",
            "plane-in-quadric",
            "line-pair-section",
            "collinear",
        ],
    )
    def test_polarity_equals_brute_transversals_off_reguli(self, F, shape):
        lines = [line_through(p, q, F) for p, q in shape(F)]
        ok, _ = verify_regulus([l.plucker for l in lines], F)
        assert ok == _brute_regulus(lines, F, enumerate_lines(F))[0]
        assert not ok

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_verdict_equals_brute_on_quadric_points_of_random_planes(self, F):
        """3 or q+1 images from the quadric points of seeded random planes of
        PG(5,q): nondegenerate conics (reguli and their parts), line pairs,
        planes inside the quadric."""
        all_lines = enumerate_lines(F)
        by_image = {l.plucker: l for l in all_lines}
        rng = random.Random(F.order)
        verdicts = set()
        for _ in range(30):
            basis = [[F.of(rng.randrange(F.order)) for _ in range(6)] for _ in range(3)]
            if rank(basis, F) != 3:
                continue
            images = [y for y in span_points(basis, F) if quadric_value(y, F) == F.zero]
            k = rng.choice((3, F.order + 1))
            if len(images) < k:
                continue
            lines = [by_image[y] for y in rng.sample(images, k)]
            ok, _ = verify_regulus([l.plucker for l in lines], F)
            assert ok == _brute_regulus(lines, F, all_lines)[0]
            verdicts.add(ok)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("F", [F2, F3, F5])
    def test_verdict_equals_brute_on_random_line_sets(self, F):
        all_lines = enumerate_lines(F)
        rng = random.Random(F.order)
        for _ in range(30):
            lines = rng.sample(all_lines, F.order + 1)
            assert verify_regulus([l.plucker for l in lines], F)[0] == _brute_regulus(lines, F, all_lines)[0]


def _in_span(line, basis, F):
    """Whether the Klein image of the line lies in the span of the basis."""
    return rank(list(basis) + [list(line.plucker)], F) == rank(basis, F)


def _brute_regulus(lines, F, all_lines):
    """Reference route: search every line of PG(3,q) for transversals."""
    pairwise = all(lines_skew(a, b, F) for a, b in combinations(lines, 2))
    transversals = [m for m in all_lines if all(not lines_skew(m, l, F) for l in lines)]
    opposite_ok = len(transversals) == len(lines) and all(
        lines_skew(a, b, F) for a, b in combinations(transversals, 2)
    )
    return pairwise and opposite_ok, set(transversals)


def _passed_by_name(report):
    """Each check's status read back as CheckOutcome.passed (None when skipped)."""
    return {c.name: {"pass": True, "fail": False, "skipped": None}[c.status] for c in report.checks}


class TestLargeFields:
    """Fields far beyond any walk or table: every prediction is met, and each
    count and witness equals its closed form."""

    @pytest.mark.parametrize("p", [1000003, 1000000000039, 999999999989])
    def test_counts_and_witnesses_in_closed_form(self, p):
        F, q = PrimeField(p), p
        q2, one_mod_3 = q * q, p % 3 == 1
        report = certify_report(F)
        assert report.mismatches() == []
        checks = {c.name: c.outcome for c in report.checks}
        partial, covering = checks["partial_spread"], checks["covering"]
        assert partial.counts["violations"] == (q2 * (q - 1) if one_mod_3 else 0)
        histogram = {k: v for k, v in covering.counts.items() if k.startswith("affine_with_")}
        if one_mod_3:
            w = nontrivial_cube_root_of_unity(F)
            assert (w * w + w + 1) % p == 0
            assert partial.witness == ((0, 0), (1, min((2 + w) % p, (1 - w) % p)))
            assert skew_criterion(*partial.witness[0], *partial.witness[1], F) == 0
            assert covering.witness == (1, 0, 0, least_non_cube(F))
            assert histogram == {
                "affine_with_0_tangents": 2 * q2 * (q - 1) // 3,
                "affine_with_1_tangents": q2,
                "affine_with_3_tangents": q2 * (q - 1) // 3,
            }
            assert checks["dual_spread"].witness == (0, 0, 1, 1)
        else:
            assert partial.witness is covering.witness is checks["dual_spread"].witness is None
            assert histogram == {"affine_with_1_tangents": q2 * q}
        assert covering.counts["uncovered"] == histogram.get("affine_with_0_tangents", 0)
        assert checks["dual_spread"].counts["planes"] == q2 * q + q2 + q + 1
        klein = run_checks(Report("klein", F.spec_string()), Run(F))
        assert [c.status for c in klein.checks] == ["pass"] * 4


class TestRegimeConsistency:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_joint_verdicts_match_regime(self, p):
        F = PrimeField(p)
        regime = classify_field(F)
        report = certify_report(F)
        assert report.regime == regime.value
        passed = _passed_by_name(report)
        is_partial = passed["partial_spread"]
        covers = passed["covering"]
        assert is_partial == (regime in (SpreadRegime.SPREAD_AND_COVERING, SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING))
        assert covers == (regime == SpreadRegime.SPREAD_AND_COVERING)
        if regime == SpreadRegime.CHAR3:
            assert passed["maximality"] is None
        else:
            assert passed["maximality"]
        assert passed["dual_spread"] == is_partial
        assert passed["duality"]

    def test_rationals(self):
        report = certify_report(QQ)
        assert report.regime == SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING.value
        passed = _passed_by_name(report)
        assert passed["partial_spread"]
        assert not passed["covering"]
        covering = next(c for c in report.checks if c.name == "covering")
        assert covering.outcome.witness == (1, 0, 0, 2)
        assert passed["maximality"]
        assert passed["dual_spread"] is None

    def test_spread_partition_count_identity(self):
        for p in (2, 5, 11):
            q = p
            assert q**3 + q**2 + q + 1 == (q**2 + 1) * (q + 1)
