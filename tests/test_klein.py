"""Klein images, cone forms, subspaces, variety equality, characteristic 3."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bwcayley import bwspread, klein
from bwcayley.bwspread import build_O, osculating_tangent
from bwcayley.field import InfiniteField, PrimeField, Rationals
from bwcayley.klein import (
    CUBIC_BASIS,
    WrongCharacteristic,
    char3_congruence_check,
    generator_cubic_check,
    gram_apply,
    h1_form,
    h2_form,
    h3_form,
    in_kappa_O,
    osculating_plane_pencil_check,
    pencil_LZomega,
    projection_check,
    reguli_check,
    variety_zero_set,
    verify_variety_equality,
)
from bwcayley.projspace import (
    GeometryError,
    canonicalize,
    enumerate_lines,
    lines_skew,
    quadric_value,
)
from oracles import (
    IndistinctTangents,
    ProjectionDegenerate,
    _image_difference,
    break_kappa,
    char3_congruence_by_line_scan,
    char3_congruence_by_O,
    char3_congruence_by_walk,
    g_infinity,
    generator_cubic,
    generator_cubic_by_walk,
    in_C,
    in_D,
    kappa_osculating,
    line_through,
    nuclei_line,
    osculating_plane_pencil_by_ranks,
    parameter_grid,
    pencil_line,
    pencil_lines,
    project_through_Cperp,
    projection_by_walk,
    reguli_by_walk,
    surface_point,
    variety_equality_by_O,
    variety_equality_by_walk,
    variety_qd_points,
    variety_zero_set_by_trials,
    w_infinity,
)

QQ = Rationals()
F2, F3, F5 = (PrimeField(p) for p in (2, 3, 5))

small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=9)


def joined_tangent(u1, u2, F):
    """Reference route: `line_through` the surface point and (0, 1, 3u1, u2)."""
    u1, u2 = F.of(u1), F.of(u2)
    return line_through(surface_point(u1, u2, F), (F.zero, F.one, F.of(3 * u1), u2), F)


def assert_same_line(l, reference):
    assert (l.p, l.q, l.plucker) == (reference.p, reference.q, reference.plucker)


def on_variety(y, F):
    """Whether h1, h2, h3 and the Klein quadric all vanish at y."""
    return all(form(y, F) == F.zero for form in (h1_form, h2_form, h3_form, quadric_value))


def w_vector(F):
    """(0,0,1,-1,0,0); spans the polar line of C together with w_infinity."""
    return tuple(F.of(v) for v in (0, 0, 1, -1, 0, 0))


class TestKappa:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
    def test_directrix(self, p):
        # one closed form serves the klein section, the reguli and certify
        F = PrimeField(p)
        assert g_infinity(F).plucker == w_infinity(F) == bwspread.DIRECTRIX_IMAGE == (0, 0, 0, 0, 0, 1)

    def test_generator(self):
        assert oracles.generator(1, 1, QQ).plucker == tuple(map(Fraction, (0, 1, 1, 1, 1, 1)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
    def test_generator_cubic_is_the_joined_generator_image(self, p):
        # the reguli and generator_cubic checks read the generators in closed form
        F = PrimeField(p)
        params = [(1, s) for s in F.elements()] + [(0, 1)]
        assert [generator_cubic(s0, s1, F) for s0, s1 in params] == [
            oracles.generator(s0, s1, F).plucker for s0, s1 in params
        ]

    def test_osculating(self):
        assert osculating_tangent(1, 1, QQ).plucker == tuple(map(Fraction, (1, 3, 1, 2, 1, 1)))


class TestKappaOsculating:
    def test_origin(self):
        assert kappa_osculating(0, 0, QQ) == tuple(map(Fraction, (1, 0, 0, 0, 0, 0)))

    def test_frozen_rational(self):
        y = kappa_osculating(1, 0, QQ)
        assert y == tuple(map(Fraction, (1, 3, 0, 3, 1, 3)))
        assert on_variety(y, QQ)

    def test_frozen_char3(self):
        y = kappa_osculating(1, 1, F3)
        assert y == (1, 0, 1, 2, 1, 1)
        assert in_D(y, F3) and quadric_value(y, F3) == 0

    # the closed form, and osculating_tangent built on it, against the join
    # of the surface point with (0, 1, 3u1, u2) through field operations
    @pytest.mark.parametrize("F", [F2, F3, F5, PrimeField(7)])
    def test_matches_line_image_exhaustive(self, F):
        for u1, u2 in parameter_grid(F):
            join = joined_tangent(u1, u2, F)
            assert kappa_osculating(u1, u2, F) == join.plucker
            assert_same_line(osculating_tangent(u1, u2, F), join)

    @given(small_fractions, small_fractions)
    @settings(max_examples=80)
    def test_matches_line_image_rational(self, u1, u2):
        join = joined_tangent(u1, u2, QQ)
        assert canonicalize(kappa_osculating(u1, u2, QQ), QQ) == join.plucker
        assert_same_line(osculating_tangent(u1, u2, QQ), join)

    @pytest.mark.parametrize("F", [F2, F5, PrimeField(7)])
    def test_forms_vanish_exhaustive(self, F):
        for u1, u2 in parameter_grid(F):
            assert on_variety(kappa_osculating(u1, u2, F), F)

    def test_forms_vanish_random_rational(self):
        rng = random.Random(11)
        for _ in range(200):
            u1 = Fraction(rng.randint(-40, 40), rng.randint(1, 25))
            u2 = Fraction(rng.randint(-40, 40), rng.randint(1, 25))
            assert on_variety(kappa_osculating(u1, u2, QQ), QQ)


class TestTwistedCubic:
    def test_basis_points(self):
        assert generator_cubic(1, 0, QQ) == tuple(map(Fraction, (0, 1, 0, 0, 0, 0)))
        assert generator_cubic(0, 1, QQ) == tuple(map(Fraction, (0, 0, 0, 0, 0, 1)))
        assert generator_cubic(1, 1, QQ) == tuple(map(Fraction, (0, 1, 1, 1, 1, 1)))

    def test_basis_reconstruction(self):
        v0, v1, v2, v3 = CUBIC_BASIS
        s0, s1 = Fraction(2), Fraction(3)
        combo = [
            s0**3 * a + s0**2 * s1 * b + s0 * s1**2 * c + s1**3 * d
            for a, b, c, d in zip(v0, v1, v2, v3)
        ]
        assert canonicalize(combo, QQ) == generator_cubic(s0, s1, QQ)

    def test_images_in_C_on_quadric(self):
        for s in range(5):
            y = generator_cubic(1, s, F5)
            assert in_C(y, F5) and quadric_value(y, F5) == 0
        y = generator_cubic(0, 1, F5)
        assert in_C(y, F5) and quadric_value(y, F5) == 0

    def test_zero_parameters_rejected(self):
        with pytest.raises(oracles.ZeroParameters):
            generator_cubic(0, 0, F5)

    def test_check_counts_generators(self):
        r = generator_cubic_check(F5)
        assert r.passed and r.witness is None
        assert r.counts == {"generators": 6}

    def test_cone_with_vertex_w_infinity(self):
        # joining any generator image with the vertex stays in C and on Q
        winf = w_infinity(F5)
        for s in list(range(5)):
            y = generator_cubic(1, s, F5)
            for lam in range(5):
                joined = tuple((yi + lam * wi) % 5 for yi, wi in zip(y, winf))
                assert in_C(joined, F5)
                assert quadric_value(joined, F5) == 0


class TestPolarLineOfC:
    def test_meets_quadric_only_at_vertex_odd_char(self):
        # points a*w + b*w_inf: the quadric value is -a^2
        for F in (F3, F5):
            w = w_vector(F)
            winf = w_infinity(F)
            for a in F.elements():
                for b in F.elements():
                    if a == 0 and b == 0:
                        continue
                    y = tuple(F.of(a * x + b * z) for x, z in zip(w, winf))
                    on_q = quadric_value(y, F) == 0
                    assert on_q == (a == 0)

    def test_contained_in_C_exactly_in_char2(self):
        assert in_C(w_vector(F2), F2)
        assert not in_C(w_vector(F3), F3)
        assert not in_C(w_vector(F5), F5)
        assert in_C(w_infinity(F2), F2)


class TestPencil:
    def test_directrix_in_pencil(self):
        assert g_infinity(F3).plucker in pencil_LZomega(F3)

    def test_gf3_count(self):
        assert len(pencil_LZomega(F3)) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_q_plus_one_distinct_lines(self, p):
        F = PrimeField(p)
        assert len(set(pencil_LZomega(F))) == len(pencil_LZomega(F)) == p + 1
        # the closed-form images are those of the joined lines, in order
        assert pencil_LZomega(F) == [l.plucker for l in pencil_lines(F)]

    def test_klein_image_of_axis_line(self):
        l = pencil_line(1, 0, F5)
        assert l.plucker == (0, 0, 0, 0, 1, 0)

    def test_zero_parameters_rejected(self):
        with pytest.raises(oracles.ZeroParameters):
            pencil_line(0, 0, F5)

    def test_images_span_expected_line(self):
        for y in pencil_LZomega(F5):
            assert y[0] == 0 and y[1] == 0 and y[2] == 0 and y[3] == 0


class TestProjection:
    def test_u2_independence(self):
        assert project_through_Cperp(kappa_osculating(0, 5, QQ), QQ) == tuple(
            map(Fraction, (1, 0, 0, 0, 0, 0))
        )
        a = project_through_Cperp(kappa_osculating(1, 1, QQ), QQ)
        b = project_through_Cperp(kappa_osculating(1, 7, QQ), QQ)
        assert a == b == tuple(map(Fraction, (1, 3, 0, 3, 1, 0)))

    def test_lands_in_B(self):
        for u1 in range(5):
            for u2 in range(5):
                y = project_through_Cperp(kappa_osculating(u1, u2, F5), F5)
                assert y[2] == y[5] == 0  # in B = V(Y03, Y23)

    def test_check_passes_with_counts(self):
        r = projection_check(F5)
        assert r.passed and r.witness is None
        assert r.counts == {"parameter_pairs": 25}

    def test_check_witness_is_first_failing_pair(self, monkeypatch):
        project = oracles.project_through_Cperp
        monkeypatch.setattr(
            oracles, "project_through_Cperp", lambda y, F: w_vector(F) if y[2] == 3 else project(y, F)
        )
        r = projection_by_walk(F5)
        assert not r.passed and r.witness == (0, 3)

    def test_degenerate_on_polar_line(self):
        with pytest.raises(ProjectionDegenerate):
            project_through_Cperp(w_infinity(QQ), QQ)
        with pytest.raises(ProjectionDegenerate):
            project_through_Cperp(w_vector(QQ), QQ)


def pg5_points(p):
    """Every canonical point of PG(5,p) as an integer sextuple."""
    for lead in range(5, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=5 - lead):
            yield prefix + tail


def integer_zero_scan(p):
    """Zero set of h1, h2, h3 and k over GF(p) by a full scan of PG(5,p),
    with the forms written out in integers.
    """
    zero = set()
    for y in pg5_points(p):
        y01, y02, y03, y12, y13, y23 = y
        s = y12 + y03
        if (
            (3 * y01 * s - y02 * y02) % p == 0
            and (3 * y02 * y13 - s * s) % p == 0
            and (9 * y01 * y13 - y02 * s) % p == 0
            and (y01 * y23 - y02 * y13 + y03 * y12) % p == 0
        ):
            zero.add(y)
    return zero


class TestVarietyZeroSet:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_equals_full_integer_scan(self, p):
        assert variety_zero_set(PrimeField(p)) == integer_zero_scan(p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_solved_scan_equals_trial_values(self, p):
        assert variety_zero_set(PrimeField(p)) == variety_zero_set_by_trials(PrimeField(p))

    def test_a_form_quadratic_in_its_last_coordinate_is_refused(self, monkeypatch):
        def square(y, F):
            return F.of(y[3] * y[3])

        monkeypatch.setattr(klein, "_FORMS_READY_AT", ((), (), (), (square,), (), ()))
        with pytest.raises(GeometryError):
            variety_zero_set(PrimeField(5))

    def test_rationals_refused(self):
        with pytest.raises(InfiniteField):
            variety_zero_set(QQ)


class TestVarietyEquality:
    @pytest.mark.parametrize("p,expected", [(2, 7), (5, 31), (7, 57), (11, 133), (13, 183)])
    def test_equality_and_count(self, p, expected):
        F = PrimeField(p)
        r = verify_variety_equality(F)
        assert r.passed
        assert r.counts["zero_set_points"] == expected == p * p + p + 1

    def test_char3_rejected(self):
        with pytest.raises(WrongCharacteristic):
            verify_variety_equality(F3)

    def test_j_is_a_cone_with_vertex_polar_line(self):
        # adding any combination of w and w_inf to a variety point keeps
        # h1, h2, h3 zero (the quadric may move)
        rng = random.Random(5)
        w = w_vector(QQ)
        winf = w_infinity(QQ)
        for _ in range(50):
            u1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            u2 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            y = kappa_osculating(u1, u2, QQ)
            a = Fraction(rng.randint(-9, 9))
            b = Fraction(rng.randint(-9, 9))
            moved = tuple(yi + a * wi + b * zi for yi, wi, zi in zip(y, w, winf))
            assert h1_form(moved, QQ) == 0
            assert h2_form(moved, QQ) == 0
            assert h3_form(moved, QQ) == 0


class TestMembership:
    def test_pencil_interior_point_not_a_tangent_image(self):
        assert not in_kappa_O((0, 0, 0, 0, 1, 0), QQ)

    def test_directrix_image_is(self):
        assert in_kappa_O(w_infinity(QQ), QQ)

    @given(small_fractions, small_fractions)
    @settings(max_examples=40)
    def test_tangent_images_are(self, u1, u2):
        assert in_kappa_O(kappa_osculating(u1, u2, QQ), QQ)

    @given(small_fractions, small_fractions, small_fractions.filter(lambda c: c != 0))
    @settings(max_examples=40)
    def test_scaled_tangent_images_are(self, u1, u2, c):
        y = kappa_osculating(u1, u2, QQ)
        assert in_kappa_O([c * v for v in y], QQ)
        assert in_kappa_O(osculating_tangent(u1, u2, QQ).plucker, QQ)

    def test_scaled_images_seeded(self):
        rng = random.Random(7)
        for _ in range(100):
            u1 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            u2 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
            assert in_kappa_O([c * v for v in kappa_osculating(u1, u2, QQ)], QQ)
            # moving one coordinate off the closed form leaves the image set
            y = list(kappa_osculating(u1, u2, QQ))
            y[5] += 1
            assert not in_kappa_O([c * v for v in y], QQ)
        assert not in_kappa_O((0, 0, 0, 0, -3, 0), QQ)  # the pencil witness, scaled

    @pytest.mark.parametrize("F", [F2, F3, F5, PrimeField(7)])
    def test_exhaustive_images_and_scalings(self, F):
        for u1, u2 in parameter_grid(F):
            y = kappa_osculating(u1, u2, F)
            for c in range(1, F.p):
                assert in_kappa_O([F.of(c * v) for v in y], F)
        assert in_kappa_O(w_infinity(F), F)
        assert not in_kappa_O((0, 0, 0, 0, 1, 0), F)


class TestChar3:
    def test_congruence(self):
        r = char3_congruence_check(F3)
        assert r.passed
        assert r.counts["congruence_lines"] == 13
        assert r.counts["tangents_plus_pencil"] == 13
        assert r.counts["cone_section_points"] == 13

    def test_congruence_matches_line_scan(self):
        O = build_O(F3)
        r, ref = char3_congruence_check(F3), char3_congruence_by_line_scan(F3, O)
        assert (r.passed, r.witness) == (ref.passed, ref.witness) == (True, None)
        assert r.counts == ref.counts

    @pytest.mark.parametrize("skew", [False, True], ids=["meets_nuclei_line", "skew_to_nuclei_line"])
    def test_foreign_line_fails_both_routes(self, skew):
        # the directrix is a pencil line too, so dropping it fails neither route;
        # swap the first tangent for a line outside tangents plus pencil instead
        O = build_O(F3)
        union = {l.plucker for l in O} | set(pencil_LZomega(F3))
        n = nuclei_line(F3)
        foreign = next(l for l in enumerate_lines(F3) if l.plucker not in union and lines_skew(l, n, F3) == skew)
        mutated = [foreign] + O[1:]
        r, ref = char3_congruence_by_O(F3, mutated), char3_congruence_by_line_scan(F3, mutated)
        assert r.passed is False and ref.passed is False
        assert r.counts == ref.counts
        assert r.witness == (foreign.plucker if skew else None)

    def test_kappa_of_nuclei_line_is_cone_vertex(self):
        assert nuclei_line(F3).plucker == bwspread.NUCLEI_IMAGE == (0, 0, 0, 0, 1, 0)
        vertex = (0, 0, 0, 0, 1, 0)
        assert in_D(vertex, F3) and quadric_value(vertex, F3) == 0

    def test_every_congruence_line_meets_nuclei_line(self):
        n = nuclei_line(F3)
        congruence = [l for l in enumerate_lines(F3) if in_D(l.plucker, F3)]
        assert len(congruence) == 13
        for l in congruence:
            assert not lines_skew(l, n, F3)

    @pytest.mark.parametrize("p,expected", [(2, 7), (3, 13), (5, 31), (7, 57), (11, 133)])
    def test_cone_section_equals_filter_of_pg5(self, p, expected):
        # oracle: every point of PG(5,p) filtered by D and the quadric
        F = PrimeField(p)
        brute = {y for y in pg5_points(p) if in_D(y, F) and quadric_value(y, F) == 0}
        assert variety_qd_points(F) == brute
        assert len(brute) == expected

    def test_images_exhaust_cone_section(self):
        points = variety_qd_points(F3)
        images = {l.plucker for l in build_O(F3)} | set(pencil_LZomega(F3))
        assert points == images

    def test_osculating_plane_pencil(self):
        assert osculating_plane_pencil_check(F3).passed

    def test_axis_is_polar_of_D(self):
        # independent route: apply the Gram matrix to D's linear forms
        d_eq = [(0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)]
        polar = [gram_apply(row, F3) for row in d_eq]
        polar_canon = {canonicalize(v, F3) for v in polar}
        _, v1, v2, _ = CUBIC_BASIS
        assert polar_canon == {canonicalize(v1, F3), canonicalize(v2, F3)}

    def test_wrong_characteristic_rejected(self):
        with pytest.raises(WrongCharacteristic):
            char3_congruence_check(F5)
        with pytest.raises(WrongCharacteristic):
            osculating_plane_pencil_check(F5)


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestStreamedEqualsByO:
    """The klein and char3 walks against their routes on the list
    O = build_O(F), both in tests/oracles.py."""

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_every_prime_to_31(self, p):
        F = PrimeField(p)
        if p == 3:
            assert char3_congruence_by_walk(F) == char3_congruence_by_O(F, build_O(F))
        else:
            assert variety_equality_by_walk(F) == variety_equality_by_O(F, build_O(F))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("u", [(0, 0), (1, 1)])
    def test_one_broken_tangent_fails_both_routes_alike(self, monkeypatch, u, p):
        # Y23 moved off the closed form: the image still gives its parameter back
        break_kappa(monkeypatch, u, lambda y, F: y[:5] + ((y[5] + 1) % F.p,))
        F = PrimeField(p)
        streamed, by_O = (
            (char3_congruence_by_walk, char3_congruence_by_O)
            if p == 3
            else (variety_equality_by_walk, variety_equality_by_O)
        )
        r = streamed(F)
        assert r == by_O(F, build_O(F))
        # the char3 witness is a line skew to the nuclei line, which this one is not
        assert r.passed is False and (r.witness is None) == (p == 3)

    @pytest.mark.parametrize("check,F", [(variety_equality_by_walk, F5), (char3_congruence_by_walk, F3)])
    def test_an_image_that_does_not_give_its_parameter_back_is_an_error(self, monkeypatch, check, F):
        break_kappa(monkeypatch, (1, 1), lambda y, F: y[:2] + ((y[2] + 1) % F.p,) + y[3:])
        with pytest.raises(IndistinctTangents):
            check(F)


# (check, its route on O, the point set it compares, field)
SECTIONS = [
    (variety_equality_by_walk, variety_equality_by_O, "variety_zero_set", F5),
    (char3_congruence_by_walk, char3_congruence_by_O, "variety_qd_points", F3),
]


class TestImageDifference:
    """`_image_difference` on a changed point set, read through both walks
    and their routes on O, all in tests/oracles.py, where the point set is
    patched (it imports its own binding of `klein.variety_zero_set`)."""

    @staticmethod
    def patch_points(monkeypatch, name, points):
        monkeypatch.setattr(oracles, name, lambda F: set(points))

    @pytest.mark.parametrize("check,by_O,name,F", SECTIONS, ids=["klein", "char3"])
    def test_the_points_are_the_images(self, check, by_O, name, F):
        q = F.order
        assert _image_difference(getattr(oracles, name)(F), F) == ([], [], q * q + q + 1)

    @pytest.mark.parametrize("check,by_O,name,F", SECTIONS, ids=["klein", "char3"])
    @pytest.mark.parametrize("foreign", [(0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1)], ids=["leading_0", "leading_1"])
    def test_a_planted_point_is_extra(self, monkeypatch, check, by_O, name, F, foreign):
        points = getattr(oracles, name)(F)
        assert foreign not in points
        planted = points | {foreign}
        q = F.order
        assert _image_difference(planted, F) == ([foreign], [], q * q + q + 1)
        self.patch_points(monkeypatch, name, planted)
        r = check(F)
        assert r.passed is False and r == by_O(F, build_O(F))

    @pytest.mark.parametrize("check,by_O,name,F", SECTIONS, ids=["klein", "char3"])
    @pytest.mark.parametrize("dropped", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)], ids=["tangent", "directrix"])
    def test_a_dropped_image_is_missing(self, monkeypatch, check, by_O, name, F, dropped):
        points = getattr(oracles, name)(F)
        assert dropped in points
        q = F.order
        assert _image_difference(points - {dropped}, F) == ([], [dropped], q * q + q + 1)
        self.patch_points(monkeypatch, name, points - {dropped})
        r = check(F)
        assert r.passed is False and r == by_O(F, build_O(F))


# Each klein or char3 check, all resting on identities over Z, and its walk in
# tests/oracles.py; the checks that need characteristic 3 and the one that
# refuses it.
CERTIFIED_AND_WALK = {
    "variety_equality": (verify_variety_equality, variety_equality_by_walk),
    "projection": (projection_check, projection_by_walk),
    "reguli": (reguli_check, reguli_by_walk),
    "generator_cubic": (generator_cubic_check, generator_cubic_by_walk),
    "congruence": (char3_congruence_check, char3_congruence_by_walk),
    "osculating_plane_pencil": (osculating_plane_pencil_check, osculating_plane_pencil_by_ranks),
}
CHAR3_ONLY = {"congruence", "osculating_plane_pencil"}
NOT_CHAR3 = {"variety_equality"}


class TestCertifiedEqualsWalk:
    """Each certified check against its walk: the same flag, witness, counts
    and note, and the same refusal of a field of the wrong characteristic."""

    @pytest.mark.parametrize("p", PRIMES_TO_31 + [101])
    @pytest.mark.parametrize("name", sorted(CERTIFIED_AND_WALK))
    def test_every_prime_to_31_and_101(self, name, p):
        check, walk = CERTIFIED_AND_WALK[name]
        F = PrimeField(p)
        if (name in CHAR3_ONLY and p != 3) or (name in NOT_CHAR3 and p == 3):
            with pytest.raises(WrongCharacteristic):
                check(F)
            with pytest.raises(WrongCharacteristic):
                walk(F)
        else:
            assert check(F) == walk(F)
