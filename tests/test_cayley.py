"""Surface membership, singular structure, generators, restricted cubic, group, duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwcayley.cayley import (
    ZeroParameters,
    dual_plucker,
    duality,
    restrict_cubic,
    tangency_test,
    tangent_plane_coefficients,
)
from bwcayley.field import PrimeField, Rationals
from bwcayley.linalg import nullspace
from bwcayley.projspace import (
    GeometryError,
    canonicalize,
    enumerate_lines,
    enumerate_planes,
    enumerate_points,
    incidence,
)
from oracles import (
    GMatrix,
    ZeroScale,
    f_value,
    g_infinity,
    generator,
    group_apply,
    group_matrix,
    line_through,
    mul,
    neg,
    nuclei_line,
    param_action,
    param_action_by_field_ops,
    point_in_plane,
    sub,
    surface_point,
    tangent_plane,
    z_point,
)

QQ = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def gradient(x, F):
    """The four partial derivatives of X0*X1*X2 - X1^3 - X0^2*X3 at x, in
    step-reduced field operations."""
    x0, x1, x2, x3 = canonicalize(x, F)
    return (
        sub(mul(x1, x2, F), mul(F.of(2), mul(x0, x3, F), F), F),
        sub(mul(x0, x2, F), mul(F.of(3), mul(x1, x1, F), F), F),
        mul(x0, x1, F),
        neg(mul(x0, x0, F), F),
    )


def singular(x, F):
    return all(v == F.zero for v in gradient(x, F))


def nuclei(F):
    """The points off the surface where every partial derivative vanishes."""
    return {x for x in enumerate_points(F) if f_value(x, F) != F.zero and singular(x, F)}


class TestForm:
    @pytest.mark.parametrize("x", [(1, 0, 0, 0), (1, 1, 1, 0), (0, 0, 1, 0)])
    def test_zero_on_surface(self, x):
        assert f_value(x, QQ) == 0

    def test_off_surface_value(self):
        # 1*2*3 - 8 - 4 = -6
        assert f_value((1, 2, 3, 4), QQ) == -6

    @given(small_fractions, small_fractions)
    def test_parametrization_lies_on_surface(self, u1, u2):
        assert f_value(surface_point(u1, u2, QQ), QQ) == 0

    def test_parametrization_exhaustive_gf5(self):
        affine = set()
        for u1 in range(5):
            for u2 in range(5):
                x = surface_point(u1, u2, F5)
                assert f_value(x, F5) == 0
                affine.add(x)
        assert len(affine) == 25  # injective
        on_surface = {x for x in enumerate_points(F5) if f_value(x, F5) == 0}
        at_infinity = {x for x in on_surface if x[0] == 0}
        assert on_surface - at_infinity == affine


class TestGradient:
    def test_at_origin_chart(self):
        assert gradient((1, 0, 0, 0), QQ) == (0, 0, 0, -1)

    def test_on_directrix(self):
        assert gradient((0, 0, 1, 0), QQ) == (0, 0, 0, 0)

    def test_nucleus_char3(self):
        assert gradient((0, 1, 0, 0), F3) == (0, 0, 0, 0)
        assert gradient((0, 1, 0, 0), F5) != (0, 0, 0, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_vanishing_locus_characterization(self, p):
        F = PrimeField(p)
        for x in enumerate_points(F):
            vanishes = all(v == 0 for v in gradient(x, F))
            expected = (x[0] == 0 and x[1] == 0) or (p == 3 and x[0] == 0 and x[2] == 0)
            assert vanishes == expected


class TestSurfacePoint:
    def test_frozen_values(self):
        assert surface_point(0, 0, QQ) == (1, 0, 0, 0)
        assert surface_point(1, 1, QQ) == (1, 1, 1, 0)
        assert surface_point(1, 0, F5) == (1, 1, 0, 4)  # u1*u2 - u1^3 = -1 = 4 mod 5

    def test_not_primitive_before_canonicalising(self):
        # u1 = u2 = 1/2: (b^3 d, a b^2 d, c b^3, a c b^2 - a^3 d) = (16, 8, 8, 2)
        assert surface_point(Fraction(1, 2), Fraction(1, 2), QQ) == (8, 4, 4, 1)

    @given(small_fractions, small_fractions)
    def test_integer_forms_equal_fraction_forms(self, u1, u2):
        # the chart point and its tangent plane in Fraction arithmetic
        assert surface_point(u1, u2, QQ) == canonicalize((1, u1, u2, u1 * u2 - u1**3), QQ)
        assert tangent_plane(u1, u2, QQ) == canonicalize((2 * u1**3 - u1 * u2, u2 - 3 * u1**2, u1, -1), QQ)

    @pytest.mark.parametrize("p", [5, 7])
    def test_fraction_parameters_over_gf_p(self, p):
        # a Fraction parameter is reduced as an element of GF(p) first
        F = PrimeField(p)
        for u1 in (Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)):
            for u2 in (Fraction(1, 3), 4):
                a, b = F.of(u1), F.of(u2)
                assert surface_point(u1, u2, F) == surface_point(a, b, F) == (1, a, b, (a * b - a**3) % p)
                assert tangent_plane(u1, u2, F) == tangent_plane(a, b, F)
        with pytest.raises(ZeroDivisionError):
            surface_point(Fraction(1, p), 0, F)


class TestClassify:
    def test_pinch_point(self):
        z = z_point(QQ)
        assert f_value(z, QQ) == 0 and singular(z, QQ)

    def test_nucleus(self):
        assert singular((0, 1, 0, 0), F3)
        assert f_value((0, 1, 0, 0), F3) != 0

    def test_off_surface(self):
        assert f_value((1, 2, 3, 4), QQ) != 0 and not singular((1, 2, 3, 4), QQ)

    def test_double_points_fill_directrix(self):
        ginf = g_infinity(F5)
        for x in enumerate_points(F5):
            double = f_value(x, F5) == 0 and singular(x, F5)
            assert double == incidence(x, ginf, F5)

    def test_nuclei_fill_nuclei_line_char3(self):
        n = nuclei_line(F3)
        expected = {x for x in enumerate_points(F3) if incidence(x, n, F3)} - {z_point(F3)}
        assert nuclei(F3) == expected

    def test_no_nuclei_outside_char3(self):
        for p in (2, 5):
            F = PrimeField(p)
            assert nuclei(F) == set()
            ginf = g_infinity(F)
            assert {x for x in enumerate_points(F) if singular(x, F)} == {
                x for x in enumerate_points(F) if incidence(x, ginf, F)
            }


class TestTangentObjects:
    def test_tangent_plane_at_origin(self):
        assert tangent_plane(0, 0, QQ) == (0, 0, 0, 1)

    def test_tangent_plane_frozen(self):
        assert tangent_plane(1, 1, QQ) == (1, -2, 1, -1)
        assert tangent_plane(-1, 2, QQ) == canonicalize((0, -1, -1, -1), QQ)

    @given(small_fractions, small_fractions)
    def test_point_on_its_tangent_plane(self, u1, u2):
        assert point_in_plane(surface_point(u1, u2, QQ), tangent_plane(u1, u2, QQ), QQ)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coefficients_over_gf_p_are_the_unit_denominator_formula(self, p):
        # one formula for both fields: at b = d = 1 the scaled entries are
        # (2a^3 - ac, c - 3a^2, a, -1), unreduced
        for a in range(p):
            for c in range(p):
                assert tangent_plane_coefficients(a, 1, c, 1) == (2 * a**3 - a * c, c - 3 * a * a, a, -1)


class TestGenerators:
    def test_special_generators(self):
        assert generator(0, 1, QQ) == g_infinity(QQ)
        assert generator(1, 0, QQ) == line_through((1, 0, 0, 0), (0, 0, 1, 0), QQ)

    def test_generator_plucker(self):
        assert generator(1, 1, QQ).plucker == tuple(map(Fraction, (0, 1, 1, 1, 1, 1)))

    def test_zero_parameters(self):
        with pytest.raises(ZeroParameters):
            generator(0, 0, QQ)

    @given(small_fractions)
    def test_generators_contained_in_surface(self, s):
        g = generator(1, s, QQ)
        assert restrict_cubic(g.p, g.q, QQ) == [0, 0, 0, 0]

    def test_generator_incidence_counts_gf5(self):
        # one generator through each affine surface point, two through each
        # directrix point other than the pinch point
        gens = [generator(1, s, F5) for s in range(5)] + [generator(0, 1, F5)]
        assert len(set(gens)) == 6
        for x in enumerate_points(F5):
            if f_value(x, F5) != 0:
                continue
            count = sum(1 for g in gens if incidence(x, g, F5))
            if x == z_point(F5):
                assert count == 1  # only the directrix itself
            elif x[0] == 0 and x[1] == 0:
                assert count == 2
            else:
                assert count == 1


class TestIntersection:
    def test_osculating_tangent_triple_point(self):
        # the tangent at P(0,0) in direction (0,1,0,0): f(lam*p + mu*q) = -mu^3,
        # so P(0,0) is its only meet with the surface, of multiplicity 3
        l = line_through((1, 0, 0, 0), (0, 1, 0, 0), QQ)
        assert l.p == surface_point(0, 0, QQ)
        assert restrict_cubic(l.p, l.q, QQ) == [0, 0, 0, -1]

    def test_contained_generator(self):
        g = generator(1, 1, QQ)
        assert restrict_cubic(g.p, g.q, QQ) == [0, 0, 0, 0]


class TestGroup:
    def test_identity(self):
        M = group_matrix(0, 0, 1, QQ)
        assert group_apply(M, (1, 2, 3, 4), QQ) == canonicalize((1, 2, 3, 4), QQ)

    def test_zero_scale(self):
        with pytest.raises(ZeroScale):
            group_matrix(1, 1, 0, QQ)

    def test_frozen_action(self):
        M = group_matrix(1, 0, 1, QQ)
        assert group_apply(M, (1, 0, 0, 0), QQ) == (1, 1, 0, -1)  # = P(1, 0)

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5).filter(bool),
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5).filter(bool),
    )
    def test_closure(self, a, b, c, a2, b2, c2):
        M = group_matrix(a, b, c, QQ)
        N = group_matrix(a2, b2, c2, QQ)
        product = tuple(
            tuple(sum(mij * njk for mij, njk in zip(row, col)) for col in zip(*N.entries))
            for row in M.entries
        )
        P = group_matrix(product[1][0], product[2][0], product[1][1], QQ)
        assert isinstance(P, GMatrix) and P.entries == product
        assert P.c == Fraction(c) * Fraction(c2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_form_scales_by_c_cubed(self, p):
        F = PrimeField(p)
        points = enumerate_points(F)
        for a in F.elements():
            for b in F.elements():
                for c in F.elements():
                    if c == 0:
                        continue
                    M = group_matrix(a, b, c, F)
                    c3 = mul(mul(c, c, F), c, F)
                    for x in points:
                        lhs_point = [sum(mij * xj for mij, xj in zip(row, x)) % p for row in M.entries]
                        # unreduced image: f(Mx) must equal c^3 f(x) on representatives
                        assert f_value_raw(lhs_point, F) == mul(c3, f_value_raw(list(x), F), F)

    def test_param_action_matches_matrix(self):
        for a in range(5):
            for b in range(5):
                for c in range(1, 5):
                    M = group_matrix(a, b, c, F5)
                    for u1 in range(5):
                        for u2 in range(5):
                            v1, v2 = param_action(M, u1, u2, F5)
                            assert group_apply(M, surface_point(u1, u2, F5), F5) == surface_point(v1, v2, F5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_param_action_equals_field_operations(self, p):
        F = PrimeField(p)
        for a in F.elements():
            for b in F.elements():
                for c in range(1, p):
                    M = group_matrix(a, b, c, F)
                    for u1 in F.elements():
                        for u2 in F.elements():
                            assert param_action(M, u1, u2, F) == param_action_by_field_ops(M, u1, u2, F)

    @given(st.fractions(), st.fractions(), st.fractions().filter(bool), st.fractions(), st.fractions())
    def test_param_action_over_q_equals_field_operations(self, a, b, c, u1, u2):
        M = group_matrix(a, b, c, QQ)
        assert param_action(M, u1, u2, QQ) == param_action_by_field_ops(M, u1, u2, QQ)

    def test_orbits(self):
        # the three orbits: the group fixes the pinch point, keeps the rest of
        # the directrix off it, and moves (1,0,0,0) onto every affine surface point
        z, ginf = z_point(F5), g_infinity(F5)
        reached = set()
        for a in range(5):
            for b in range(5):
                for c in range(1, 5):
                    M = group_matrix(a, b, c, F5)
                    assert group_apply(M, z, F5) == z
                    assert incidence(group_apply(M, (0, 0, 1, 0), F5), ginf, F5)
                    assert group_apply(M, (0, 0, 1, 0), F5) != z
                    reached.add(group_apply(M, (1, 0, 0, 0), F5))
        assert reached == {surface_point(u1, u2, F5) for u1 in range(5) for u2 in range(5)}


def f_value_raw(x, F):
    """The cubic form on a raw (not canonicalized) representative, in
    step-reduced field operations."""
    x0, x1, x2, x3 = (F.of(v) for v in x)
    cube = mul(mul(x1, x1, F), x1, F)
    return sub(sub(mul(mul(x0, x1, F), x2, F), cube, F), mul(mul(x0, x0, F), x3, F), F)


class TestDuality:
    def test_frozen_example(self):
        e = duality((1, 1, 1, 0), QQ)
        assert e == (0, 1, 1, 1)
        assert tangency_test(e, QQ)

    def test_v_x3_is_tangent(self):
        assert tangency_test((0, 0, 0, 1), QQ)

    def test_omega_is_tangent(self):
        # tangent plane at the pinch point
        assert tangency_test((1, 0, 0, 0), QQ)

    @given(small_fractions, small_fractions)
    def test_parametric_identity(self, u1, u2):
        lhs = duality(surface_point(u1, u2, QQ), QQ)
        rhs = tangent_plane(-u1, 3 * u1 * u1 - u2, QQ)
        assert lhs == rhs

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bijection_onto_tangent_planes(self, p):
        F = PrimeField(p)
        surface = [x for x in enumerate_points(F) if f_value(x, F) == 0]
        images = {duality(x, F) for x in surface}
        tangent_set = {e for e in enumerate_planes(F) if tangency_test(e, F)}
        assert len(images) == len(surface)
        assert images == tangent_set

    def test_dual_line_of_directrix(self):
        y = g_infinity(F5).plucker
        assert dual_plucker(y, F5) == y


def eliminated_dual(l, F):
    """Klein image of the dual line by elimination: the line common to the
    planes whose coefficients are the reversed spanning points of l.
    """
    basis = nullspace([list(reversed(l.p)), list(reversed(l.q))], 4, F)
    return line_through(basis[0], basis[1], F).plucker


class TestDualPlucker:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_equals_elimination_on_every_line(self, p):
        F = PrimeField(p)
        for l in enumerate_lines(F):
            assert dual_plucker(l.plucker, F) == eliminated_dual(l, F)

    def test_equals_elimination_on_rational_lines(self):
        rng = random.Random(7)

        def point():
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]

        checked = 0
        while checked < 3000:
            try:
                l = line_through(point(), point(), QQ)
            except GeometryError:  # a zero vector or a repeated point
                continue
            assert dual_plucker(l.plucker, QQ) == eliminated_dual(l, QQ)
            checked += 1


class TestRepresentatives:
    """f_value, tangency_test, duality and group_apply read the class of a
    tuple: no input canonicalisation, yet every representative gives the same
    answer (f_value the same zero test), and the zero vector, which has no
    class, raises."""

    @pytest.mark.parametrize("p", [5, 7])
    def test_every_scaling_and_unreduced_ints(self, p):
        F = PrimeField(p)
        maps = [group_matrix(1, 0, 1, F), group_matrix(2, 3, p - 1, F)]
        tangent_planes = surface_points = 0
        for x in enumerate_points(F):
            tangent, dual = tangency_test(x, F), duality(x, F)
            on_surface = f_value(x, F) == 0
            images = [group_apply(M, x, F) for M in maps]
            tangent_planes += tangent
            surface_points += on_surface
            for lam in range(1, p):
                scaled = [lam * v % p for v in x]
                unreduced = [lam * v + p for v in x]
                negative = [lam * v % p - p * (i + 1) for i, v in enumerate(x)]
                assert (f_value(scaled, F) == 0) == on_surface
                for rep in (unreduced, negative):
                    assert (f_value(rep, F) == 0) == on_surface
                    assert tangency_test(rep, F) == tangent
                    assert duality(rep, F) == dual
                    assert [group_apply(M, rep, F) for M in maps] == images
        assert tangent_planes == surface_points == p * p + p + 1

    @given(
        st.lists(small_fractions, min_size=4, max_size=4).filter(any),
        small_fractions,
        small_fractions,
        small_fractions.filter(bool),
    )
    def test_fraction_scalings_over_q(self, x, u1, u2, lam):
        M = group_matrix(u1, u2, lam, QQ)
        e = tangent_plane(u1, u2, QQ)
        assert tangency_test([lam * v for v in e], QQ)
        point = surface_point(u1, u2, QQ)
        assert duality([lam * v for v in point], QQ) == tangent_plane(-u1, 3 * u1 * u1 - u2, QQ)
        scaled = [lam * v for v in x]
        assert (f_value(scaled, QQ) == 0) == (f_value(canonicalize(x, QQ), QQ) == 0)
        assert f_value([lam * v for v in point], QQ) == 0
        assert tangency_test(scaled, QQ) == tangency_test(canonicalize(x, QQ), QQ)
        assert duality(scaled, QQ) == duality(x, QQ) == duality(canonicalize(x, QQ), QQ)
        assert group_apply(M, scaled, QQ) == group_apply(M, canonicalize(x, QQ), QQ)

    ZERO_VECTORS = [
        pytest.param((0, 0, 0, 0), F5, id="gf5"),
        pytest.param((7, -7, 14, 0), PrimeField(7), id="gf7-unreduced"),
        pytest.param((0, 0, 0, 0), QQ, id="q"),
        pytest.param((Fraction(0),) * 4, QQ, id="q-fractions"),
    ]

    @pytest.mark.parametrize("zero, F", ZERO_VECTORS)
    def test_f_value_rejects_zero_vector(self, zero, F):
        with pytest.raises(GeometryError):
            f_value(zero, F)

    @pytest.mark.parametrize("zero, F", ZERO_VECTORS)
    def test_tangency_test_rejects_zero_vector(self, zero, F):
        with pytest.raises(GeometryError):
            tangency_test(zero, F)

    @pytest.mark.parametrize("zero, F", ZERO_VECTORS)
    def test_duality_rejects_zero_vector(self, zero, F):
        with pytest.raises(GeometryError):
            duality(zero, F)

    @pytest.mark.parametrize("zero, F", ZERO_VECTORS)
    def test_group_apply_rejects_zero_vector(self, zero, F):
        with pytest.raises(GeometryError):
            group_apply(group_matrix(1, 2, 3, F), zero, F)
