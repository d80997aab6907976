"""Canonical coordinates, Plücker machinery, and PG(3,q) enumeration."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwcayley.field import PrimeField, Rationals
from bwcayley.projspace import (
    CoincidentPoints,
    GeometryError,
    canonicalize,
    det4,
    enumerate_lines,
    enumerate_planes,
    enumerate_points,
    gram_apply,
    incidence,
    is_int_multiple,
    line_in_plane,
    lines_skew,
    plucker,
    primitive_int_vector,
    quadric_value,
)
from bwcayley.linalg import nullspace, rref
from oracles import (
    add,
    dedup_lines,
    line_through,
    mul,
    plane_pencil,
    point_in_plane,
    quadric_polarization,
    rank,
    span_points,
    sub,
)

QQ = Rationals()
F5 = PrimeField(5)

nonzero_vec4 = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=4, max_size=4
).filter(lambda v: any(x != 0 for x in v))


class TestCanonical:
    def test_leading_one(self):
        assert canonicalize((0, 3, 1, 2), F5) == (0, 1, 2, 4)

    @given(nonzero_vec4, st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(lambda s: s != 0))
    def test_scaling_invariant(self, vec, scale):
        scaled = [scale * x for x in vec]
        assert canonicalize(vec, QQ) == canonicalize(scaled, QQ)

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            canonicalize((0, 0, 0, 0), F5)

    def test_leading_one_is_still_reduced(self):
        assert canonicalize((1, 15, -1, 0), PrimeField(7)) == (1, 1, 6, 0)
        assert canonicalize((0, 8, 3, -2), PrimeField(7)) == (0, 1, 3, 5)
        assert canonicalize((0, 1, 2, 4), F5) == (0, 1, 2, 4)

    @pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(13), QQ], ids=str)
    def test_matches_scale_by_inverse(self, F):
        rng = random.Random(20)
        for _ in range(400):
            if F.is_finite:
                vec = [rng.randint(-3 * F.p, 3 * F.p) for _ in range(rng.choice((4, 6)))]
                if rng.random() < 0.3:
                    vec[0] = rng.choice((1, F.p + 1, 1 - F.p))  # leads with 1 but unreduced
            else:
                vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.choice((4, 6)))]
                if rng.random() < 0.3:
                    vec[0] = rng.choice((1, Fraction(1)))
            if all(F.of(v) == F.zero for v in vec):
                continue
            want = _scale_by_inverse(vec, F) if F.is_finite else _primitive_by_fractions(vec)
            assert canonicalize(vec, F) == want

    def test_primitive_int_vector(self):
        assert primitive_int_vector((Fraction(1), Fraction(0), Fraction(-2, 3))) == (3, 0, -2)
        assert primitive_int_vector((Fraction(-1, 2), Fraction(1, 2))) == (1, -1)
        assert primitive_int_vector((0, -4, 6, 0)) == (0, 2, -3, 0)
        assert primitive_int_vector((0, 0, Fraction(-7, 3))) == (0, 0, 1)

    @given(nonzero_vec4)
    def test_rational_form_is_primitive_with_positive_lead(self, vec):
        canon = canonicalize(vec, QQ)
        assert all(type(v) is int for v in canon)
        assert gcd(*canon) == 1
        assert next(v for v in canon if v != 0) > 0
        assert canonicalize(canon, QQ) == canon
        assert canon == primitive_int_vector(vec) == _primitive_by_fractions(vec)

    @given(nonzero_vec4)
    def test_rational_form_is_in_the_class_of_the_input(self, vec):
        canon = canonicalize(vec, QQ)
        ratios = {Fraction(c) / x for c, x in zip(canon, vec) if x != 0}
        assert len(ratios) == 1 and all(c == 0 for c, x in zip(canon, vec) if x == 0)

    @pytest.mark.parametrize("vec", [(0, 0, 0, 0), (Fraction(0),) * 6, ()], ids=["ints", "fractions", "empty"])
    def test_rational_zero_vector_rejected(self, vec):
        with pytest.raises(GeometryError):
            canonicalize(vec, QQ)
        with pytest.raises(GeometryError):
            primitive_int_vector(vec)


class TestPrimeFieldKernel:
    """The GF(p) canonical form and span enumeration against reference routes."""

    def test_fraction_entries_are_coerced(self):
        F7 = PrimeField(7)
        assert canonicalize((Fraction(1, 2), 1, 0, 0), F7) == (1, 2, 0, 0)
        # a Fraction behind a leading 1 is reduced too, not passed through
        assert canonicalize((1, Fraction(1, 3), 0, 0), F7) == (1, 5, 0, 0)
        assert canonicalize((0, Fraction(-3, 2), 2, Fraction(7, 4)), F7) == (0, 1, 1, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_brute_search_exhaustively(self, p):
        F = PrimeField(p)
        for vec in product(range(p), repeat=4):
            if not any(vec):
                continue
            want = _brute_canonical(vec, p)
            for lam in range(1, p):
                scaled = [lam * v % p for v in vec]
                unreduced = [v + p * (i + 1) for i, v in enumerate(scaled)]
                negative = [v - p * (i + 1) for i, v in enumerate(scaled)]
                for rep in (scaled, unreduced, negative):
                    assert canonicalize(rep, F) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_span_points_matches_field_op_loop(self, p, k):
        F = PrimeField(p)
        rng = random.Random(100 * p + k)
        bases = 0
        while bases < 40:
            # unreduced and negative entries: the span must reduce them
            n = rng.choice((4, 6))
            basis = [[rng.randint(-2 * p, 3 * p) for _ in range(n)] for _ in range(k)]
            if rank([[F.of(v) for v in row] for row in basis], F) != k:
                continue
            bases += 1
            got = span_points(basis, F)
            assert got == _span_by_field_ops(basis, F)
            assert len(set(got)) == (p**k - 1) // (p - 1)


def _brute_canonical(vec, p):
    """The unique multiple of vec mod p whose first nonzero entry is 1, by
    trying every nonzero scalar."""
    (found,) = {
        tuple(m * v % p for v in vec)
        for m in range(1, p)
        if next(m * v % p for v in vec if m * v % p) == 1
    }
    return found


def _span_by_field_ops(basis, F):
    """Reference span enumeration in step-reduced field operations: the
    coefficient tuples with first nonzero entry 1, leading position
    last-to-first and the tail in lexicographic order, each combination
    scaled by its lead's inverse."""
    k = len(basis)
    points = []
    for lead in range(k - 1, -1, -1):
        for tail in product(list(F.elements()), repeat=k - 1 - lead):
            coeffs = (F.zero,) * lead + (F.one,) + tail
            acc = [F.zero] * len(basis[0])
            for c, vec in zip(coeffs, basis):
                if c != F.zero:
                    acc = [add(a, mul(c, v, F), F) for a, v in zip(acc, vec)]
            points.append(_scale_by_inverse(acc, F))
    return points


def _scale_by_inverse(vec, F):
    """Reference route: reduce every coordinate, then multiply by the inverse
    of the first nonzero one."""
    reduced = [F.of(v) for v in vec]
    lead = next(v for v in reduced if v != F.zero)
    inv = F.inv(lead)
    return tuple(mul(inv, v, F) for v in reduced)


def _primitive_by_fractions(vec):
    """Reference route over Q in Fraction products: clear the lcm of the
    denominators, divide by the content, and make the first nonzero entry
    positive."""
    fracs = [Fraction(v) for v in vec]
    denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if content > 1:
        ints = [v // content for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


class TestPlucker:
    def test_first_axis_pair(self):
        assert plucker((1, 0, 0, 0), (0, 1, 0, 0), F5) == (1, 0, 0, 0, 0, 0)

    def test_directrix(self):
        assert plucker((0, 0, 1, 0), (0, 0, 0, 1), F5) == (0, 0, 0, 0, 0, 1)

    def test_generator_at_one(self):
        assert plucker((1, 1, 1, 0), (0, 0, 1, 1), QQ) == tuple(map(Fraction, (0, 1, 1, 1, 1, 1)))

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            plucker((1, 2, 3, 4), (2, 4, 6, 8), QQ)

    def test_coincident_mod_p_and_in_fractions(self):
        # every minor vanishes only after reduction, or in Fractions
        with pytest.raises(CoincidentPoints):
            plucker((1, 2, 3, 4), (6, 12, 18, 24), F5)
        with pytest.raises(CoincidentPoints):
            plucker((1, 2, 3, 4), (3, 2, 1, 0), PrimeField(2))
        with pytest.raises(CoincidentPoints):
            plucker((Fraction(1, 2), 1, 0, 3), (1, 2, 0, 6), QQ)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_minors_equal_field_operation_minors(self, p):
        # unreduced and negative representatives, against minors formed by step-reduced mul and sub
        F = PrimeField(p)
        rng = random.Random(p)
        for _ in range(200):
            x = [rng.randint(-40, 40) for _ in range(4)]
            y = [rng.randint(-40, 40) for _ in range(4)]
            minors = tuple(
                sub(mul(x[i], y[j], F), mul(x[j], y[i], F), F) for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            )
            if not any(minors):
                with pytest.raises(CoincidentPoints):
                    plucker(x, y, F)
                continue
            assert plucker(x, y, F) == canonicalize(minors, F)
            z = [rng.randint(-40, 40) for _ in range(6)]
            polar = sum(mul(a, b, F) for a, b in zip(minors, gram_apply(z, F)))
            assert quadric_polarization(minors, z, F) == F.of(polar)

    @given(nonzero_vec4, nonzero_vec4, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=200)
    def test_stable_under_respanning(self, p, q, a, b, c, d):
        # replace (p, q) by (ap+bq, cp+dq); same line whenever ad-bc != 0
        if a * d - b * c == 0:
            return
        try:
            y1 = plucker(p, q, QQ)
        except CoincidentPoints:
            return
        p2 = [a * pi + b * qi for pi, qi in zip(p, q)]
        q2 = [c * pi + d * qi for pi, qi in zip(p, q)]
        assert plucker(p2, q2, QQ) == y1

    @given(nonzero_vec4, nonzero_vec4)
    @settings(max_examples=200)
    def test_on_quadric(self, p, q):
        try:
            y = plucker(p, q, QQ)
        except CoincidentPoints:
            return
        assert quadric_value(y, QQ) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_on_quadric_exhaustive(self, p):
        F = PrimeField(p)
        for l in enumerate_lines(F):
            assert quadric_value(l.plucker, F) == 0


class TestCounts:
    @pytest.mark.parametrize(
        "p,points,lines",
        [(2, 15, 35), (3, 40, 130), (5, 156, 806)],
    )
    def test_point_line_plane_counts(self, p, points, lines):
        F = PrimeField(p)
        assert len(enumerate_points(F)) == points
        assert len(enumerate_planes(F)) == points
        assert len(enumerate_lines(F)) == lines

    def test_formulas(self):
        for p in (2, 3, 5):
            q = p
            assert len(enumerate_points(PrimeField(p))) == q**3 + q**2 + q + 1
            assert len(enumerate_lines(PrimeField(p))) == (q**2 + 1) * (q**2 + q + 1)

    def test_pg5_count(self):
        assert sum(1 for _ in pg5_points(PrimeField(3))) == (3**6 - 1) // 2

    def test_no_duplicates(self):
        pts = enumerate_points(PrimeField(3))
        assert len(set(pts)) == len(pts)

    def test_enumeration_is_sorted(self):
        pts = enumerate_points(PrimeField(3))
        assert pts == sorted(pts)


class TestIncidence:
    def test_z_in_omega(self):
        assert point_in_plane((0, 0, 0, 1), (1, 0, 0, 0), F5)

    def test_spanning_point_on_line(self):
        l = line_through((1, 0, 0, 0), (0, 1, 0, 0), F5)
        assert incidence((1, 0, 0, 0), l, F5)
        assert incidence((1, 1, 0, 0), l, F5)
        assert not incidence((0, 0, 1, 0), l, F5)

    def test_directrix_not_in_v_x3(self):
        ginf = line_through((0, 0, 1, 0), (0, 0, 0, 1), F5)
        assert not line_in_plane(ginf, (0, 0, 0, 1), F5)
        assert line_in_plane(ginf, (1, 0, 0, 0), F5)

    @pytest.mark.parametrize("p", [2, 3])
    def test_planes_and_points_per_line(self, p):
        F = PrimeField(p)
        planes = enumerate_planes(F)
        points = enumerate_points(F)
        for l in enumerate_lines(F):
            assert sum(1 for e in planes if line_in_plane(l, e, F)) == p + 1
            assert sum(1 for x in points if incidence(x, l, F)) == p + 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_plane_pencil_is_nullspace_span(self, p):
        F = PrimeField(p)
        planes = enumerate_planes(F)
        for l in enumerate_lines(F):
            in_plane = {e for e in planes if line_in_plane(l, e, F)}
            pencil = span_points(nullspace([list(l.p), list(l.q)], 4, F), F)
            assert len(pencil) == len(set(pencil)) == p + 1
            assert set(pencil) == in_plane
            # the echelon pencil: the same planes, in the order span_points
            # gives the reduced echelon basis of the nullspace
            echelon = plane_pencil(l, F)
            assert set(echelon) == in_plane
            assert echelon == span_points(rref(nullspace([list(l.p), list(l.q)], 4, F), F)[0], F)

    @pytest.mark.parametrize("p", [5, 7])
    def test_plane_pencil_planes_are_canonical(self, p):
        F = PrimeField(p)
        for l in enumerate_lines(F):
            pencil = plane_pencil(l, F)
            assert len(set(pencil)) == p + 1
            assert all(canonicalize(e, F) == e and line_in_plane(l, e, F) for e in pencil)


class TestKleinRoundTrip:
    def test_span_points_counts(self):
        F = PrimeField(3)
        basis = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2]]
        pts = span_points(basis, F)
        assert len(pts) == len(set(pts)) == 13
        assert span_points([], F) == []

    def test_gram_apply_is_polarization(self):
        F = PrimeField(3)
        pts = list(pg5_points(F))[:60]
        for y in pts:
            g = gram_apply(y, F)
            for z in pts:
                dot = sum(a * b for a, b in zip(g, z)) % 3
                assert dot == quadric_polarization(y, z, F)


def pg5_points(F):
    """Every canonical point of PG(5,q), in lexicographic coordinate order."""
    elems = list(F.elements())
    for lead in range(5, -1, -1):
        for tail in product(elems, repeat=5 - lead):
            yield (F.zero,) * lead + (F.one,) + tail


def lines_skew_det(l1, l2, F):
    """Skewness via the 4x4 determinant of the four spanning points: an
    independent route from `lines_skew`, with which it must always agree."""
    return det4([list(l1.p), list(l1.q), list(l2.p), list(l2.q)], F) != F.zero


class TestSkewness:
    @pytest.mark.parametrize("p", [2, 3])
    def test_determinant_agrees_with_polarization_exhaustively(self, p):
        F = PrimeField(p)
        lines = enumerate_lines(F)
        for l1, l2 in combinations(lines, 2):
            assert lines_skew(l1, l2, F) == lines_skew_det(l1, l2, F)

    def test_determinant_agrees_with_polarization_rational(self):
        rng = random.Random(31)

        def point():
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]

        meeting = 0
        for _ in range(300):
            try:
                l1 = line_through(point(), point(), QQ)
                # half the pairs share the point l1.p, so they meet
                l2 = line_through(l1.p if rng.random() < 0.5 else point(), point(), QQ)
            except GeometryError:
                continue
            skew = lines_skew(l1, l2, QQ)
            assert skew == lines_skew_det(l1, l2, QQ)
            meeting += not skew
        assert meeting > 100

    def test_line_not_skew_to_itself(self):
        l = line_through((1, 0, 0, 0), (0, 1, 0, 0), F5)
        assert not lines_skew(l, l, F5)
        assert not lines_skew_det(l, l, F5)

    def test_dedup_by_plucker(self):
        l1 = line_through((1, 0, 0, 0), (0, 1, 0, 0), F5)
        l2 = line_through((1, 1, 0, 0), (1, 2, 0, 0), F5)  # same line, other span
        assert l1 == l2
        assert dedup_lines([l1, l2]) == [l1]


int_vec6 = st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6).map(tuple)


class TestIntMultiple:
    @given(int_vec6, st.integers(min_value=-5, max_value=5).filter(bool), st.integers(min_value=0, max_value=5))
    def test_a_nonzero_multiple_on_a_nonzero_pivot(self, y, t, k):
        assert is_int_multiple(tuple(t * v for v in y), y, k) == (y[k] != 0)

    @given(int_vec6, int_vec6, st.integers(min_value=0, max_value=5))
    def test_agrees_with_canonical_forms(self, z, y, k):
        # on a pivot nonzero in both, it is equality of projective classes
        if z[k] and y[k]:
            assert is_int_multiple(z, y, k) == (canonicalize(z, QQ) == canonicalize(y, QQ))
        else:
            assert not is_int_multiple(z, y, k)

    def test_zero_multiple_is_refused(self):
        assert not is_int_multiple((0, 0, 0, 0), (1, 2, 3, 4))
        assert not is_int_multiple((1, 2, 3, 4), (0, 0, 0, 0), 2)
