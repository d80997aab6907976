"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so assertions are strict equalities; the
stated wall-clock budgets are asserted as well. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from bwcayley import cayley
from bwcayley.bwspread import (
    build_O,
    certify_covering,
    certify_dual_spread,
    certify_duality,
    certify_maximality,
    certify_partial_spread,
    osculating_tangent,
    skew_criterion,
    uncovered_witness_rational,
    verify_regulus,
)
from bwcayley.field import PrimeField, Rationals, SpreadRegime, classify_field
from bwcayley.idealprobe import (
    form_value,
    monomial_exponents,
    sample_kappa_O,
    vanishing_space,
)
from bwcayley.klein import pencil_LZomega, verify_variety_equality
from bwcayley.projspace import (
    canonicalize,
    enumerate_lines,
    enumerate_planes,
    enumerate_points,
    incidence,
    line_in_plane,
    lines_skew,
)
from oracles import f_value, parameter_grid, rank, regulus_minus, variety_qd_points

QQ = Rationals()


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {self.name:<42} {status}  ({elapsed:.3f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded {self.seconds}s"
        return False


def test_criterion_01_gf2_spread_partition_dual():
    with _Budget(1, "GF(2) spread, partition, dual spread", 0.1):
        F = PrimeField(2)
        O = build_O(F)
        assert len(O) == 5
        pairs = list(combinations(O, 2))
        assert len(pairs) == 10
        assert all(lines_skew(a, b, F) for a, b in pairs)
        points = enumerate_points(F)
        assert len(points) == 15
        for x in points:
            assert sum(1 for l in O if incidence(x, l, F)) == 1
        per_line = [sum(1 for x in points if incidence(x, l, F)) for l in O]
        assert per_line == [3] * 5
        planes = enumerate_planes(F)
        assert len(planes) == 15
        for e in planes:
            assert sum(1 for l in O if line_in_plane(l, e, F)) == 1


@pytest.mark.parametrize("p,lines,points,planes", [(5, 26, 156, 156), (11, 122, 1464, 1464)])
def test_criterion_02_spread_and_covering_certify(p, lines, points, planes):
    with _Budget(2, f"GF({p}) spread+covering+dual certification", 5.0):
        F = PrimeField(p)
        assert classify_field(F) == SpreadRegime.SPREAD_AND_COVERING
        assert len(build_O(F)) == lines
        partial = certify_partial_spread(F)
        assert partial.passed and partial.counts["violations"] == 0
        covering = certify_covering(F)
        assert covering.passed and covering.counts["points"] == points
        dual = certify_dual_spread(F, certify_duality(F)[1])
        assert dual.passed and dual.counts["planes"] == planes
        assert dual.counts["planes_with_1_lines"] == planes


@pytest.mark.parametrize("p", [7, 13])
def test_criterion_03_not_partial_spread_witness(p):
    with _Budget(3, f"GF({p}) failure witness replay", 5.0):
        F = PrimeField(p)
        assert classify_field(F) == SpreadRegime.NOT_PARTIAL_SPREAD
        r = certify_partial_spread(F)
        assert not r.passed
        assert r.witness is not None
        (v1, v2), (u1, u2) = r.witness
        value = skew_criterion(v1, v2, u1, u2, F)
        assert value == 0
        t1 = osculating_tangent(v1, v2, F)
        t2 = osculating_tangent(u1, u2, F)
        assert not lines_skew(t1, t2, F)  # Klein polarity route agrees


def test_criterion_04_rationals_maximal_partial():
    with _Budget(4, "rationals: maximal partial, uncovered witness", 1.0):
        assert classify_field(QQ) == SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING
        assert certify_maximality(QQ).passed
        witness = uncovered_witness_rational()
        assert witness is not None
        assert witness == (1, 0, 0, 2)
        assert max(abs(int(v)) for v in witness) <= 2


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_criterion_05_variety_set_equality(p):
    budget = 30.0 if p == 11 else 5.0
    with _Budget(5, f"GF({p}) form zero set equals tangent images", budget):
        F = PrimeField(p)
        r = verify_variety_equality(F)
        assert r.passed
        assert r.counts["zero_set_points"] == r.counts["image_points"] == p * p + p + 1


def test_criterion_06_multiplicity_three():
    with _Budget(6, "triple contact at every tangent point", 1.0):
        from oracles import surface_point

        F = PrimeField(5)
        for u1, u2 in parameter_grid(F):
            t = osculating_tangent(u1, u2, F)
            assert t.p == surface_point(u1, u2, F)
            assert cayley.restrict_cubic(t.p, t.q, F) == [0, 0, 0, F.of(-1)]
        rng = random.Random(2024)
        for _ in range(50):
            u1 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            u2 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            t = osculating_tangent(u1, u2, QQ)
            assert t.p == canonicalize(surface_point(u1, u2, QQ), QQ)
            assert cayley.restrict_cubic(t.p, t.q, QQ) == [0, 0, 0, -t.q[1] ** 3]


def test_criterion_07_reguli_gf5():
    with _Budget(7, "GF(5) reguli and opposite reguli", 5.0):
        from oracles import generator

        F = PrimeField(5)
        all_lines = enumerate_lines(F)
        by_image = {l.plucker: l for l in all_lines}
        for s in range(5):
            reg = [by_image[y] for y in regulus_minus(s, F)]
            assert len(reg) == 6
            assert all(lines_skew(a, b, F) for a, b in combinations(reg, 2))
            ok, polar = verify_regulus([l.plucker for l in reg], F)
            g = generator(1, s, F)
            assert ok and rank(polar + [list(g.plucker)], F) == 3
            # the opposite regulus by brute force: the lines meeting all six
            opposite = [m for m in all_lines if all(not lines_skew(m, l, F) for l in reg)]
            assert len(opposite) == 6
            assert all(lines_skew(a, b, F) for a, b in combinations(opposite, 2))
            assert g in opposite


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_08_duality(p):
    with _Budget(8, f"GF({p}) duality onto tangent planes", 1.0):
        from oracles import surface_point, tangent_plane

        F = PrimeField(p)
        surface = [x for x in enumerate_points(F) if f_value(x, F) == 0]
        images = {cayley.duality(x, F) for x in surface}
        tangent_planes = {e for e in enumerate_planes(F) if cayley.tangency_test(e, F)}
        assert len(images) == len(surface)
        assert images == tangent_planes
        for u1, u2 in parameter_grid(F):
            lhs = cayley.duality(surface_point(u1, u2, F), F)
            v1 = F.of(-u1)
            v2 = F.of(3 * u1 * u1 - u2)
            assert lhs == tangent_plane(v1, v2, F)


def test_criterion_09_char3_congruence():
    with _Budget(9, "GF(3) parabolic congruence", 1.0):
        from bwcayley.klein import char3_congruence_check, osculating_plane_pencil_check
        from oracles import in_D, nuclei_line

        F = PrimeField(3)
        r = char3_congruence_check(F)
        assert r.passed
        assert r.counts["congruence_lines"] == 13
        congruence = [l for l in enumerate_lines(F) if in_D(l.plucker, F)]
        union = {l.plucker for l in build_O(F)} | set(pencil_LZomega(F))
        assert {l.plucker for l in congruence} == union
        n = nuclei_line(F)
        assert all(not lines_skew(l, n, F) for l in congruence)
        assert {l.plucker for l in congruence} == variety_qd_points(F)
        assert osculating_plane_pencil_check(F).passed


def test_criterion_10_bounded_degree_probe():
    # The full claim (all degrees, the true ideal) is out of desk-scale
    # reach; this bounded-degree suite stands in for it.
    with _Budget(10, "rationals: degree 2/3 vanishing probe", 10.0):
        from oracles import known_quadric_coefficients, pencil_sample_points

        exps_by_degree = {d: monomial_exponents(d) for d in (2, 3)}
        for seed in (7, 42):
            for d, n in ((2, 60), (3, 120)):
                samples = sample_kappa_O(n, seed)
                basis = vanishing_space(samples, d)
                for form in basis:
                    for pt in pencil_sample_points(20, seed):
                        assert form_value(exps_by_degree[d], form, pt) == 0
                if d == 2:
                    base_rank = rank(basis, QQ)
                    for vec in known_quadric_coefficients().values():
                        assert rank(basis + [vec], QQ) == base_rank


@pytest.mark.parametrize("p", [5, 7])
def test_criterion_11_cross_oracle_skewness(p):
    with _Budget(11, f"GF({p}) criterion vs Klein polarity, all pairs", 5.0):
        F = PrimeField(p)
        params = parameter_grid(F)
        for (v1, v2), (u1, u2) in combinations(params, 2):
            criterion_zero = skew_criterion(v1, v2, u1, u2, F) == 0
            polarity_zero = not lines_skew(
                osculating_tangent(v1, v2, F), osculating_tangent(u1, u2, F), F
            )
            assert criterion_zero == polarity_zero
