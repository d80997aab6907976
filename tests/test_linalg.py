"""Exact elimination: the fraction-free rational path against the generic one, and GF(p) forms."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bwcayley.field import PrimeField, Rationals
from bwcayley.idealprobe import monomial_exponents, monomial_row, sample_kappa_O
from bwcayley.linalg import _rref_generic, nullspace, rank, rref, same_span
from bwcayley.projspace import primitive_int_vector

QQ = Rationals()
F7 = PrimeField(7)


def random_entry(rng, kind):
    if rng.random() < 0.3:
        return 0 if kind == "int" else Fraction(0)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def random_matrix(rng, nrows, ncols, kind):
    rows = [[random_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        # a rational combination of two rows makes the matrix rank-deficient
        a, b = rng.sample(range(nrows), 2)
        x, y = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3)
        rows[rng.randrange(nrows)] = [x * u + y * v for u, v in zip(rows[a], rows[b])]
    if nrows and rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.2:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = 0
    return rows


def assert_same_as_generic(rows):
    got = rref(rows, QQ)
    assert got == _rref_generic(rows, QQ)
    assert all(type(v) is Fraction for row in got[0] for v in row)


class TestRationalRref:
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_matrices_equal_the_generic_elimination(self, kind, seed):
        rng = random.Random(seed)
        for _ in range(150):
            assert_same_as_generic(random_matrix(rng, rng.randint(1, 7), rng.randint(0, 7), kind))

    @pytest.mark.parametrize("shape", [(1, 7), (2, 9), (9, 2), (8, 1), (3, 3), (6, 6)])
    def test_wide_and_tall_shapes(self, shape):
        rng = random.Random(sum(shape))
        for _ in range(40):
            assert_same_as_generic(random_matrix(rng, *shape, "mixed"))

    def test_full_row_rank(self):
        rows = [[2, Fraction(1, 3), 0, 5], [0, 1, Fraction(-7, 2), 1], [1, 1, 1, Fraction(1, 9)]]
        assert rank(rows, QQ) == 3
        assert_same_as_generic(rows)

    @pytest.mark.parametrize(
        "rows",
        [[], [[]], [[0, 0, 0]], [[0], [0]], [[Fraction(0), 0], [0, Fraction(0)]], [[5]], [[Fraction(-3, 4)]]],
    )
    def test_degenerate_inputs(self, rows):
        assert_same_as_generic(rows)

    def test_zero_rows_come_last(self):
        reduced, pivots = rref([[0, 0], [2, 4], [1, 2]], QQ)
        assert reduced == [[1, 2], [0, 0], [0, 0]] and pivots == [0]

    @pytest.mark.parametrize("d", [1, 2])
    def test_ideal_evaluation_matrices(self, d):
        exps = monomial_exponents(d)
        for seed in (0, 7):
            matrix = [monomial_row(exps, primitive_int_vector(p)) for p in sample_kappa_O(30, seed)]
            assert_same_as_generic(matrix)

    def test_input_is_not_modified(self):
        rows = [[Fraction(1, 2), 3], [4, Fraction(5, 6)]]
        copy = [list(r) for r in rows]
        rref(rows, QQ)
        assert rows == copy


def is_rref(reduced, pivots, F):
    r = len(pivots)
    if any(any(v != F.zero for v in row) for row in reduced[r:]):
        return False
    if pivots != sorted(set(pivots)):
        return False
    for i, c in enumerate(pivots):
        row = reduced[i]
        if row[c] != F.one or any(v != F.zero for v in row[:c]):
            return False
        if any(reduced[k][c] != F.zero for k in range(len(reduced)) if k != i):
            return False
    return True


class TestPrimeField:
    @pytest.mark.parametrize("seed", range(3))
    def test_rref_form_and_nullspace(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randrange(7) if rng.random() < 0.7 else 0 for _ in range(ncols)] for _ in range(nrows)]
            reduced, pivots = rref(rows, F7)
            assert is_rref(reduced, pivots, F7)
            assert rank(rows, F7) == len(pivots)
            basis = nullspace(rows, ncols, F7)
            assert len(basis) == ncols - len(pivots)
            free = [c for c in range(ncols) if c not in pivots]
            for vec, fc in zip(basis, free):
                assert vec[fc] == 1 and all(vec[c] == 0 for c in free if c != fc)
                for row in rows:
                    assert sum(a * x for a, x in zip(row, vec)) % 7 == 0
            assert same_span(rows, reduced, F7)

    def test_rank_counts_every_matrix_over_gf2(self):
        # 2x2 matrices over GF(2): 1 of rank 0, 9 of rank 1, 6 of rank 2
        F2 = PrimeField(2)
        ranks = [rank([[a, b], [c, d]], F2) for a, b, c, d in product(range(2), repeat=4)]
        assert [ranks.count(k) for k in range(3)] == [1, 9, 6]

    def test_same_span(self):
        rows = [[1, 2, 3, 4], [0, 1, 1, 1]]
        assert same_span(rows, [[1, 3, 4, 5], [2, 4, 6, 1]], F7)
        assert same_span(rows, rows + [[1, 3, 4, 5]], F7)
        assert not same_span(rows, [[1, 2, 3, 4]], F7)
        assert not same_span(rows, [[1, 0, 0, 0], [0, 1, 1, 1]], F7)

    def test_nullspace_of_a_point_pair_is_the_plane_pencil(self):
        basis = nullspace([[1, 0, 0, 0], [0, 1, 0, 0]], 4, F7)
        assert basis == [[0, 0, 1, 0], [0, 0, 0, 1]]
