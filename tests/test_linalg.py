"""Exact elimination: the multi-modular rational path against the generic one, and GF(p) forms.

Over Q, `rref`, `rank`, `nullspace` and `same_span` are compared with their
values from `_rref_generic` (Gauss–Jordan through `Fraction` operations). The
modular path's pieces are tested directly too: rational reconstruction, the
prime stream, a first prime that drops the rank or moves a pivot, and entries
too large for one prime, which need Chinese remaindering.
"""

import random
from fractions import Fraction
from itertools import islice, product
from math import isqrt

import pytest

from bwcayley import linalg
from bwcayley.field import PrimeField, Rationals, is_prime
from bwcayley.idealprobe import monomial_exponents, monomial_row, sample_kappa_O
from bwcayley.linalg import PRIMES, _reconstruct, _rref_generic, nullspace, rank, rref, same_span
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


def generic_nullspace(reduced, pivots, ncols):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def assert_same_as_generic(rows):
    got = rref(rows, QQ)
    expected = _rref_generic(rows, QQ)
    assert got == expected
    assert all(type(v) is Fraction for row in got[0] for v in row)
    ncols = len(rows[0]) if rows else 0
    assert rank(rows, QQ) == len(expected[1])
    assert nullspace(rows, ncols, QQ) == generic_nullspace(*expected, ncols)
    assert same_span(rows, expected[0], QQ)


@pytest.fixture
def primes_used(monkeypatch):
    """For each rational rref call, the primes it eliminated modulo, in order.
    A call that needs more than 30 fails the test: no input here needs that many."""
    calls = []
    modular, mod = linalg._rref_modular, linalg._rref_mod

    def counted_modular(rows):
        calls.append([])
        return modular(rows)

    def counted_mod(ints, p):
        calls[-1].append(p)
        if len(calls[-1]) > 30:
            raise RuntimeError("no certified reduced form after 30 primes")
        return mod(ints, p)

    monkeypatch.setattr(linalg, "_rref_modular", counted_modular)
    monkeypatch.setattr(linalg, "_rref_mod", counted_mod)
    return calls


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

    def test_degree3_evaluation_matrix_at_seed_0(self):
        exps = monomial_exponents(3)
        matrix = [monomial_row(exps, primitive_int_vector(p)) for p in sample_kappa_O(60, 0)]
        assert_same_as_generic(matrix)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matrices_with_large_entries(self, seed):
        # entries up to 10^12 over denominators up to 10^9: the reduced forms need several primes
        rng = random.Random(seed)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
            rows = [
                [Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**9)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert_same_as_generic(rows)


class TestModularPath:
    P = PRIMES[0]  # the first prime of the stream

    def test_first_prime_dropping_the_rank_is_replaced(self, primes_used):
        rows = [[1, 1], [1, 1 + self.P]]  # rank 2 over Q, rank 1 modulo P
        assert rref(rows, QQ) == ([[1, 0], [0, 1]], [0, 1])
        assert primes_used[0] == [PRIMES[0], PRIMES[1]]
        assert_same_as_generic(rows)

    def test_first_prime_moving_a_pivot_is_replaced(self, primes_used):
        rows = [[self.P, 1]]  # pivot at column 0 over Q, at column 1 modulo P
        assert rref(rows, QQ) == ([[1, Fraction(1, self.P)]], [0])
        assert primes_used[0][0] == PRIMES[0] and len(primes_used[0]) > 2
        assert_same_as_generic(rows)

    def test_large_entries_are_lifted_across_primes(self, primes_used):
        rows = [[10**20 + 7, 10**30 + 3, 1], [3, 10**25, 10**20]]
        reduced, pivots = rref(rows, QQ)
        assert pivots == [0, 1]
        entries = [v for row in reduced for v in row]
        assert any(abs(v.numerator) > 2**31 and v.denominator > 2**31 for v in entries)
        first = primes_used[0]
        assert first == list(PRIMES[: len(first)]) and len(first) > 2
        assert_same_as_generic(rows)

    def test_one_prime_suffices_for_small_entries(self, primes_used):
        rref([[2, Fraction(1, 3), 0, 5], [0, 1, Fraction(-7, 2), 1]], QQ)
        assert primes_used == [[PRIMES[0]]]

    def test_stream_is_the_primes_below_2_31_in_descending_order(self, monkeypatch):
        assert PRIMES[0] == 2**31 - 1 and is_prime(PRIMES[0])
        # from its first prime on, the is_prime extension reproduces the whole tuple
        monkeypatch.setattr(linalg, "PRIMES", PRIMES[:1])
        assert list(islice(linalg._moduli(), len(PRIMES))) == list(PRIMES)
        assert_same_as_generic([[10**20 + 7, 10**30 + 3, 1], [3, 10**25, 10**20]])

    @pytest.mark.parametrize("n, d", [(0, 1), (5, 1), (-5, 1), (7, 3), (-7, 3), (32767, 32767), (-1, 32767)])
    def test_reconstruction_recovers_small_fractions(self, n, d):
        bound = isqrt(self.P // 2)
        a = n * pow(d, -1, self.P) % self.P
        assert Fraction(*_reconstruct(a, self.P, bound)) == Fraction(n, d)

    @pytest.mark.parametrize("n, d", [(1, 32768), (32768, 1), (10**6, 999983)])
    def test_reconstruction_rejects_fractions_beyond_the_bound(self, n, d):
        bound = isqrt(self.P // 2)
        assert _reconstruct(n * pow(d, -1, self.P) % self.P, self.P, bound) is None

    def test_reconstruction_over_a_product_of_primes(self):
        modulus = PRIMES[0] * PRIMES[1] * PRIMES[2]
        n, d = 10**13 + 1, 10**12 + 3
        got = _reconstruct(n * pow(d, -1, modulus) % modulus, modulus, isqrt(modulus // 2))
        assert Fraction(*got) == Fraction(n, d)


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
