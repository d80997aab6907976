"""Exact vanishing-space interpolation and the pencil-closure probe."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from bwcayley import bwspread, idealprobe, linalg
from bwcayley.bwspread import IdentityFails, certify_identity
from bwcayley.field import Rationals
from bwcayley.idealprobe import (
    WITNESS,
    DegreeOutOfRange,
    closure_probe,
    exact_kernel,
    form_value,
    monomial_exponents,
    monomial_row,
    sample_kappa_O,
    sample_parameter_ints,
    vanishing_space,
)
from bwcayley.klein import h1_form, h2_form, h3_form
from bwcayley.linalg import integer_kernel, rref
from bwcayley.projspace import primitive_int_vector, quadric_value
from oracles import (
    kappa_kernel_on_grid,
    known_quadric_coefficients,
    monomial_row_by_powers,
    pencil_sample_points,
    rank,
    same_span,
    sample_kappa_O_by_fractions,
    sample_parameters,
)

QQ = Rationals()


class TestMonomials:
    @pytest.mark.parametrize("d,count", [(0, 1), (1, 6), (2, 21), (3, 56)])
    def test_counts(self, d, count):
        exps = monomial_exponents(d)
        assert len(exps) == count == comb(d + 5, 5)

    def test_graded_lex_head(self):
        exps = monomial_exponents(2)
        assert exps[0] == (2, 0, 0, 0, 0, 0)
        assert exps[-1] == (0, 0, 0, 0, 0, 2)
        assert exps == sorted(exps, reverse=True)

    def test_row_evaluation(self):
        exps = monomial_exponents(1)
        assert monomial_row(exps, (1, 2, 3, 4, 5, 6)) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_rows_match_the_powers_route(self, d):
        rng = random.Random(d)
        exps = monomial_exponents(d)
        shuffled = rng.sample(exps, len(exps))
        for _ in range(20):
            point = [rng.randint(-(10**6), 10**6) for _ in range(6)]
            assert monomial_row(exps, point) == monomial_row_by_powers(exps, point)
            assert monomial_row(shuffled, point) == monomial_row_by_powers(shuffled, point)


# the 16 pool seeds, the seed whose spot checks draw u == v once, and two
# seeds whose probe stream repeats a parameter only in lowest terms:
# (-18/23, 15/18) then (-18/23, 30/36) at 372, and (-3/39, 24/12) then
# (-1/13, 42/21) at 1594, both within the first 60 samples
DRAW_SEEDS = list(range(16)) + [1991668817, 372, 1594]


class TestSampling:
    def test_deterministic(self):
        assert sample_parameter_ints(20, 7) == sample_parameter_ints(20, 7)
        assert sample_parameter_ints(20, 7) != sample_parameter_ints(20, 8)

    def test_prefix_stream(self):
        assert sample_parameter_ints(60, 7) == sample_parameter_ints(120, 7)[:60]

    def test_distinct_bounded_and_in_lowest_terms(self):
        params = sample_parameter_ints(100, 3)
        assert len(set(params)) == 100
        for a, b, c, d in params:
            assert abs(a) <= 50 and 1 <= b <= 50 and gcd(a, b) == 1
            assert abs(c) <= 50 and 1 <= d <= 50 and gcd(c, d) == 1

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_int_draws_are_the_fraction_draws(self, seed):
        params = [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in sample_parameter_ints(60, seed)]
        assert params == sample_parameters(60, seed)
        assert all(type(v) is int for u in sample_parameter_ints(60, seed) for v in u)

    def test_repeats_are_told_in_lowest_terms(self):
        # both seeds draw 61 pairs for 60 samples: the repeat is skipped
        for seed in (372, 1594):
            rng = random.Random(seed)
            draws = [tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in "uv") for _ in range(61)]
            assert len(set(draws)) == 60
            params = [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in sample_parameter_ints(60, seed)]
            assert params == list(dict.fromkeys(draws))

    def test_samples_are_the_fraction_route_in_ints(self):
        for seed in range(16):
            samples = sample_kappa_O(60, seed)
            assert samples == sample_kappa_O_by_fractions(60, seed)
            assert all(type(v) is int for y in samples for v in y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluation_matrices_match_the_fraction_route(self, monkeypatch, d):
        # the rows of the rank certificate (the first N - dim K_d reach the
        # rank at every pool seed), then the fallback's full matrix
        exps = monomial_exponents(d)
        rank_rows = len(exps) - len(exact_kernel(d))
        expected = {
            seed: [monomial_row_by_powers(exps, y) for y in sample_kappa_O_by_fractions(60, seed)] for seed in range(16)
        }
        reduced = []
        monkeypatch.setattr(idealprobe, "_rref_mod", lambda rows, p: reduced.append(rows) or linalg._rref_mod(rows, p))
        for seed in range(16):
            reduced.clear()
            vanishing_space(sample_kappa_O(60, seed), d)
            assert reduced == [expected[seed][:rank_rows]]
        matrices = []
        monkeypatch.setattr(idealprobe, "is_int_multiple", lambda *_: False)
        monkeypatch.setattr(idealprobe, "integer_kernel", lambda rows, ncols: matrices.append(rows) or ([], []))
        for seed in range(16):
            vanishing_space(sample_kappa_O(60, seed), d)
            assert matrices[-1] == expected[seed]

    def test_samples_lie_on_the_variety(self):
        for y in sample_kappa_O(25, 1):
            for form in (h1_form, h2_form, h3_form, quadric_value):
                assert form(y, QQ) == 0


class TestVanishingSpace:
    def test_degree_one_is_empty(self):
        # no hyperplane contains the tangent images (confirmed by elimination)
        assert vanishing_space(sample_kappa_O(30, 7), 1) == []

    def test_degree_two_contains_known_forms(self):
        basis = vanishing_space(sample_kappa_O(60, 7), 2)
        base_rank = rank(basis, QQ)
        for name, vec in known_quadric_coefficients().items():
            assert rank(basis + [vec], QQ) == base_rank, name

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_rank_is_its_length(self, d):
        # the closure probe reads the rank of the basis as its length
        for seed in (0, 7):
            basis = vanishing_space(sample_kappa_O(60, seed), d)
            assert rank(basis, QQ) == len(basis)

    def test_rank_bound_with_three_samples(self):
        basis = vanishing_space(sample_kappa_O(3, 7), 2)
        assert len(basis) >= 21 - 3

    def test_monotone_in_samples(self):
        points = sample_kappa_O(40, 9)
        dims = [len(vanishing_space(points[:n], 2)) for n in (5, 10, 20, 40)]
        assert dims == sorted(dims, reverse=True)

    def test_stable_once_saturated(self):
        # doubling the sample count (same stream) leaves the space unchanged
        b60 = vanishing_space(sample_kappa_O(60, 7), 2)
        b120 = vanishing_space(sample_kappa_O(120, 7), 2)
        norm60, _ = rref(b60, QQ)
        norm120, _ = rref(b120, QQ)
        assert norm60 == norm120

    def test_forms_vanish_exactly(self):
        points = sample_kappa_O(40, 13)
        exps = monomial_exponents(2)
        for form in vanishing_space(points, 2):
            for pt in points:
                assert form_value(exps, form, primitive_int_vector(pt)) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_too_few_points_fall_back(self, d):
        points = sample_kappa_O(60, 7)[:5]
        assert vanishing_space(points, d) == full_kernel(points, d)
        assert len(vanishing_space(points, d)) == len(monomial_exponents(d)) - 5

    @pytest.mark.parametrize("d", [2, 3])
    def test_repeated_points_fall_back(self, d):
        # 60 rows of rank 10 fall short of N - dim K_d = 17 (d = 2) or 34 (d = 3)
        points = sample_kappa_O(10, 7) * 6
        assert vanishing_space(points, d) == full_kernel(points, d)
        assert len(vanishing_space(points, d)) == len(monomial_exponents(d)) - 10

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_point_off_kappa_falls_back(self, d):
        points = sample_kappa_O(60, 7)
        off = points[:30] + [(1, 2, 3, 4, 5, 6)] + points[30:]
        assert vanishing_space(off, d) == full_kernel(off, d)
        assert len(vanishing_space(off, d)) == len(exact_kernel(d)) - 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_directrix_image_falls_back_to_the_same_kernel(self, monkeypatch, d):
        # (0,0,0,0,0,1) lies in kappa's closure but is no kappa(u): the
        # certificate refuses it, and the elimination finds K_d all the same
        points = sample_kappa_O(60, 7) + [(0, 0, 0, 0, 0, 1)]
        calls = []
        monkeypatch.setattr(idealprobe, "integer_kernel", lambda *a: calls.append(1) or integer_kernel(*a))
        assert vanishing_space(points, d) == full_kernel(points, d) == [list(v) for v in exact_kernel(d)]
        assert calls == [1]

    def test_known_forms_vanish_on_samples(self):
        exps = monomial_exponents(2)
        known = known_quadric_coefficients()
        for pt in sample_kappa_O(20, 21):
            ipt = primitive_int_vector(pt)
            for vec in known.values():
                assert form_value(exps, vec, ipt) == 0


def full_kernel(points, d):
    """The fallback route: `integer_kernel` of the whole evaluation matrix."""
    exps = monomial_exponents(d)
    return integer_kernel([monomial_row(exps, y) for y in points], len(exps))[1]


def times_variable(vec, i):
    """A degree-2 coefficient vector times Y_i, as a degree-3 one."""
    index = {e: k for k, e in enumerate(monomial_exponents(3))}
    out = [0] * len(index)
    for e, c in zip(monomial_exponents(2), vec):
        out[index[e[:i] + (e[i] + 1,) + e[i + 1 :]]] += c
    return out


@pytest.fixture
def fresh_kernels():
    """Empty kernel and identity caches before the test and after it."""
    exact_kernel.cache_clear()
    certify_identity.cache_clear()
    yield
    exact_kernel.cache_clear()
    certify_identity.cache_clear()


class TestExactKernel:
    @pytest.mark.parametrize("d,dimension", [(1, 0), (2, 4), (3, 22)])
    def test_matches_the_grid_oracle(self, d, dimension):
        assert [list(v) for v in exact_kernel(d)] == kappa_kernel_on_grid(d)
        assert len(exact_kernel(d)) == dimension

    def test_kappa_weights_is_certified(self, fresh_kernels):
        assert certify_identity("kappa_weights") == (4, 4, 2)
        assert bwspread.IDENTITIES["kappa_weights"] is idealprobe._kappa_weights

    def test_wrong_weights_are_caught(self, fresh_kernels, monkeypatch):
        # Y12 given weight 1: the identity fails, and no kernel is formed
        monkeypatch.setattr(idealprobe, "KAPPA_WEIGHTS", (0, 1, 2, 1, 3, 4))
        with pytest.raises(IdentityFails, match="^identity kappa_weights fails at"):
            exact_kernel(2)
        with pytest.raises(IdentityFails):
            vanishing_space(sample_kappa_O(60, 7), 2)
        assert exact_kernel.cache_info().currsize == 0

    def test_degree_two_is_the_quadric_and_the_cone_forms(self):
        known = list(known_quadric_coefficients().values())
        assert rank(known, QQ) == 4
        assert same_span(exact_kernel(2), known, QQ)

    def test_degree_three_is_the_products(self):
        products = [times_variable(vec, i) for vec in known_quadric_coefficients().values() for i in range(6)]
        assert len(products) == 24 and rank(products, QQ) == 22
        assert same_span(exact_kernel(3), products, QQ)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_eliminations_run_once_per_process(self, fresh_kernels, monkeypatch, d):
        # one elimination per weight 0..4d, then none
        calls = []
        monkeypatch.setattr(idealprobe, "integer_kernel", lambda *a: calls.append(1) or integer_kernel(*a))
        exact_kernel(d)
        assert len(calls) == 4 * d + 1
        exact_kernel(d)
        closure_probe(d, 60, 7)
        assert len(calls) == 4 * d + 1


def contained_by_rank(seed, extra=()):
    """The coefficient route: whether the known forms' coefficient vectors,
    and the `extra` ones, lie in the span of the degree-2 kernel basis."""
    basis = vanishing_space(sample_kappa_O(60, seed), 2)
    vectors = list(known_quadric_coefficients().values()) + list(extra)
    return rank(basis + vectors, QQ) == len(basis)


class TestClosureProbe:
    @pytest.mark.parametrize("seed", [7, 42])
    def test_degree_two(self, seed):
        report = closure_probe(2, 60, seed)
        assert report["pencil_vanishing"].passed
        assert report["contains_known_forms"].passed
        assert report["pencil_vanishing"].counts["nullspace_dimension"] >= 4

    @pytest.mark.parametrize("seed", [7, 42])
    def test_degree_three(self, seed):
        report = closure_probe(3, 120, seed)
        assert report["pencil_vanishing"].passed
        assert report["contains_known_forms"] is None

    def test_known_forms_match_the_coefficient_route(self):
        for seed in range(16):
            assert closure_probe(2, 60, seed)["contains_known_forms"].passed == contained_by_rank(seed) is True

    def test_form_outside_the_space_is_not_contained(self, monkeypatch):
        # Y01^2 does not vanish on the samples, so it lies outside the computed space
        outside = [Fraction(1)] + [Fraction(0)] * 20
        assert contained_by_rank(7, [outside]) is False
        monkeypatch.setattr(idealprobe, "KNOWN_FORMS", idealprobe.KNOWN_FORMS + (lambda y, F: F.of(y[0] * y[0]),))
        assert closure_probe(2, 60, 7)["contains_known_forms"].passed is False

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_warm_probe_eliminates_nothing_over_Q(self, monkeypatch, d):
        closure_probe(d, 60, 0)
        calls = []
        eliminate = linalg.integer_kernel
        counted = lambda ints, ncols: calls.append(1) or eliminate(ints, ncols)  # noqa: E731
        monkeypatch.setattr(linalg, "integer_kernel", counted)
        monkeypatch.setattr(idealprobe, "integer_kernel", counted)
        for seed in (0, 7, 15):
            closure_probe(d, 60, seed)
            assert calls == [], seed

    def test_reproducible(self):
        assert closure_probe(2, 60, 7) == closure_probe(2, 60, 7)

    def test_degree_guard(self):
        # the CLI's range, 1 to MAX_DEGREE
        for d in (0, 4):
            with pytest.raises(DegreeOutOfRange):
                closure_probe(d, 60, 0)

    def test_pencil_points_shape(self):
        pts = pencil_sample_points(20, 7)
        assert len(pts) == 22
        assert pts[-2] == (0, 0, 0, 0, 1, 0)
        assert pts[-1] == (0, 0, 0, 0, 0, 1)
        for pt in pts:
            assert pt[0] == pt[1] == pt[2] == pt[3] == 0


def verdicts(report):
    """The probe's (pencil_vanishing, nonalgebraicity) verdicts; the witness
    is no tangent image, so the second reads whether every form vanishes there."""
    return report["pencil_vanishing"].passed, report["nonalgebraicity"].passed


def sampled_pencil_verdicts(basis, d, seed):
    """The oracle route: (pencil_vanishing, nonalgebraicity) by evaluating
    every form exactly at 20 sampled pencil points, both endpoints and `WITNESS`."""
    exps = monomial_exponents(d)
    pencil = pencil_sample_points(20, seed)
    return (
        all(form_value(exps, form, pt) == 0 for form in basis for pt in pencil),
        all(form_value(exps, form, WITNESS) == 0 for form in basis),
    )


class TestIntegerEvaluation:
    """The pencil and witness verdicts are read off the basis coefficients.
    They must equal the sampled-pencil oracle's exact evaluation, on the
    computed bases and on patched one-monomial bases; a form that does not
    vanish at (0,0,0,0,1,0) must make both fail."""

    @pytest.fixture
    def monomial_basis(self, monkeypatch):
        """Patch the probe's basis to the one form (1/3)*Y^e(d), for a map
        e from the degree to an exponent sextuple; returns the patching function."""

        def patch(exponent):
            def fake(points, d):
                return [[Fraction(1, 3) if e == exponent(d) else Fraction(0) for e in monomial_exponents(d)]]

            monkeypatch.setattr(idealprobe, "vanishing_space", fake)

        return patch

    @pytest.fixture
    def y13_power(self, monomial_basis):
        monomial_basis(lambda d: (0, 0, 0, 0, d, 0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_verdicts_match_the_sampled_pencil(self, d):
        for seed in range(16):
            report = closure_probe(d, 60, seed)
            basis = vanishing_space(sample_kappa_O(60, seed), d)
            expected = sampled_pencil_verdicts(basis, d, seed)
            assert verdicts(report) == expected == (True, True)

    @pytest.mark.parametrize(
        "d, exponent, expected",
        [
            # zero at both endpoints of the pencil line but not on the line
            (2, (0, 0, 0, 0, 1, 1), (False, True)),
            (1, (1, 0, 0, 0, 0, 0), (True, True)),
            (2, (2, 0, 0, 0, 0, 0), (True, True)),
            (3, (3, 0, 0, 0, 0, 0), (True, True)),
            (1, (0, 0, 0, 0, 1, 0), (False, False)),
            (2, (0, 0, 0, 0, 2, 0), (False, False)),
            (3, (0, 0, 0, 0, 3, 0), (False, False)),
        ],
        ids=["y13*y23", "y01", "y01^2", "y01^3", "y13", "y13^2", "y13^3"],
    )
    def test_patched_basis_matches_the_sampled_pencil(self, monomial_basis, d, exponent, expected):
        monomial_basis(lambda _: exponent)
        report = closure_probe(d, 60, 7)
        basis = idealprobe.vanishing_space([], d)
        assert verdicts(report) == sampled_pencil_verdicts(basis, d, 7) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_monomial_matches_the_sampled_pencil(self, monomial_basis, d):
        # a monomial vanishes on the pencil line exactly when it has a factor Y01, Y02, Y03 or Y12
        for exponent in monomial_exponents(d):
            monomial_basis(lambda _, e=exponent: e)
            report = closure_probe(d, 60, 7)
            expected = sampled_pencil_verdicts(idealprobe.vanishing_space([], d), d, 7)
            assert verdicts(report) == expected, exponent

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pencil_vanishing_fails(self, y13_power, d):
        assert closure_probe(d, 60, 7)["pencil_vanishing"].passed is False

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nonalgebraicity_fails(self, y13_power, d):
        assert closure_probe(d, 60, 7)["nonalgebraicity"].passed is False


class TestNonalgebraicity:
    @pytest.mark.parametrize("d,n", [(2, 60), (3, 120)])
    def test_witness_persists(self, d, n):
        outcome = closure_probe(d, n, 7)["nonalgebraicity"]
        assert outcome.passed
        assert outcome.witness == (0, 0, 0, 0, 1, 0)
