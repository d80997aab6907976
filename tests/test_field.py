"""Field arithmetic, cube-root structure, and regime classification."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwcayley.field import (
    MalformedSpec,
    NonPrimeModulus,
    PrimeField,
    Rationals,
    SpreadRegime,
    classify_field,
    cube_roots,
    icbrt,
    nontrivial_cube_root_of_unity,
    parse_field_spec,
)
from oracles import unity_root_by_quadratic

QQ = Rationals()

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def brute_cube_roots(a: int, p: int) -> set:
    return {s for s in range(p) if pow(s, 3, p) == a % p}


def primes_below(n: int) -> list:
    """The primes below n by a sieve, not by `field.is_prime`."""
    composite, primes = set(), []
    for p in range(2, n):
        if p not in composite:
            primes.append(p)
            composite.update(range(p * p, n, p))
    return primes


class TestParse:
    def test_prime(self):
        F = parse_field_spec("gf:5")
        assert isinstance(F, PrimeField) and F.p == 5

    def test_rationals(self):
        assert isinstance(parse_field_spec("q"), Rationals)

    def test_composite_rejected(self):
        with pytest.raises(NonPrimeModulus):
            parse_field_spec("gf:6")

    @pytest.mark.parametrize("bad", ["", "gf:", "gf:abc", "r", "gf:-7", "gf:²", "gf:٣"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedSpec):
            parse_field_spec(bad)

    def test_spec_string_round_trip(self):
        for text in ("gf:5", "gf:13", "q"):
            assert parse_field_spec(text).spec_string() == text


class TestCubeRoots:
    def test_gf5_two(self):
        # brute force: 3^3 = 27 = 2 mod 5, and no other cube hits 2
        assert brute_cube_roots(2, 5) == {3}
        assert cube_roots(2, PrimeField(5)) == {3}

    def test_rational_eight(self):
        assert cube_roots(Fraction(8), QQ) == {Fraction(2)}

    def test_gf7_one(self):
        assert brute_cube_roots(1, 7) == {1, 2, 4}
        assert cube_roots(1, PrimeField(7)) == {1, 2, 4}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_brute_force_everywhere(self, p):
        F = PrimeField(p)
        for a in range(p):
            assert cube_roots(a, F) == brute_cube_roots(a, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_root_count_law(self, p):
        F = PrimeField(p)
        sizes = {len(cube_roots(a, F)) for a in range(p)}
        assert sizes <= {0, 1, 3}
        all_unique = sizes == {1}
        assert all_unique == (p % 3 != 1 or p == 3)

    def test_rational_non_cube(self):
        assert cube_roots(Fraction(2), QQ) == set()
        assert cube_roots(Fraction(-27, 8), QQ) == {Fraction(-3, 2)}

    @given(rationals)
    def test_rational_cube_always_recovered(self, s):
        assert cube_roots(s**3, QQ) == {s}


class TestUnityRoot:
    def test_gf7(self):
        # roots of X^2+X+1 mod 7 are 2 and 4; the smallest is returned
        assert nontrivial_cube_root_of_unity(PrimeField(7)) == 2

    def test_gf5_none(self):
        assert all((x * x + x + 1) % 5 != 0 for x in range(5))
        assert nontrivial_cube_root_of_unity(PrimeField(5)) is None

    def test_gf3_only_trivial(self):
        # X^2+X+1 = (X-1)^2 in characteristic 3; the root 1 does not count
        assert nontrivial_cube_root_of_unity(PrimeField(3)) is None

    def test_rationals_none(self):
        assert nontrivial_cube_root_of_unity(QQ) is None

    def test_returned_root_cubes_to_one(self):
        for p in (7, 13, 31, 37):
            w = nontrivial_cube_root_of_unity(PrimeField(p))
            assert w is not None and pow(w, 3, p) == 1 and w != 1


class TestProfileAndRegime:
    def test_cube_table_against_the_quadratic_and_the_regime(self):
        # The table's row for 1 against the roots of X^2+X+1 found without
        # it, and cubing onto GF(p) exactly in the spread regime, or at
        # p = 3, where cubing is the identity map
        for p in primes_below(1000):
            F = PrimeField(p)
            assert nontrivial_cube_root_of_unity(F) == unity_root_by_quadratic(p), p
            image = [a for a in range(p) if cube_roots(a, F)]
            assert (len(image) == p) == (classify_field(F) == SpreadRegime.SPREAD_AND_COVERING or p == 3), p

    @pytest.mark.parametrize("p", [2, 5, 7, 11, 13, 17, 19, 31])
    def test_unity_root_iff_not_injective(self, p):
        # the table's unity root against injectivity counted by brute force
        injective = len({pow(s, 3, p) for s in range(p)}) == p
        assert (nontrivial_cube_root_of_unity(PrimeField(p)) is not None) == (not injective)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_injective_iff_surjective_iff_mod3(self, p):
        F = PrimeField(p)
        injective = all(len(cube_roots(a, F)) <= 1 for a in range(p))
        surjective = all(cube_roots(a, F) for a in range(p))
        assert injective == surjective == (p % 3 != 1)

    def test_rational_profile(self):
        # cubing on Q is injective but not onto, and 1 has no other cube root
        assert cube_roots(Fraction(-8, 27), QQ) == {Fraction(-2, 3)}
        assert cube_roots(2, QQ) == set()
        assert nontrivial_cube_root_of_unity(QQ) is None
        assert classify_field(QQ) == SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING

    @pytest.mark.parametrize(
        "spec,regime",
        [
            ("gf:2", SpreadRegime.SPREAD_AND_COVERING),
            ("gf:3", SpreadRegime.CHAR3),
            ("gf:5", SpreadRegime.SPREAD_AND_COVERING),
            ("gf:7", SpreadRegime.NOT_PARTIAL_SPREAD),
            ("gf:11", SpreadRegime.SPREAD_AND_COVERING),
            ("gf:13", SpreadRegime.NOT_PARTIAL_SPREAD),
            ("q", SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING),
        ],
    )
    def test_classification(self, spec, regime):
        assert classify_field(parse_field_spec(spec)) == regime

    def test_regime_follows_p_mod_3_for_primes_below_1000(self):
        for p in primes_below(1000):
            if p == 3:
                want = SpreadRegime.CHAR3
            elif p % 3 == 2:
                want = SpreadRegime.SPREAD_AND_COVERING
            else:
                want = SpreadRegime.NOT_PARTIAL_SPREAD
            assert classify_field(PrimeField(p)) == want, p


class TestCoercion:
    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_of_reduces_ints(self, p):
        F = PrimeField(p)
        for n in (-3 * p - 1, -p, -1, 0, 1, p - 1, p, p + 1, 5 * p + 2, 10**30 + 7):
            value = F.of(n)
            assert type(value) is int and value == n % p

    def test_of_bools(self):
        F = PrimeField(7)
        assert F.of(True) == 1 and F.of(False) == 0
        assert type(F.of(True)) is int

    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_of_fractions(self, p):
        F = PrimeField(p)
        for x in (Fraction(3), Fraction(-2), Fraction(1, 3), Fraction(-5, 4), Fraction(p + 1, 2 * p + 1)):
            if x.denominator % p == 0:
                continue
            value = F.of(x)
            assert type(value) is int and 0 <= value < p
            assert (value * x.denominator - x.numerator) % p == 0

    def test_rational_of_keeps_a_fraction(self):
        x = Fraction(-5, 4)
        assert QQ.of(x) is x
        assert type(QQ.of(3)) is Fraction and QQ.of(3) == 3
        assert type(QQ.of(True)) is Fraction and QQ.of(True) == 1

    def test_zero_and_one(self):
        F = PrimeField(7)
        assert (F.zero, F.one) == (0, 1)
        assert type(F.zero) is int and type(F.one) is int
        assert PrimeField.zero == 0 and PrimeField.one == 1
        assert (QQ.zero, QQ.one) == (Fraction(0), Fraction(1))
        assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction


class TestAxioms:
    """The field axioms in the library's idiom: plain operators, each result
    reduced by `F.of`, inverses from `F.inv`."""

    @given(st.integers(), st.integers(), st.integers())
    def test_gf_axioms(self, a, b, c):
        F = PrimeField(11)
        a, b, c = F.of(a), F.of(b), F.of(c)
        assert F.of(F.of(a + b) + c) == F.of(a + F.of(b + c))
        assert F.of(F.of(a * b) * c) == F.of(a * F.of(b * c))
        assert F.of(a * F.of(b + c)) == F.of(F.of(a * b) + F.of(a * c))
        assert F.of(a + F.of(-a)) == F.zero
        assert all(0 <= F.of(v) < 11 for v in (a + b, a * b, -a, a - b))
        if a != F.zero:
            assert F.of(a * F.inv(a)) == F.one

    @given(rationals, rationals, rationals)
    def test_rational_axioms(self, a, b, c):
        F = QQ
        assert F.of(a * F.of(b + c)) == F.of(F.of(a * b) + F.of(a * c))
        assert F.of(a + F.of(-a)) == F.zero
        if a != 0:
            assert F.of(a * F.inv(a)) == F.one

    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4))
    def test_fraction_print_parse_identity(self, num, den):
        x = Fraction(num, den)
        assert Fraction(str(x)) == x
        assert Fraction(str(x)).denominator > 0

    def test_fields_keep_one_arithmetic_interface(self):
        # formulas use Python's operators; add/sub/neg/div are not methods
        for field in (PrimeField(5), QQ):
            assert [m for m in ("add", "sub", "neg", "div") if hasattr(field, m)] == []

    def test_rational_ops_stay_exact_on_ints(self):
        # plain-int inputs must never leak into floats
        assert QQ.inv(2) == Fraction(1, 2) and isinstance(QQ.inv(2), Fraction)

    @given(st.integers(min_value=0, max_value=10**30))
    def test_icbrt_floor_property(self, n):
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3
