"""Degree-bounded probe of the forms vanishing on the tangent-set image.

Over the rationals, sample Klein images of osculating tangents as integer
sextuples, compute the exact nullspace of the monomial evaluation matrix at
fixed degree, and read off the resulting forms' coefficients whether they
vanish on the pencil line through the image of the directrix. Finite
sampling cannot certify true ideal membership; reports describe what holds
at the sampled points, with seeds making every run reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import bwspread, field
from .klein import h1_form, h2_form, h3_form, in_kappa_O
from .linalg import integer_kernel
from .projspace import KleinPoint, primitive_int_vector, quadric_value
from .reports import CheckOutcome

NUM_VARS = 6
# C(8,5) = 56 monomials at degree 3: the 60-sample matrix takes 0.4 ms to build
# and 3.9-4.3 ms to reduce exactly over the 16 pool seeds (2 vCPUs, CPython 3.11).
MAX_DEGREE = 3
WITNESS = (0, 0, 0, 0, 1, 0)
# the quadric and the three cone forms: at degree 2 each must lie in the sampled space
KNOWN_FORMS = (quadric_value, h1_form, h2_form, h3_form)
# Each form is written as `F.of(polynomial)`; with `of` = int it returns the
# polynomial's value at an int point, unreduced, so its zero test builds no Fraction.
_UNREDUCED = SimpleNamespace(of=int)


class DegreeOutOfRange(ValueError):
    pass


class WrongMonomialCount(RuntimeError):
    """The enumerated monomials disagree with the binomial count."""


def monomial_exponents(d: int) -> List[Tuple[int, ...]]:
    """Exponent sextuples of all degree-d monomials, graded-lex ordered."""
    if d < 0:
        raise DegreeOutOfRange("degree must be nonnegative")
    exps = []
    for picks in combinations_with_replacement(range(NUM_VARS), d):
        e = [0] * NUM_VARS
        for v in picks:
            e[v] += 1
        exps.append(tuple(e))
    exps.sort(reverse=True)
    want = comb(d + NUM_VARS - 1, NUM_VARS - 1)
    if len(exps) != want:
        raise WrongMonomialCount(f"{len(exps)} degree-{d} monomials, expected {want}")
    return exps


@lru_cache(maxsize=None)
def _row_evaluator(exps: Tuple[Tuple[int, ...], ...]) -> Callable[[Sequence[int]], List[int]]:
    """The evaluator of the monomials `exps`, all of one degree d, degree by
    degree: for k = 1..d, each degree-k monomial is Y_v, its first variable,
    times the monomial at index i among those of degree k - 1; those lists
    are `monomial_exponents(k)` for k < d, then `exps`."""
    levels = [monomial_exponents(k) for k in range(sum(exps[0]))] + [exps]
    plan = []
    for lower, level in zip(levels, levels[1:]):
        index = {e: i for i, e in enumerate(lower)}
        firsts = [next(v for v, k in enumerate(e) if k) for e in level]
        plan.append(tuple((index[e[:v] + (e[v] - 1,) + e[v + 1 :]], v) for e, v in zip(level, firsts)))

    def evaluate(point: Sequence[int]) -> List[int]:
        row = [1]
        for steps in plan:
            row = [row[i] * point[v] for i, v in steps]
        return row

    return evaluate


def monomial_row(exps: Sequence[Tuple[int, ...]], point: Sequence[int]) -> List[int]:
    """Evaluate monomials of one degree at a point, one multiply each: a
    monomial is its parent of one degree less times one variable."""
    return _row_evaluator(tuple(exps))(point) if exps else []


def form_value(exps: Sequence[Tuple[int, ...]], coeffs: Sequence, point: Sequence):
    """Evaluate a form given by monomial coefficients at a point, as a Fraction."""
    return sum((c * m for c, m in zip(coeffs, monomial_row(exps, point))), Fraction(0))


def sample_parameter_ints(n: int, seed: int) -> List[Tuple[int, int, int, int]]:
    """First n distinct (u1, u2) = (a/b, c/d) from the seeded stream, heights
    at most 50, as int quadruples (a, b, c, d) in lowest terms with b, d > 0.
    Each pair is drawn as ints and divided by its gcd, which tells repeats."""
    randint = random.Random(seed).randint
    seen = set()
    out = []
    while len(out) < n:
        a, b, c, d = randint(-50, 50), randint(1, 50), randint(-50, 50), randint(1, 50)
        g, h = gcd(a, b), gcd(c, d)
        u = (a // g, b // g, c // h, d // h)
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def sample_kappa_O(n: int, seed: int) -> List[KleinPoint]:
    """n distinct sampled Klein images of osculating tangents over Q, as primitive
    int sextuples: that of `bwspread._integer_tangent` is x0^4*kappa(u), x0 = b^3*d > 0."""
    return [primitive_int_vector(bwspread._integer_tangent(*u)[1]) for u in sample_parameter_ints(n, seed)]


def vanishing_space(points: Sequence[Sequence[int]], d: int) -> List[List[int]]:
    """Basis of the degree-d forms vanishing at every given point, as
    primitive int coefficient vectors, one per free column.

    The exact kernel of the monomial evaluation matrix over Q, with
    deterministic pivoting. The points are integer sextuples, as from
    `sample_kappa_O`; `linalg.integer_kernel` certifies in integers that
    every returned form vanishes on every row. Divided by its free-column
    entry, each form is the rational nullspace basis vector.
    """
    exps = monomial_exponents(d)
    evaluate = _row_evaluator(tuple(exps))
    return integer_kernel([evaluate(pt) for pt in points], len(exps))[1]


def closure_probe(d: int, n_samples: int, seed: int) -> Dict[str, Optional[CheckOutcome]]:
    """The outcomes of the `ideal` checks, all read off one sampled kernel.

    On the pencil line (0,0,0,0,s,t) every monomial with a factor Y01, Y02,
    Y03 or Y12 is zero, so a form restricts to the binary form whose
    coefficients are its coefficients at the d+1 monomials Y13^a*Y23^(d-a).
    It vanishes on the whole line exactly when those are all 0, and at
    `WITNESS` = (0,0,0,0,1,0) exactly when its Y13^d coefficient is 0.
    At degree 2 the quadric and the three cone forms lie in the computed
    space exactly when each vanishes at every sample, since `linalg`
    certifies that the basis spans the whole kernel of the evaluation
    matrix; `contains_known_forms` is None at the other degrees.
    """
    if not 1 <= d <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must be between 1 and {MAX_DEGREE}")
    exps = monomial_exponents(d)
    points = sample_kappa_O(n_samples, seed)
    basis = vanishing_space(points, d)
    pencil = [k for k, e in enumerate(exps) if not any(e[:4])]
    witness = exps.index((0, 0, 0, 0, d, 0))
    contains = None
    if d == 2:
        contains = CheckOutcome(passed=all(form(y, _UNREDUCED) == 0 for form in KNOWN_FORMS for y in points))
    return {
        "pencil_vanishing": CheckOutcome(
            passed=all(form[k] == 0 for form in basis for k in pencil),
            counts={"degree": d, "samples": n_samples, "nullspace_dimension": len(basis)},
        ),
        "contains_known_forms": contains,
        # the witness satisfies every sampled form yet is not the image of
        # any tangent or of the directrix
        "nonalgebraicity": CheckOutcome(
            passed=all(form[witness] == 0 for form in basis) and not in_kappa_O(WITNESS, field.QQ),
            witness=WITNESS,
            counts={"forms": len(basis)},
            note="witness satisfies all sampled forms but is not a tangent image",
        ),
    }
