"""Degree-bounded probe of the forms vanishing on the tangent-set image.

Over the rationals, sample Klein images of osculating tangents as integer
sextuples and take the kernel of the monomial evaluation matrix at fixed
degree d; then read off the forms' coefficients whether they vanish on
the pencil line through the image of the directrix. The sampled kernel is
certified equal to K_d, the degree-d part of the ideal of the Zariski
closure of kappa(Q^2) (`exact_kernel`, of dimension 0, 4 and 22 for
d = 1, 2, 3), whenever the samples lie on kappa and their rows reach the
rank that K_d leaves; seeds make every run reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd
from operator import mul
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import bwspread, field
from .klein import h1_form, h2_form, h3_form, in_kappa_O
from .linalg import PRIMES, _rref_mod, integer_kernel
from .projspace import KleinPoint, is_int_multiple, primitive_int_vector, quadric_value
from .reports import CheckOutcome

NUM_VARS = 6
# C(8,5) = 56 monomials at degree 3: over the 16 pool seeds the 60-sample matrix
# takes 0.4 ms to build and 2.4-3.2 ms to certify (on-kappa test and rank mod p),
# where the exact elimination takes 4.3-7.0 ms (median 4.4 ms); `exact_kernel(3)`
# takes 1.1-1.5 ms once per process (2 vCPUs, CPython 3.11).
MAX_DEGREE = 3
WITNESS = (0, 0, 0, 0, 1, 0)
# kappa(c*u1, c^2*u2) = c^w * kappa(u), entry by entry, for these weights w
# (`IDENTITIES["kappa_weights"]`): a monomial's weight is its exponents' dot with them
KAPPA_WEIGHTS = (0, 1, 2, 2, 3, 4)
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


def _kappa_weights(c, u1, u2) -> Tuple:
    """kappa(c*u1, c^2*u2) less c^w * kappa(u), entry by entry, w = KAPPA_WEIGHTS."""
    scaled = []
    for w, y in zip(KAPPA_WEIGHTS, bwspread._kappa(u1, u2)):
        for _ in range(w):
            y = c * y
        scaled.append(y)
    return bwspread._minus(bwspread._kappa(c * u1, c * c * u2), scaled)


bwspread.IDENTITIES["kappa_weights"] = _kappa_weights


@lru_cache(maxsize=None)
def exact_kernel(d: int) -> Tuple[Tuple[int, ...], ...]:
    """K_d, the degree-d forms vanishing on every kappa(u), u in Q^2: the
    degree-d part of the ideal of kappa(Q^2)'s Zariski closure, as
    primitive int coefficient vectors, one per free column in column order.

    By `IDENTITIES["kappa_weights"]` a form F = sum_w F_w, F_w its part of
    weight w, satisfies F(kappa(c*u1, c^2*u2)) = sum_w c^w * F_w(kappa(u)),
    so F vanishes on kappa exactly when each F_w does. F_w(kappa(u)) is a
    sum of monomials u1^(w-2b) * u2^b with 0 <= b <= w/2, so it vanishes
    exactly when F_w(kappa(1, s)) does for s = 0..w//2. Each weight block is
    solved by `linalg.integer_kernel`. Block vectors have disjoint supports,
    and each vector's last nonzero entry is its free column; so sorted by
    that column they are the unique basis of K_d that `integer_kernel`
    gives for any matrix whose kernel is K_d. Computed once per process
    and degree.
    """
    bwspread.certify_identity("kappa_weights")
    exps = monomial_exponents(d)
    rows = [monomial_row(exps, bwspread._kappa(1, s)) for s in range(2 * d + 1)]
    blocks: Dict[int, List[int]] = {}
    for k, e in enumerate(exps):
        blocks.setdefault(sum(map(mul, e, KAPPA_WEIGHTS)), []).append(k)
    vectors = []
    for w, columns in blocks.items():
        for vec in integer_kernel([[row[k] for k in columns] for row in rows[: w // 2 + 1]], len(columns))[1]:
            full = [0] * len(exps)
            for k, x in zip(columns, vec):
                full[k] = x
            vectors.append(tuple(full))
    return tuple(sorted(vectors, key=lambda v: max(k for k, x in enumerate(v) if x)))


def _rank_mod(rows: List[List[int]]) -> int:
    return len(_rref_mod(rows, PRIMES[0])[1])


def vanishing_space(points: Sequence[Sequence[int]], d: int) -> List[List[int]]:
    """Basis of the degree-d forms vanishing at every given point, as
    primitive int coefficient vectors, one per free column.

    The exact kernel of the monomial evaluation matrix S over Q, with
    deterministic pivoting; the points are integer sextuples, as from
    `sample_kappa_O`. It is K_d = `exact_kernel(d)`, with no elimination
    over Q, when two exact tests hold:
    - every point is a nonzero multiple of kappa(u) at the parameter it
      reads back, u = (Y02/(3*Y01), Y03/Y01), tested in ints against
      `osculating_sextuple(3*Y01, Y02, 3*Y03)` by `is_int_multiple`; with
      the identity behind K_d, every form of K_d vanishes at every point,
      so K_d lies in ker S;
    - the rows reduced mod PRIMES[0], the first N - dim K_d of them and
      then all, reach rank N - dim K_d, N the number of monomials; the rank
      mod p is at most the rank over Q, so ker S has dimension at most
      dim K_d and equals it.
    Anything else (too few points for that rank, points off kappa, rows
    that fall short of it) takes the `linalg.integer_kernel` route, which
    certifies in integers that every returned form vanishes on every row.
    Either way, divided by its free-column entry, each form is the
    rational nullspace basis vector.
    """
    exps = monomial_exponents(d)
    evaluate = _row_evaluator(tuple(exps))
    rows = [evaluate(pt) for pt in points]
    kernel = exact_kernel(d)
    rank = len(exps) - len(kernel)
    if (
        len(rows) >= rank
        and all(is_int_multiple(y, bwspread.osculating_sextuple(3 * y[0], y[1], 3 * y[2])) for y in points)
        and (_rank_mod(rows[:rank]) == rank or _rank_mod(rows) == rank)
    ):
        return [list(v) for v in kernel]
    return integer_kernel(rows, len(exps))[1]


def closure_probe(d: int, n_samples: int, seed: int) -> Dict[str, Optional[CheckOutcome]]:
    """The outcomes of the `ideal` checks, all read off one sampled kernel.

    On the pencil line (0,0,0,0,s,t) every monomial with a factor Y01, Y02,
    Y03 or Y12 is zero, so a form restricts to the binary form whose
    coefficients are its coefficients at the d+1 monomials Y13^a*Y23^(d-a).
    It vanishes on the whole line exactly when those are all 0, and at
    `WITNESS` = (0,0,0,0,1,0) exactly when its Y13^d coefficient is 0.
    At degree 2 the quadric and the three cone forms lie in the computed
    space exactly when each vanishes at every sample, since the basis is
    certified to span the whole kernel of the evaluation matrix (by
    `vanishing_space`'s rank test or by `linalg`); `contains_known_forms`
    is None at the other degrees.
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
