"""The set O of osculating tangents plus the directrix, and its certification.

O consists of the unique proper osculating tangent at every affine surface
point together with the double line at infinity. Depending on how cubing
behaves on the ground field, O is a spread and covering, a maximal partial
spread, or not a partial spread at all; the certifiers below establish the
case exhaustively over finite fields and symbolically plus by seeded spot
checks over the rationals.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import cayley
from .field import (
    QQ,
    Element,
    Field,
    InfiniteField,
    cube_roots,
    nontrivial_cube_root_of_unity,
)
from .linalg import nullspace, rref
from .projspace import (
    GeometryError,
    KleinPoint,
    Line,
    ProjPoint,
    canonical_tuples,
    canonicalize,
    compound_apply,
    compound_image,
    gram_apply,
    is_int_multiple,
    is_multiple,
    plucker_minors,
    polar_pairing,
    quadric_polarization,
    quadric_value,
    second_compound,
)
from .reports import CheckOutcome

# Seeded samples replayed over the rationals: parameter pairs for the
# partial-spread check, points or parameter pairs for maximality and duality.
PAIR_SPOT_CHECKS = 200
SPOT_CHECKS = 100

# The Klein images of the directrix V(X0, X1) and of the line V(X0, X2),
# which carries the nuclei in characteristic 3, in closed form: the joins of
# (0,0,1,0) and (0,1,0,0) with the pinch point (0,0,0,1). Over GF(p), whose
# zero and one are the ints 0 and 1, each is canonical as it stands.
DIRECTRIX_IMAGE = (0, 0, 0, 0, 0, 1)
NUCLEI_IMAGE = (0, 0, 0, 0, 1, 0)


class IndistinctTangents(GeometryError):
    """A tangent's Klein image does not give its parameter back, so the q^2
    tangents are not certified distinct."""


class SamePoint(GeometryError):
    pass


class Char3Unsupported(GeometryError):
    pass


class NotARegulus(GeometryError):
    pass


def osculating_sextuple(x0, x1, x2):
    """Plücker sextuple of the osculating tangent at the surface point
    x = x0*(1, u1, u2, ...): x0^4 * (1, 3u1, u2, 3u1^2-u2, u1^3,
    3u1^4-3u1^2*u2+u2^2), in plain operators and unreduced.

    Homogenised, so the canonical surface point, a primitive integer
    vector over Q, gives it in ints. In characteristic 3 reduction alone
    degenerates it to x0^4 * (1, 0, u2, -u2, u1^3, u2^2).
    """
    x00, x11 = x0 * x0, x1 * x1
    return (
        x00 * x00,
        3 * x00 * x0 * x1,
        x00 * x0 * x2,
        x00 * (3 * x11 - x0 * x2),
        x0 * x11 * x1,
        3 * x11 * x11 - 3 * x0 * x11 * x2 + x00 * x2 * x2,
    )


def osculating_tangent(u1, u2, F: Field) -> Line:
    """Join of the surface point with (0, 1, 3*u1, u2), over any field.

    Both the direction (0, x0, 3*x1, x2) and the Plücker coordinates
    (`osculating_sextuple`) are homogenised by the leading entry x0 of the
    canonical surface point x = x0*(1, u1, u2, ...), so they are formed in
    plain ints over Q too. In characteristic 3 the direction degenerates to
    (0, 1, 0, u2), which is still the correct osculating direction. Over
    GF(p) it gives the same three tuples as `closed_tangent`, which the
    finite-field checks read instead; over Q the checks read the unreduced
    `_integer_tangent`.
    """
    u1, u2 = F.of(u1), F.of(u2)
    x = canonicalize(cayley.surface_point_coefficients(u1.numerator, u1.denominator, u2.numerator, u2.denominator), F)
    x0, x1, x2, _ = x
    return Line(
        p=x,
        q=canonicalize((0, x0, 3 * x1, x2), F),
        plucker=canonicalize(osculating_sextuple(x0, x1, x2), F),
    )


def _integer_tangent(a: int, b: int, c: int, d: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The osculating tangent at u1 = a/b and u2 = c/d over Q, for ints a, c
    and positive ints b, d, reduced or not, in ints and unreduced: the
    surface point x = `cayley.surface_point_coefficients`, (b^3*d,
    a*b^2*d, c*b^3, a*c*b^2 - a^3*d), and its `osculating_sextuple`. Entry
    0 of each, x0 and x0^4, is never 0."""
    x = cayley.surface_point_coefficients(a, b, c, d)
    return x, osculating_sextuple(x[0], x[1], x[2])


def kappa(u1, u2, F: Field) -> KleinPoint:
    """The Klein image of the osculating tangent at (u1, u2) over GF(p):
    kappa(u) = (1, 3u1, u2, 3u1^2 - u2, u1^3, 3u1^4 - 3u1^2*u2 + u2^2), every
    entry reduced mod p. It leads with 1, so it is canonical as it stands."""
    p = F.p
    u1 %= p
    u2 %= p
    s = u1 * u1 % p
    return (1, 3 * u1 % p, u2, (3 * s - u2) % p, s * u1 % p, (3 * s * (s - u2) + u2 * u2) % p)


def closed_tangent(u1, u2, F: Field) -> Tuple[ProjPoint, ProjPoint, KleinPoint]:
    """The osculating tangent at (u1, u2) over GF(p), in closed form.

    Returns the surface point (1, u1, u2, u1*u2 - u1^3), the direction
    (0, 1, 3u1, u2) and `kappa(u)`, every entry reduced mod p. Each tuple
    leads with 1, so it is canonical as it stands and never goes through
    `canonicalize`. Every finite-field check reads its tangents here, or
    only their Klein images off `kappa`.
    """
    p = F.p
    u1 %= p
    u2 %= p
    return (1, u1, u2, (u2 - u1 * u1) * u1 % p), (0, 1, 3 * u1 % p, u2), kappa(u1, u2, F)


def parameter_grid(F: Field) -> List[Tuple[Element, Element]]:
    """All (u1, u2) in lexicographic order (finite fields only)."""
    elems = list(F.elements())
    return [(u1, u2) for u1 in elems for u2 in elems]


def parameter_reader(F: Field) -> Callable[[Sequence], Tuple]:
    """The map reading the parameter u back from the Klein image y of the
    tangent at u, given reduced and leading with 1: u = (Y02/3, Y03), or in
    characteristic 3, where Y02 = 0, u = (Y13, Y03), since Y13 = u1^3 and
    cubing is the identity on GF(3)."""
    if F.characteristic == 3:
        return lambda y: (y[4], y[2])
    of, third = F.of, F.inv(3)
    return lambda y: (of(y[1] * third), y[2])


def tangents(F: Field) -> Iterator[Tuple[Tuple[int, int], Tuple]]:
    """(u, closed_tangent(u)) for every parameter u, in parameter_grid order.

    Each Klein image must give its parameter back: it leads with 1 (so it is
    not the directrix's, which leads with 0), and `parameter_reader` reads u
    off it. That certifies the q^2 tangents distinct, so O has q^2 + 1
    lines; IndistinctTangents is raised at the first image that does not.
    The tangents are produced one at a time and none is kept.
    """
    if not F.is_finite:
        raise InfiniteField("O is accessed parametrically over infinite fields")
    p = F.p
    parameter = parameter_reader(F)
    tangent = closed_tangent
    for u1 in range(p):
        for u2 in range(p):
            t = tangent(u1, u2, F)
            y = t[2]
            if y[0] != 1 or parameter(y) != (u1, u2):
                raise IndistinctTangents(f"the Klein image {y} of the tangent at {(u1, u2)} does not give it back")
            yield (u1, u2), t


def build_O(F: Field) -> List[Line]:
    """The q^2 proper osculating tangents plus the directrix; q^2 + 1 lines.

    O[i] is the tangent at parameter_grid(F)[i] for i < q^2, read off
    `tangents` (so the lines are certified distinct), and O[-1] is the
    directrix. No check holds this list; the test oracles read it."""
    lines = [Line(*t) for _, t in tangents(F)]
    lines.append(Line((0, 0, 1, 0), (0, 0, 0, 1), DIRECTRIX_IMAGE))
    return lines


def partner(u1: int, u2: int, p: int) -> Tuple[int, int]:
    """v = (-u1, 3u1^2 - u2) mod p, the parameter whose tangent the duality
    pairs with the tangent at u; the map is an involution."""
    return -u1 % p, (3 * u1 * u1 - u2) % p


def skew_value(v1, v2, u1, u2):
    """Resultant-style skewness value for the tangents at (v1,v2) and (u1,u2).

    Translating (v1,v2) to the origin by the group action leaves
    d2^2 - 3*d1^2*d2 + 3*d1^4 with d1 = u1-v1 and d2 = u2-v2-3*v1*(u1-v1);
    the two tangents are skew exactly when this value is nonzero. Formed in
    plain operators, unreduced.
    """
    d1 = u1 - v1
    d2 = u2 - v2 - 3 * v1 * d1
    d1sq = d1 * d1
    return d2 * d2 - 3 * d1sq * d2 + 3 * d1sq * d1sq


def skew_criterion(v1, v2, u1, u2, F: Field) -> Element:
    """`skew_value` reduced once by `F.of`; equal parameters raise SamePoint."""
    if F.of(u1 - v1) == F.zero and F.of(u2 - v2) == F.zero:
        raise SamePoint("criterion needs two distinct parameter pairs")
    return F.of(skew_value(v1, v2, u1, u2))


def certify_partial_spread(F: Field, seed: int = 0) -> CheckOutcome:
    """Pairwise skewness of O, the q^2 tangents plus the directrix.

    Finite fields, through the translation group of the surface, in one pass
    over `tangents`. The generators M(1,0,1) and M(0,1,1), invertible by
    construction, are certified to fix the directrix and to send tangent(u) to
    tangent(param_action(u)) for every parameter u, each image taken on the
    tangent's Plücker sextuple by the generator's second compound matrix,
    and their orbit of (0,0) to hold all q^2 parameters.
    Collineations keep skewness, so the tangents meeting a given tangent are
    as many for every u as for the origin, and testing the origin tangent
    against the other q^2 - 1 (by the criterion and by Klein polarity, which
    must agree) decides every pair: with m of them meeting it there are
    q^2*m/2 violations, and the lexicographically first violating pair is
    ((0,0), first meeting u). The directrix is tested against every tangent.
    A failed step reports its first witness in the order the steps are
    listed here, each generator's in parameter_grid order.
    Rationals: the criterion is nonzero for all distinct pairs exactly when
    X^2+X+1 has no root, plus seeded random replays of both routes in ints.
    The criterion is weighted homogeneous of degree 4 (d1 of weight 1, d2 of
    weight 2), so on (lam*v1, lam^2*v2, lam*u1, lam^2*u2), lam the lcm of
    the four denominators, it is lam^4 times its rational value; Klein polarity
    is tested on the two unreduced sextuples of `_integer_tangent`. Each
    parameter is drawn as an unreduced int pair (a, b), u == v is tested
    by cross-multiplying, and a `Fraction` is formed only for a witness.
    """
    if F.is_finite:
        return _partial_spread_by_translations(F)
    # rationals: no nontrivial cube root of unity means no violating pair exists
    w = nontrivial_cube_root_of_unity(F)
    randint = random.Random(seed).randint
    checked = 0
    for _ in range(PAIR_SPOT_CHECKS):
        # v = (a1/b1, a2/b2) and u = (c1/d1, c2/d2), unreduced
        a1, b1, a2, b2 = randint(-20, 20), randint(1, 9), randint(-20, 20), randint(1, 9)
        c1, d1, c2, d2 = randint(-20, 20), randint(1, 9), randint(-20, 20), randint(1, 9)
        if a1 * d1 == c1 * b1 and a2 * d2 == c2 * b2:
            continue
        lam = lcm(b1, b2, d1, d2)
        lam2 = lam * lam
        value = skew_value(a1 * (lam // b1), a2 * (lam2 // b2), c1 * (lam // d1), c2 * (lam2 // d2))
        skew = polar_pairing(_integer_tangent(a1, b1, a2, b2)[1], _integer_tangent(c1, d1, c2, d2)[1]) != 0
        if value == 0 or not skew:
            witness = ((Fraction(a1, b1), Fraction(a2, b2)), (Fraction(c1, d1), Fraction(c2, d2)))
            note = "route disagreement" if (value != 0) != skew else ""
            return CheckOutcome(passed=False, witness=witness, note=note)
        checked += 1
    return CheckOutcome(
        passed=w is None,
        witness=None if w is None else ((F.zero, F.zero), (F.one, F.of(2 + w))),
        counts={"spot_checks": checked},
        note="no root of X^2+X+1, so every distinct pair is skew",
    )


def _partial_spread_by_translations(F: Field) -> CheckOutcome:
    """The finite branch of `certify_partial_spread`.

    Each generator's image y' = compound * kappa(u) is compared with
    kappa(param_action(u)) by `is_multiple`, so no inverse is taken, and the
    generator's first failing parameter is kept while the pass goes on: the
    pass also counts the tangents meeting the directrix and tests the origin
    tangent against every other, so one walk over the parameters holds
    every verdict and no tangent is kept.
    """
    p = F.p
    ginf = DIRECTRIX_IMAGE
    generators = [cayley.group_matrix(1, 0, 1, F), cayley.group_matrix(0, 1, 1, F)]
    compounds = [second_compound(M.entries, F) for M in generators]
    # group_matrix refuses c = 0 and is lower triangular with diagonal 1, c, c^2, c^3,
    # so a generator is invertible and only its fix of the directrix is tested
    moved = [compound_image(compound, ginf, F) != ginf for compound in compounds]
    action_failure = [None, None]
    origin = (F.zero, F.zero)
    t0 = None
    meeting_ginf = meeting = 0
    first_meeting = disagreement = None
    for u, (_, _, y) in tangents(F):
        u1, u2 = u
        if quadric_polarization(y, ginf, F) == F.zero:
            meeting_ginf += 1
        for i, M in enumerate(generators):
            if action_failure[i] is None:
                v1, v2 = cayley.param_action(M, u1, u2, F)
                if not is_multiple(compound_apply(compounds[i], y), kappa(v1, v2, F), p):
                    action_failure[i] = u
        if u == origin:
            t0 = y
        elif disagreement is None:
            criterion_meets = skew_criterion(*origin, u1, u2, F) == F.zero
            if criterion_meets == (quadric_polarization(t0, y, F) != F.zero):
                disagreement = u
            elif criterion_meets:
                meeting += 1
                first_meeting = first_meeting or u
    n_lines = F.order**2 + 1
    counts = {
        "lines": n_lines,
        "pairs_checked": n_lines * (n_lines - 1) // 2,  # includes directrix pairs
        "tangents_meeting_directrix": meeting_ginf,
    }
    for M, bad, failed in zip(generators, moved, action_failure):
        abc = (M.a, M.b, M.c)
        if bad:
            note, witness = "generator is singular or moves the directrix", (abc, None)
        elif failed is not None:
            note, witness = "group action disagrees with param_action", (abc, failed)
        else:
            continue
        return CheckOutcome(passed=False, witness=witness, counts=counts, note=note)
    missing = _orbit_misses(generators, F)
    if missing is not None:
        return CheckOutcome(
            passed=False, witness=missing, counts=counts, note="generator orbit of (0,0) misses parameters"
        )
    if disagreement is not None:
        return CheckOutcome(passed=False, witness=(origin, disagreement), counts=counts, note="route disagreement")
    counts["violations"] = F.order**2 * meeting // 2
    return CheckOutcome(
        passed=not meeting and meeting_ginf == 0,
        witness=(origin, first_meeting) if meeting else None,
        counts=counts,
    )


def _orbit_misses(generators, F: Field):
    """The first parameter, in parameter_grid order, outside the orbit of
    (0,0) under the two generators, or None when the orbit holds them all.
    `_walks_cover` certifies the whole orbit in O(q) memory; should it
    fail, the orbit is found by a search that holds it, for the witness.
    """
    if _walks_cover(*generators, F):
        return None
    orbit = {(F.zero, F.zero)}
    frontier = list(orbit)
    while frontier:
        u = frontier.pop()
        for M in generators:
            v = cayley.param_action(M, *u, F)
            if v not in orbit:
                orbit.add(v)
                frontier.append(v)
    return next((u for u in parameter_grid(F) if u not in orbit), None)


def _walks_cover(row_step, slot_step, F: Field) -> bool:
    """Whether the walk of row_step = M(1,0,1) from (0,0) enters every row
    u1 in q steps, and from each entry the walk of slot_step = M(0,1,1)
    stays in its row and ticks all q slots of a bitmap in q steps. Then the
    orbit of (0,0) is every parameter."""
    q = F.order
    entries = {}
    u = (F.zero, F.zero)
    for _ in range(q):
        entries.setdefault(u[0], u)
        u = cayley.param_action(row_step, *u, F)
    if len(entries) != q:
        return False
    for row, u in entries.items():
        slots = bytearray(q)
        for _ in range(q):
            if u[0] != row:
                return False
            slots[u[1]] = 1
            u = cayley.param_action(slot_step, *u, F)
        if not all(slots):
            return False
    return True


def covering_deficit(p1, p2, p3, F: Field) -> Element:
    """The value whose cube roots parametrize tangents through (1,p1,p2,p3):
    p3 - p1*p2 + p1^3 in plain operators, reduced once by `F.of`."""
    return F.of(p3 - p1 * p2 + p1 * p1 * p1)


def lines_of_O_through(x: ProjPoint, F: Field) -> int:
    """How many lines of O pass through the canonical point x of PG(3,q).

    The affine point x = (1, x1, x2, x3) lies on the tangent at (u1, u2)
    exactly when lam = x1 - u1 is a cube root of the covering deficit (then
    u2 = x2 - 3*u1*lam), so it counts the deficit's cube roots. The tangent
    at (u1, u2) meets the plane at infinity in (0, 1, 3u1, u2), so a point
    (0, 1, a, b) counts 1, or in characteristic 3 it counts q (a = 0) or 0
    (a != 0). A point (0, 0, a, b) lies on the directrix alone.
    """
    x0, x1, x2, x3 = x
    if x0 != F.zero:
        return len(cube_roots(covering_deficit(x1, x2, x3, F), F))
    if x1 == F.zero:
        return 1
    if F.characteristic == 3:
        return F.order if x2 == F.zero else 0
    return 1


def _affine_histogram(F: Field) -> Counter:
    """How many affine points lie on n lines of O, for each n. For fixed
    (x1, x2) the map x3 -> x3 - x1*x2 + x1^3 is a bijection of GF(q), so
    this is q^2 times the histogram of the number of cube roots."""
    q2 = F.order**2
    return Counter({n: q2 * m for n, m in Counter(len(cube_roots(t, F)) for t in F.elements()).items()})


def _point_histogram(F: Field) -> Tuple[Counter, Counter, Optional[ProjPoint]]:
    """How many affine points (`_affine_histogram`) and how many points at
    infinity lie on n lines of O, for each n, and the first point at
    infinity that lies on none, or None. `lines_of_O_through` is constant
    on the classes (0, 0, a, b), (0, 1, 0, b) and (0, 1, a, b) with a != 0,
    of q + 1, q and q^2 - q points, so it is read once per class, on its
    first point in canonical order."""
    zero, one, q = F.zero, F.one, F.order
    classes = (((zero, zero, zero, one), q + 1), ((zero, one, zero, zero), q), ((zero, one, one, zero), q * q - q))
    at_infinity = Counter()
    uncovered = None
    for x, size in classes:
        n = lines_of_O_through(x, F)
        at_infinity[n] += size
        if n == 0 and uncovered is None:
            uncovered = x
    return _affine_histogram(F), at_infinity, uncovered


def certify_covering(F: Field) -> CheckOutcome:
    """Whether every point of PG(3,q) lies on a line of O, by `_point_histogram`.

    Multiplicity counts (0, 1 or 3 tangents through an affine point) are
    reported; the check is O(q). The witness is the first uncovered point
    at infinity in canonical order, else (1, 0, 0, t), whose deficit is t,
    for the least non-cube t. Over the rationals it is the first
    small-height point that no tangent reaches.
    """
    if not F.is_finite:
        witness = uncovered_witness_rational()
        return CheckOutcome(
            passed=witness is None,
            witness=witness,
            note="small-height scan for a deficit with no rational cube root",
        )
    histogram, at_infinity, witness = _point_histogram(F)
    if witness is None:
        witness = next(((F.one, F.zero, F.zero, t) for t in F.elements() if not cube_roots(t, F)), None)
    points = F.order**3 + F.order**2 + F.order + 1
    uncovered = at_infinity[0] + histogram[0]
    return CheckOutcome(
        passed=uncovered == 0,
        witness=witness,
        counts={
            "points": points,
            "covered": points - uncovered,
            "uncovered": uncovered,
            **{f"affine_with_{k}_tangents": v for k, v in sorted(histogram.items())},
        },
    )


def uncovered_witness_rational() -> Optional[ProjPoint]:
    """First small-height affine point (1,p1,p2,p3) over Q whose deficit is a non-cube.

    Scans integer coordinates of height at most 2 ordered by absolute value
    (p3 varies fastest), so the result is deterministic: (1,0,0,2).
    """
    heights = (0, 1, -1, 2, -2)
    for p1 in heights:
        for p2 in heights:
            for p3 in heights:
                if not cube_roots(covering_deficit(p1, p2, p3, QQ), QQ):
                    return canonicalize((1, p1, p2, p3), QQ)
    return None


def certify_maximality(F: Field, seed: int = 0) -> CheckOutcome:
    """Every point of the plane at infinity lies on a line of O.

    This forces maximality: any line not in O meets the plane at infinity at
    a point already covered, hence meets the covering line there. The q + 1
    points (0, 0, a, b) lie on the directrix by its equation x0 = x1 = 0.
    Finite fields walk the other q^2, the points (0, 1, a, b): each lies on
    the tangent at u = (a/3, b) exactly when the Plücker minors of the
    surface point P(u) and the point, which lead with 1, are kappa(u) entry
    by entry (`closed_tangent`). The witness is the first failing point in
    canonical order, and the count is all q^2 + q + 1 points. The rationals
    use the same construction on seeded samples (0, 1, a/b, c/d), drawn as
    unreduced int pairs: the point, scaled to (0, bd, ad, cb), and the
    `_integer_tangent` at (a/3b, c/d) give Plücker minors that must be a
    multiple of the tangent's sextuple (`is_int_multiple`, on entry 0,
    x0*bd). Skipped in char 3.
    """
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    if F.is_finite:
        third = F.inv(F.of(3))
        p = F.p
        for a in F.elements():
            for b in F.elements():
                point = (F.zero, F.one, a, b)
                x, _, y = closed_tangent(a * third, b, F)
                if not is_multiple(plucker_minors(x, point), y, p):
                    return CheckOutcome(passed=False, witness=point)
        return CheckOutcome(passed=True, counts={"omega_points": F.order**2 + F.order + 1})

    randint = random.Random(seed).randint
    for _ in range(SPOT_CHECKS):
        # the point (0, 1, a/b, c/d), unreduced
        a, b, c, d = randint(-30, 30), randint(1, 9), randint(-30, 30), randint(1, 9)
        x, y = _integer_tangent(a, 3 * b, c, d)
        if not is_int_multiple(plucker_minors(x, (0, b * d, a * d, c * b)), y):
            return CheckOutcome(passed=False, witness=(F.zero, F.one, Fraction(a, b), Fraction(c, d)))
    return CheckOutcome(passed=True, counts={"omega_points_sampled": SPOT_CHECKS})


def certify_dual_spread(F: Field, fixes_O: Optional[bool]) -> CheckOutcome:
    """Plane counts of O: exactly one line per plane in the spread regimes.

    The duality d reverses coordinates and is its own inverse, and a line l
    lies in the plane d(x) exactly when x lies on d(l). So once d(O) = O is
    certified (fixes_O, read off the walk of `certify_duality`), the plane
    d(x) holds as many lines of O as pass through x, `lines_of_O_through(x)`:
    the histogram over the planes is `_point_histogram`'s, read off q
    cube-root counts and three classes of points at infinity, the duals of
    the planes through the pinch point Z. The
    witness is the first canonical plane e whose point d(e) does not count
    1. Also verifies the dual surrogate of maximality: every plane through Z
    contains at least one line of O. Skipped over the rationals, where
    fixes_O is None.
    """
    if not F.is_finite:
        return CheckOutcome(passed=None, note="plane counting needs a finite field")
    if not fixes_O:
        return CheckOutcome(passed=False, note="the duality does not fix O, so planes cannot be counted as points")
    affine, at_infinity, _ = _point_histogram(F)
    histogram = affine + at_infinity
    exact_one = set(histogram) == {1}
    witness = None
    if not exact_one:  # some plane has another count, so the scan stops
        witness = next(e for e in canonical_tuples(4, F) if lines_of_O_through(cayley.duality(e, F), F) != 1)
    planes_through_z_missing = at_infinity[0]
    return CheckOutcome(
        passed=exact_one and planes_through_z_missing == 0,
        witness=witness,
        counts={
            "planes": sum(histogram.values()),
            "planes_through_Z_without_line": planes_through_z_missing,
            **{f"planes_with_{k}_lines": v for k, v in sorted(histogram.items())},
        },
    )


def certify_duality(F: Field, seed: int = 0) -> Tuple[CheckOutcome, Optional[bool]]:
    """The coordinate-reversing duality fixes O and pairs points with tangent planes.

    Checks (finite fields exhaustively, rationals on seeded samples):
    the parametric identity duality(P(u1,u2)) = tangent_plane(-u1, 3u1^2-u2)
    and the induced line map sending the tangent at (u1,u2) to the tangent
    at its `partner` v = (-u1, 3u1^2-u2). Over the rationals each sample
    u = (a/b, c/d) is drawn as two unreduced int pairs, its partner is
    (-a/b, (3a^2*d - c*b^2)/(b^2*d)), and both are tested in ints by
    `is_int_multiple`: the reversed integer surface point of u against the
    `cayley.tangent_plane_coefficients` of v, pivoting on their last
    entries, x0 and -b^3*d, which are never 0 (entry 0 of a tangent plane
    vanishes at u1 = 0), and the `dual_sextuple` of u's `_integer_tangent`
    against v's.
    Over finite fields one pass over `tangents` tests, per parameter: the
    reversed point (x3, x2, x1, x0) against minus the
    `cayley.tangent_plane_coefficients` of v at b = d = 1, whose last entry
    is -1, entry by entry; the dual of kappa(u) against kappa(v) by
    `is_multiple`; v(v) = u, so the partners are q^2 distinct parameters;
    and whether P(u) is on the surface (`f_value`) exactly when its dual
    plane is tangent (`tangency_test`). With the directrix fixed, the line
    map carries O onto itself. The surface points are the P(u) plus the
    q + 1 points of the directrix, the tangent planes the duals of the P(u)
    plus the q + 1 planes through the directrix, so the duality maps the
    one set onto the other exactly when every parameter agrees and the
    directrix's points go onto the planes through it. Returns the outcome
    and fixes_O, whether the line map carries O onto itself (the premise of
    `certify_dual_spread`), or None over the rationals, which are sampled.
    """
    if F.is_finite:
        return _duality_by_parameters(F)
    randint = random.Random(seed).randint
    for _ in range(SPOT_CHECKS):
        # u = (a/b, c/d), unreduced, and its partner (-u1, 3u1^2 - u2)
        a, b, c, d = randint(-30, 30), randint(1, 9), randint(-30, 30), randint(1, 9)
        v = (-a, b, 3 * a * a * d - c * b * b, b * b * d)
        (x0, x1, x2, x3), y = _integer_tangent(a, b, c, d)
        plane_ok = is_int_multiple((x3, x2, x1, x0), cayley.tangent_plane_coefficients(*v), 3)
        if not (plane_ok and is_int_multiple(cayley.dual_sextuple(y), _integer_tangent(*v)[1])):
            return CheckOutcome(passed=False, witness=(Fraction(a, b), Fraction(c, d))), None
    return CheckOutcome(passed=True, counts={"parameter_pairs_sampled": SPOT_CHECKS}), None


def _duality_by_parameters(F: Field) -> Tuple[CheckOutcome, bool]:
    """The finite branch of `certify_duality`; the witness is the first
    parameter whose point or tangent the duality does not send to its
    partner's tangent plane or tangent. The walk goes on past it, testing
    only the line map, so that fixes_O covers every parameter."""
    p = F.p
    fixes_O = agree = True
    witness = None
    surface = tangent_planes = 0
    for u, (x, _, y) in tangents(F):
        v1, v2 = partner(*u, p)
        line_ok = is_multiple(cayley.dual_sextuple(y), kappa(v1, v2, F), p)
        fixes_O = fixes_O and line_ok and partner(v1, v2, p) == u
        if witness is not None:
            continue
        e = cayley.tangent_plane_coefficients(v1, 1, v2, 1)
        x0, x1, x2, x3 = x
        if (x3 + e[0]) % p or (x2 + e[1]) % p or (x1 + e[2]) % p or (x0 + e[3]) % p or not line_ok:
            witness = u
            continue
        on_surface = cayley.f_value(x, F) == F.zero
        tangent = cayley.tangency_test((x3, x2, x1, x0), F)
        surface += on_surface
        tangent_planes += tangent
        agree = agree and on_surface == tangent
    fixes_O = fixes_O and cayley.dual_plucker(DIRECTRIX_IMAGE, F) == DIRECTRIX_IMAGE
    if witness is not None:
        return CheckOutcome(passed=False, witness=witness), fixes_O
    # the canonical pairs (a, b) give the directrix points (0, 0, a, b)
    # and the planes [a, b, 0, 0] through the directrix
    on_directrix = 0
    dual_images, planes = set(), set()
    for ab in canonical_tuples(2, F):
        x = (F.zero, F.zero) + ab
        if cayley.f_value(x, F) == F.zero:
            on_directrix += 1
            dual_images.add(cayley.duality(x, F))
        e = ab + (F.zero, F.zero)
        if cayley.tangency_test(e, F):
            planes.add(e)
    return CheckOutcome(
        passed=fixes_O and agree and len(dual_images) == on_directrix and dual_images == planes,
        counts={
            "parameter_pairs": F.order**2,
            "lines": F.order**2 + 1,
            "surface_points": surface + on_directrix,
            "tangent_planes": tangent_planes + len(planes),
        },
    ), fixes_O


# --- the Betten chart ----------------------------------------------------------

def betten_collineation(x: Sequence, F: Field) -> ProjPoint:
    """The coordinate scaling (x0, x1, x2, x3) -> (x0, x1, x2/3, x3/3)."""
    if F.characteristic == 3:
        raise Char3Unsupported("the chart divides by 3")
    third = F.inv(3)
    return canonicalize((x[0], x[1], third * x[2], third * x[3]), F)


def betten_chart(u1, u2, F: Field):
    """Chart parameters (t, s) and the two planes cutting out the tangent's image.

    With s = u1 and t = u2/3 - u1^2, the image of the osculating tangent
    under the scaling collineation is the intersection of the planes
    x2 = t*x0 + s*x1 and x3 = -(s^3/3)*x0 + (s^2+t)*x1.
    """
    if F.characteristic == 3:
        raise Char3Unsupported("the chart divides by 3")
    s, third = F.of(u1), F.inv(3)
    t = F.of(u2 * third - s * s)
    plane1 = canonicalize((t, s, -1, 0), F)
    plane2 = canonicalize((-s * s * s * third, s * s + t, 0, -1), F)
    return (t, s), plane1, plane2


def regulus_minus(s, F: Field) -> List[KleinPoint]:
    """Klein images of the tangents at the points (s, u2) of the generator
    g(1,s), in u2 order, each `kappa(s, u2)`, plus the directrix's."""
    if not F.is_finite:
        raise InfiniteField("regulus enumeration needs a finite field")
    return [kappa(s, u2, F) for u2 in F.elements()] + [DIRECTRIX_IMAGE]


def verify_regulus(images: Sequence[KleinPoint], F: Field):
    """Check that a line set, given by its canonical Klein images, is a whole regulus.

    A regulus is the set of q+1 lines whose images are the points of a
    nondegenerate conic, a plane section of the Klein quadric. So the lines
    are a regulus exactly when their images lie on the quadric (a sextuple
    built in closed form, not joined from two points, is tested there too),
    span a plane, there are q+1 of them, and the plane is a conic plane;
    the opposite regulus is then the
    conic of the polar plane, the nullspace of the rows gram_apply(y), which
    must be a conic plane as well. Returns (ok, polar): polar is a basis of
    the polar plane, or [] when the images do not span a conic plane.
    """
    images = list(images)
    if len(set(images)) != len(images) or len(images) < 3:
        raise NotARegulus("need at least three distinct lines")
    reduced, pivots = rref([list(y) for y in images], F)
    plane = reduced[:3]
    if len(pivots) != 3 or len(images) != F.order + 1 or not _conic_plane(plane, F):
        return False, []
    if any(quadric_value(y, F) != F.zero for y in images):
        return False, []
    polar = nullspace([list(gram_apply(y, F)) for y in plane], 6, F)
    return _conic_plane(polar, F), polar


def _conic_plane(basis: Sequence[Sequence], F: Field) -> bool:
    """Whether the span of three sextuples meets the Klein quadric in a
    nondegenerate conic.

    On x*e1 + y*e2 + z*e3 the quadric is a*x^2 + b*y^2 + c*z^2 + h*xy + g*xz
    + f*yz, with a, b, c its values on the basis and h, g, f the
    polarizations of the pairs (1,2), (1,3), (2,3). The conic is
    nondegenerate exactly when the half-discriminant 4abc + fgh - af^2 -
    bg^2 - ch^2 is nonzero, in every characteristic; a change of basis
    scales it by a nonzero square. The restricted Gram determinant is twice
    this value, so it cannot serve: it vanishes identically in
    characteristic 2, where the polarization is alternating.
    """
    e1, e2, e3 = basis
    a, b, c = (quadric_value(e, F) for e in basis)
    h = quadric_polarization(e1, e2, F)
    g = quadric_polarization(e1, e3, F)
    f = quadric_polarization(e2, e3, F)
    return F.of(4 * a * b * c + f * g * h - a * f * f - b * g * g - c * h * h) != F.zero
