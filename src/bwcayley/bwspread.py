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
from typing import Dict, List, Optional, Sequence, Tuple

from . import cayley, klein
from .field import (
    QQ,
    Element,
    Field,
    InfiniteField,
    cube_roots,
    nontrivial_cube_root_of_unity,
)
from .linalg import nullspace, rank, rref
from .projspace import (
    GeometryError,
    Line,
    ProjPoint,
    canonical_tuples,
    canonicalize,
    compound_image,
    dedup_lines,
    det4,
    gram_apply,
    incidence,
    lines_skew,
    quadric_polarization,
    quadric_value,
    second_compound,
)
from .reports import CheckOutcome

# Seeded samples replayed over the rationals: parameter pairs for the
# partial-spread check, points or parameter pairs for maximality and duality.
PAIR_SPOT_CHECKS = 200
SPOT_CHECKS = 100


class WrongLineCount(GeometryError):
    """O did not come out with its q^2 + 1 distinct lines."""


class SamePoint(GeometryError):
    pass


class Char3Unsupported(GeometryError):
    pass


class NotARegulus(GeometryError):
    pass


def osculating_tangent(u1, u2, F: Field) -> Line:
    """Join of the surface point with (0, 1, 3*u1, u2).

    Both the direction (0, x0, 3*x1, x2) and the Plücker coordinates
    (`klein.osculating_sextuple`) are homogenised by the leading entry x0
    of the canonical surface point x = x0*(1, u1, u2, ...), so they are
    formed in plain ints over Q too. In characteristic 3 the direction
    degenerates to (0, 1, 0, u2), which is still the correct osculating
    direction.
    """
    x0, x1, x2, _ = x = cayley.surface_point(u1, u2, F)
    return Line(
        p=x,
        q=canonicalize((0, x0, 3 * x1, x2), F),
        plucker=canonicalize(klein.osculating_sextuple(x0, x1, x2), F),
    )


def parameter_grid(F: Field) -> List[Tuple[Element, Element]]:
    """All (u1, u2) in lexicographic order (finite fields only)."""
    elems = list(F.elements())
    return [(u1, u2) for u1 in elems for u2 in elems]


def build_O(F: Field) -> List[Line]:
    """The q^2 proper osculating tangents plus the directrix; q^2 + 1 lines.

    O[i] is the tangent at parameter_grid(F)[i] for i < q^2 and O[-1] is the
    directrix (dedup_lines drops a line only when the count check raises), so
    dict(zip(parameter_grid(F), O)) maps each parameter to its tangent."""
    if not F.is_finite:
        raise InfiniteField("O is accessed parametrically over infinite fields")
    lines = [osculating_tangent(u1, u2, F) for u1, u2 in parameter_grid(F)]
    lines.append(cayley.g_infinity(F))
    deduped = dedup_lines(lines)
    if len(deduped) != F.order**2 + 1:
        raise WrongLineCount(f"O has {len(deduped)} distinct lines, not {F.order**2 + 1}")
    return deduped


def skew_criterion(v1, v2, u1, u2, F: Field) -> Element:
    """Resultant-style skewness value for the tangents at (v1,v2) and (u1,u2).

    Translating (v1,v2) to the origin by the group action leaves
    d2^2 - 3*d1^2*d2 + 3*d1^4 with d1 = u1-v1 and d2 = u2-v2-3*v1*(u1-v1);
    the two tangents are skew exactly when this value is nonzero. Formed in
    plain operators and reduced once by `F.of`.
    """
    d1 = u1 - v1
    d2 = u2 - v2
    if F.of(d1) == F.zero and F.of(d2) == F.zero:
        raise SamePoint("criterion needs two distinct parameter pairs")
    d2 -= 3 * v1 * d1
    d1sq = d1 * d1
    return F.of(d2 * d2 - 3 * d1sq * d2 + 3 * d1sq * d1sq)


def certify_partial_spread(F: Field, O: Optional[Sequence[Line]], seed: int = 0) -> CheckOutcome:
    """Pairwise skewness of O = build_O(F).

    Finite fields, through the translation group of the surface. The
    generators M(1,0,1) and M(0,1,1) are certified to be invertible, to fix
    the directrix and to send tangent(u) to tangent(param_action(u)) for
    every parameter u, each image taken on the tangent's Plücker sextuple
    by the generator's second compound matrix, and their orbit of (0,0) to
    hold all q^2 parameters.
    Collineations keep skewness, so the tangents meeting a given tangent are
    as many for every u as for the origin, and testing the origin tangent
    against the other q^2 - 1 (by the criterion and by Klein polarity, which
    must agree) decides every pair: with m of them meeting it there are
    q^2*m/2 violations, and the lexicographically first violating pair is
    ((0,0), first meeting u). The directrix is tested against every tangent.
    Rationals: the criterion is nonzero for all distinct pairs exactly when
    X^2+X+1 has no root, plus seeded random replays of both routes (O None).
    """
    if F.is_finite:
        tangent = dict(zip(parameter_grid(F), O))
        ginf = O[-1]
        tangents_meeting_ginf = sum(1 for l in tangent.values() if not lines_skew(l, ginf, F))
        n_lines = F.order**2 + 1
        counts = {
            "lines": n_lines,
            "pairs_checked": n_lines * (n_lines - 1) // 2,  # includes directrix pairs
            "tangents_meeting_directrix": tangents_meeting_ginf,
        }
        failure = _translation_failure(tangent, ginf, F)
        if failure is not None:
            note, witness = failure
            return CheckOutcome(passed=False, witness=witness, counts=counts, note=note)
        origin = (F.zero, F.zero)
        t0 = tangent[origin]
        meeting = []
        for u, l in tangent.items():
            if u == origin:
                continue
            criterion_meets = skew_criterion(*origin, *u, F) == F.zero
            if criterion_meets == lines_skew(t0, l, F):
                return CheckOutcome(
                    passed=False, witness=(origin, u), counts=counts, note="route disagreement"
                )
            if criterion_meets:
                meeting.append(u)
        counts["violations"] = F.order**2 * len(meeting) // 2
        return CheckOutcome(
            passed=not meeting and tangents_meeting_ginf == 0,
            witness=(origin, meeting[0]) if meeting else None,
            counts=counts,
        )
    # rationals: no nontrivial cube root of unity means no violating pair exists
    w = nontrivial_cube_root_of_unity(F)
    rng = random.Random(seed)
    checked = 0
    for _ in range(PAIR_SPOT_CHECKS):
        v = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)), Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        u = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)), Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        if u == v:
            continue
        value = skew_criterion(v[0], v[1], u[0], u[1], F)
        if (value != F.zero) != lines_skew(osculating_tangent(*v, F), osculating_tangent(*u, F), F):
            return CheckOutcome(passed=False, witness=(v, u), note="route disagreement")
        if value == F.zero:
            return CheckOutcome(passed=False, witness=(v, u))
        checked += 1
    return CheckOutcome(
        passed=w is None,
        witness=None if w is None else ((F.zero, F.zero), (F.one, F.of(2 + w))),
        counts={"spot_checks": checked},
        note="no root of X^2+X+1, so every distinct pair is skew",
    )


def _translation_failure(tangent: Dict[Tuple, Line], ginf: Line, F: Field):
    """(note, witness) for the first failed step of the group route, or None.

    Each generator must have a nonzero determinant, fix the directrix and map
    every tangent onto the tangent at its param_action image (the witness is
    the generator's (a, b, c) and the parameter, None for the directrix);
    then the generators' orbit of (0,0) must hold every parameter (the
    witness is the first parameter outside it). A generator maps lines by
    its `second_compound`, built once, which acts on the Plücker sextuples
    directly: one `compound_image` per tangent, no spanning points.
    """
    generators = [cayley.group_matrix(1, 0, 1, F), cayley.group_matrix(0, 1, 1, F)]
    kappa = {u: l.plucker for u, l in tangent.items()}
    for M in generators:
        abc = (M.a, M.b, M.c)
        compound = second_compound(M.entries, F)
        if det4(M.entries, F) == F.zero or compound_image(compound, ginf.plucker, F) != ginf.plucker:
            return "generator is singular or moves the directrix", (abc, None)
        for u, y in kappa.items():
            if compound_image(compound, y, F) != kappa.get(cayley.param_action(M, *u, F)):
                return "group action disagrees with param_action", (abc, u)
    orbit = {(F.zero, F.zero)}
    frontier = list(orbit)
    while frontier:
        u = frontier.pop()
        for M in generators:
            v = cayley.param_action(M, *u, F)
            if v not in orbit:
                orbit.add(v)
                frontier.append(v)
    missing = [u for u in tangent if u not in orbit]
    if missing:
        return "generator orbit of (0,0) misses parameters", missing[0]
    return None


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


def omega_points(F: Field) -> List[ProjPoint]:
    """The q^2 + q + 1 canonical points (0, x1, x2, x3) of the plane at
    infinity, in canonical order."""
    return [(F.zero,) + x for x in canonical_tuples(3, F)]


def _affine_histogram(F: Field) -> Counter:
    """How many affine points lie on n lines of O, for each n. For fixed
    (x1, x2) the map x3 -> x3 - x1*x2 + x1^3 is a bijection of GF(q), so
    this is q^2 times the histogram of the number of cube roots."""
    q2 = F.order**2
    return Counter({n: q2 * m for n, m in Counter(len(cube_roots(t, F)) for t in F.elements()).items()})


def certify_covering(F: Field) -> CheckOutcome:
    """Whether every point of PG(3,q) lies on a line of O, by `lines_of_O_through`.

    The affine points are counted in closed form (`_affine_histogram`) and
    the q^2 + q + 1 points at infinity one by one. Multiplicity counts (0, 1
    or 3 tangents through an affine point) are reported. The points at
    infinity come first in canonical order, then (1, 0, 0, t), whose deficit
    is t, so the witness is the first uncovered point at infinity, else
    (1, 0, 0, t) for the least non-cube t. Over the rationals the witness
    is the first small-height point that no tangent reaches.
    """
    if not F.is_finite:
        witness = uncovered_witness_rational()
        return CheckOutcome(
            passed=witness is None,
            witness=witness,
            note="small-height scan for a deficit with no rational cube root",
        )
    histogram = _affine_histogram(F)
    at_infinity = [x for x in omega_points(F) if lines_of_O_through(x, F) == 0]
    candidates = at_infinity + [(F.one, F.zero, F.zero, t) for t in F.elements() if not cube_roots(t, F)]
    witness = candidates[0] if candidates else None
    points = F.order**3 + F.order**2 + F.order + 1
    uncovered = len(at_infinity) + histogram.get(0, 0)
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


def certify_maximality(F: Field, O: Optional[Sequence[Line]], seed: int = 0) -> CheckOutcome:
    """Every point of the plane at infinity lies on a line of O = build_O(F).

    This forces maximality: any line not in O meets the plane at infinity at
    a point already covered, hence meets the covering line there. Finite
    fields are re-verified exhaustively by incidence over the q^2 + q + 1
    `omega_points`, the covering tangents read off O; the rationals (O None)
    by the same construction on seeded samples. Skipped in char 3.
    """
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    third = F.inv(F.of(3))
    ginf = cayley.g_infinity(F)
    tangent_at = _tangent_at(F, O)

    def covering_line(point) -> Line:
        x0, x1, x2, x3 = point
        if x1 == F.zero:
            return ginf
        return tangent_at(F.mul(F.div(x2, x1), third), F.div(x3, x1))

    if F.is_finite:
        checked = 0
        for point in omega_points(F):
            if not incidence(point, covering_line(point), F):
                return CheckOutcome(passed=False, witness=point)
            checked += 1
        return CheckOutcome(passed=True, counts={"omega_points": checked})
    rng = random.Random(seed)
    for _ in range(SPOT_CHECKS):
        point = (
            F.zero,
            F.one,
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        )
        if not incidence(point, covering_line(point), F):
            return CheckOutcome(passed=False, witness=point)
    return CheckOutcome(passed=True, counts={"omega_points_sampled": SPOT_CHECKS})


def _tangent_at(F: Field, O: Optional[Sequence[Line]]):
    """(u1, u2) -> tangent, read off O = build_O(F), or built over the rationals."""
    if F.is_finite:
        tangent = dict(zip(parameter_grid(F), O))
        return lambda u1, u2: tangent[u1, u2]
    return lambda u1, u2: osculating_tangent(u1, u2, F)


def _dual_fixes(O: Sequence[Line], F: Field) -> bool:
    """Whether the coordinate-reversing duality maps the line set O onto itself."""
    return {cayley.dual_plucker(l.plucker, F) for l in O} == {l.plucker for l in O}


def certify_dual_spread(F: Field, O: Optional[Sequence[Line]]) -> CheckOutcome:
    """Plane counts of O = build_O(F): exactly one line per plane in the
    spread regimes.

    The duality d reverses coordinates and is its own inverse, and a line l
    lies in the plane d(x) exactly when x lies on d(l). So once d(O) = O is
    certified (a set comparison of q^2 + 1 sextuples), the plane d(x) holds
    as many lines of O as pass through x, `lines_of_O_through(x)`: the
    histogram over the planes is `_affine_histogram` plus the counts at the
    q^2 + q + 1 points at infinity, whose duals are the planes through the
    pinch point Z. The witness is the first canonical plane e whose point
    d(e) does not count 1. Also verifies the dual surrogate of maximality:
    every plane through Z contains at least one line of O. Skipped over the
    rationals, where O is None.
    """
    if not F.is_finite:
        return CheckOutcome(passed=None, note="plane counting needs a finite field")
    if not _dual_fixes(O, F):
        return CheckOutcome(passed=False, note="the duality does not fix O, so planes cannot be counted as points")
    at_infinity = Counter(lines_of_O_through(x, F) for x in omega_points(F))
    histogram = _affine_histogram(F) + at_infinity
    exact_one = set(histogram) == {1}
    witness = None
    if not exact_one:  # some plane has another count, so the scan stops
        witness = next(e for e in canonical_tuples(4, F) if lines_of_O_through(cayley.duality(e, F), F) != 1)
    planes_through_z_missing = at_infinity.get(0, 0)
    return CheckOutcome(
        passed=exact_one and planes_through_z_missing == 0,
        witness=witness,
        counts={
            "planes": sum(histogram.values()),
            "planes_through_Z_without_line": planes_through_z_missing,
            **{f"planes_with_{k}_lines": v for k, v in sorted(histogram.items())},
        },
    )


def certify_duality(F: Field, O: Optional[Sequence[Line]], seed: int = 0) -> CheckOutcome:
    """The coordinate-reversing duality fixes O and pairs points with tangent planes.

    Checks (finite fields exhaustively, rationals on seeded samples):
    the parametric identity duality(P(u1,u2)) = tangent_plane(-u1, 3u1^2-u2)
    and the induced line map sending the tangent at (u1,u2) to the tangent
    at v = (-u1, 3u1^2-u2). Over finite fields the v must come out as q^2
    distinct parameters and the duality must fix the directrix, so the line
    map carries O = build_O(F) onto itself. The duality must also map the
    surface points onto the tangent planes. Both sets are generated, and
    each member is tested as it is produced: the surface points are the P(u)
    plus the q + 1 points of the directrix, each tested by `f_value`; the
    tangent planes are the tangent_plane(v) of the parametric identity plus
    the q + 1 planes through the directrix, each tested by `tangency_test`.
    Over the rationals O is None and the sampled tangents are built.
    """
    tangent_at = _tangent_at(F, O)

    def pair(u1, u2):
        """(P(u), v, the tangent plane at v = (-u1, 3u1^2-u2)), or None when
        the duality does not send P(u) to that plane or the tangent at u to
        the tangent at v."""
        v = v1, v2 = F.of(-u1), F.of(3 * u1 * u1 - u2)
        x, e = cayley.surface_point(u1, u2, F), cayley.tangent_plane(v1, v2, F)
        if cayley.duality(x, F) != e:
            return None
        if cayley.dual_plucker(tangent_at(u1, u2).plucker, F) != tangent_at(v1, v2).plucker:
            return None
        return x, v, e

    if F.is_finite:
        ginf = O[-1]
        partners = set()
        surface = 0
        dual_images, tangent_planes = set(), set()
        for u1, u2 in parameter_grid(F):
            paired = pair(u1, u2)
            if paired is None:
                return CheckOutcome(passed=False, witness=(u1, u2))
            x, v, e = paired
            partners.add(v)
            if cayley.f_value(x, F) == F.zero:
                surface += 1
                dual_images.add(e)  # = duality(x), tested by pair
            if cayley.tangency_test(e, F):
                tangent_planes.add(e)
        # the canonical pairs (a, b) give the directrix points (0, 0, a, b)
        # and the planes [a, b, 0, 0] through the directrix
        for ab in canonical_tuples(2, F):
            x = (F.zero, F.zero) + ab
            if cayley.f_value(x, F) == F.zero:
                surface += 1
                dual_images.add(cayley.duality(x, F))
            e = ab + (F.zero, F.zero)
            if cayley.tangency_test(e, F):
                tangent_planes.add(e)
        fixes_O = len(partners) == F.order**2 and cayley.dual_plucker(ginf.plucker, F) == ginf.plucker
        bijective = len(dual_images) == surface and dual_images == tangent_planes
        return CheckOutcome(
            passed=fixes_O and bijective,
            counts={
                "parameter_pairs": F.order**2,
                "lines": len(O),
                "surface_points": surface,
                "tangent_planes": len(tangent_planes),
            },
        )
    rng = random.Random(seed)
    for _ in range(SPOT_CHECKS):
        u1 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        u2 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        if pair(u1, u2) is None:
            return CheckOutcome(passed=False, witness=(u1, u2))
    return CheckOutcome(passed=True, counts={"parameter_pairs_sampled": SPOT_CHECKS})


# --- the Betten chart ----------------------------------------------------------

def betten_collineation(x: Sequence, F: Field) -> ProjPoint:
    """The coordinate scaling (x0, x1, x2, x3) -> (x0, x1, x2/3, x3/3)."""
    if F.characteristic == 3:
        raise Char3Unsupported("the chart divides by 3")
    third = F.inv(F.of(3))
    return canonicalize((x[0], x[1], F.mul(third, x[2]), F.mul(third, x[3])), F)


def betten_chart(u1, u2, F: Field):
    """Chart parameters (t, s) and the two planes cutting out the tangent's image.

    With s = u1 and t = u2/3 - u1^2, the image of the osculating tangent
    under the scaling collineation is the intersection of the planes
    x2 = t*x0 + s*x1 and x3 = -(s^3/3)*x0 + (s^2+t)*x1.
    """
    if F.characteristic == 3:
        raise Char3Unsupported("the chart divides by 3")
    u1, u2 = F.of(u1), F.of(u2)
    third = F.inv(F.of(3))
    s = u1
    t = F.sub(F.mul(u2, third), F.mul(u1, u1))
    s3 = F.mul(F.mul(s, s), s)
    plane1 = canonicalize((t, s, F.neg(F.one), F.zero), F)
    plane2 = canonicalize((F.neg(F.mul(s3, third)), F.add(F.mul(s, s), t), F.zero, F.neg(F.one)), F)
    return (t, s), plane1, plane2


def regulus_minus(s, O: Sequence[Line], F: Field) -> List[Line]:
    """Tangents at the points (s, u2) of the generator g(1,s), plus the
    directrix: one run of parameter_grid, so one slice of O = build_O(F)."""
    if not F.is_finite:
        raise InfiniteField("regulus enumeration needs a finite field")
    q = F.order
    i = list(F.elements()).index(F.of(s))
    return list(O[i * q : (i + 1) * q]) + [O[-1]]


def verify_regulus(lines: Sequence[Line], F: Field):
    """Check that a line set is a whole regulus, through its Klein images.

    A regulus is the set of q+1 lines whose images are the points of a
    nondegenerate conic, a plane section of the Klein quadric. So the lines
    are a regulus exactly when their images span a plane, there are q+1 of
    them, and the plane is a conic plane; the opposite regulus is then the
    conic of the polar plane, the nullspace of the rows gram_apply(y), which
    must be a conic plane as well. Returns (ok, polar): polar is a basis of
    the polar plane, or [] when the images do not span a conic plane.
    """
    lines = list(lines)
    if len(dedup_lines(lines)) != len(lines) or len(lines) < 3:
        raise NotARegulus("need at least three distinct lines")
    reduced, pivots = rref([list(l.plucker) for l in lines], F)
    plane = reduced[:3]
    if len(pivots) != 3 or len(lines) != F.order + 1 or not _conic_plane(plane, F):
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
    mul = F.mul
    value = F.add(mul(F.of(4), mul(mul(a, b), c)), mul(mul(f, g), h))
    for u, v in ((a, f), (b, g), (c, h)):
        value = F.sub(value, mul(u, mul(v, v)))
    return value != F.zero


def reguli_check(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """For every s, regulus_minus(s, O) is a regulus whose opposite regulus
    contains the generator g(1,s): the image of g(1,s), which is on the
    quadric, lies in the polar plane. The witness is the first failing s.
    """
    counts = {"reguli": F.order, "lines_each": F.order + 1}
    for s in F.elements():
        ok, polar = verify_regulus(regulus_minus(s, O, F), F)
        if not (ok and rank(polar + [list(cayley.generator(1, s, F).plucker)], F) == 3):
            return CheckOutcome(passed=False, witness=s, counts=counts)
    return CheckOutcome(passed=True, counts=counts)
