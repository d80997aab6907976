"""The set O of osculating tangents plus the directrix, and its certification.

O consists of the unique proper osculating tangent at every affine surface
point together with the double line at infinity. Depending on how cubing
behaves on the ground field, O is a spread and covering, a maximal partial
spread, or not a partial spread at all; the certifiers below establish the
case over finite fields from polynomial identities over Z plus counts in
O(q), and symbolically plus by seeded spot checks over the rationals.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

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
    gram_apply,
    is_int_multiple,
    plucker_minors,
    polar_pairing,
    quadric_polarization,
    quadric_value,
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
    GF(p) it gives the same three tuples as the entries of `build_O`; no
    check calls it: over GF(p) the checks read `kappa` or none, over Q the
    unreduced `_integer_tangent`.
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


def parameter_reader(F: Field) -> Callable[[Sequence], Tuple]:
    """The map reading the parameter u back from the Klein image y of the
    tangent at u, given reduced and leading with 1: u = (Y02/3, Y03), or in
    characteristic 3, where Y02 = 0, u = (Y13, Y03), since Y13 = u1^3 and
    cubing is the identity on GF(3)."""
    if F.characteristic == 3:
        return lambda y: (y[4], y[2])
    of, third = F.of, F.inv(3)
    return lambda y: (of(y[1] * third), y[2])


def build_O(F: Field) -> List[Line]:
    """The q^2 proper osculating tangents plus the directrix; q^2 + 1 lines.

    O[i] is the tangent at the i-th parameter u in lexicographic order for
    i < q^2: the surface point (1, u1, u2, u1*u2 - u1^3), the direction
    (0, 1, 3u1, u2) and `kappa(u)`, every entry reduced mod p, so each
    tuple leads with 1 and is canonical as it stands; O[-1] is the
    directrix. No check holds this list; the test oracles read it."""
    if not F.is_finite:
        raise InfiniteField("O is accessed parametrically over infinite fields")
    p = F.p
    lines = [
        Line((1, u1, u2, (u2 - u1 * u1) * u1 % p), (0, 1, 3 * u1 % p, u2), kappa(u1, u2, F))
        for u1 in range(p)
        for u2 in range(p)
    ]
    lines.append(Line((0, 0, 1, 0), (0, 0, 0, 1), DIRECTRIX_IMAGE))
    return lines


def skew_value(v1, v2, u1, u2):
    """Resultant-style skewness value for the tangents at (v1,v2) and (u1,u2).

    Translating (v1,v2) to the origin by an automorphism of the surface leaves
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


# --- identities over Z -----------------------------------------------------------

class IdentityFails(GeometryError):
    """A polynomial identity that a finite-field certificate rests on does
    not vanish on its grid, or cannot be traced."""


class Degree:
    """A polynomial over Z known only by a bound on its degree in each variable.

    `+`, `-` and `*` with a bound or an int bound the result. A bound cannot
    follow `%`, `//`, a comparison, a truth value or any other operand, so
    each raises TypeError rather than bound a formula wrongly.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        self.bounds = tuple(bounds)

    def _bounds_of(self, other):
        if type(other) is Degree:
            return other.bounds
        if type(other) is int:
            return (0,) * len(self.bounds)
        raise TypeError(f"a degree bound cannot follow a {type(other).__name__} operand")

    def __add__(self, other):
        return Degree(map(max, self.bounds, self._bounds_of(other)))

    def __mul__(self, other):
        return Degree(a + b for a, b in zip(self.bounds, self._bounds_of(other)))

    def __neg__(self):
        return self

    def _refuse(self, *_):
        raise TypeError("a degree bound has no value to reduce, compare or branch on")

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__
    __mod__ = __rmod__ = __floordiv__ = __rfloordiv__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _refuse


def _minus(a: Sequence, b: Sequence) -> Tuple:
    return tuple(x - y for x, y in zip(a, b))


def _point(u1, u2) -> Tuple:
    """P(u) = (1, u1, u2, u1*u2 - u1^3) over Z."""
    return cayley.surface_point_coefficients(u1, 1, u2, 1)


def _tangent_plane(u1, u2) -> Tuple:
    """The tangent plane at P(u), [2u1^3 - u1*u2, u2 - 3u1^2, u1, -1], over Z."""
    return cayley.tangent_plane_coefficients(u1, 1, u2, 1)


def _kappa(u1, u2) -> Tuple:
    """kappa(u) over Z: the osculating sextuple of P(u)."""
    return _integer_tangent(u1, 1, u2, 1)[1]


def _dual_parameter(u1, u2) -> Tuple:
    """v = (-u1, 3u1^2 - u2) over Z: the duality pairs the tangent at u with
    the tangent at v."""
    return -u1, 3 * u1 * u1 - u2


# The identities over Z that the finite checks rest on, by name: those of the
# certify checks here, those of the klein and char3 checks entered by `klein`.
# Each maps its variables to values that all vanish identically exactly when
# it holds. P(u) is the surface point at u, kappa(u) the Plücker sextuple of
# its osculating tangent, and v = `_dual_parameter(u)`.
IDENTITIES = {
    # kappa(u) leads with 1, so it is not the directrix, and gives u back as
    # (3u1, u2), or in characteristic 3, where cubing is one-to-one, (u1^3, u2)
    "readback": lambda u1, u2: _minus(_kappa(u1, u2)[:3] + _kappa(u1, u2)[4:5], (1, 3 * u1, u2, u1 * u1 * u1)),
    # the tangents at v and u meet exactly when skew_value(v, u) is 0
    "polarity": lambda v1, v2, u1, u2: (polar_pairing(_kappa(v1, v2), _kappa(u1, u2)) - skew_value(v1, v2, u1, u2),),
    # the translation taking v to (0, 0) keeps the skew value
    "translation": lambda v1, v2, u1, u2: (
        skew_value(v1, v2, u1, u2) - skew_value(0, 0, u1 - v1, u2 - v2 - 3 * v1 * (u1 - v1)),
    ),
    # (u1, u2) -> (c*u1, c^2*u2) carries the row u1 = 1 onto the row u1 = c
    "weight_4": lambda c, u1, u2: (
        skew_value(0, 0, c * u1, c * c * u2) - c * c * c * c * skew_value(0, 0, u1, u2),
    ),
    "row_zero": lambda u2: (skew_value(0, 0, 0, u2) - u2 * u2,),
    "directrix_skew": lambda u1, u2: (polar_pairing(_kappa(u1, u2), DIRECTRIX_IMAGE) - 1,),
    # the tangent at u passes through (0, 1, 3u1, u2) of the plane at infinity
    "infinity_point": lambda u1, u2: _minus(plucker_minors(_point(u1, u2), (0, 1, 3 * u1, u2)), _kappa(u1, u2)),
    # the duality sends P(u) to the tangent plane at v, reversed P(u) being
    # minus its coefficients, and the tangent at u to the tangent at v
    "dual_point": lambda u1, u2: tuple(
        x + e for x, e in zip(_point(u1, u2)[::-1], _tangent_plane(*_dual_parameter(u1, u2)))
    ),
    "dual_line": lambda u1, u2: _minus(cayley.dual_sextuple(_kappa(u1, u2)), _kappa(*_dual_parameter(u1, u2))),
    "involution": lambda u1, u2: _minus(_dual_parameter(*_dual_parameter(u1, u2)), (u1, u2)),
    "on_surface": lambda u1, u2: (cayley.cubic_form(_point(u1, u2)),),
    "tangent_plane": lambda u1, u2: (cayley.plane_form(_tangent_plane(u1, u2)),),
    # the points (0, 0, a, b) of the directrix are on the surface, the planes
    # [a, b, 0, 0] through it are tangent, and reversal sends the one onto
    # the other
    "directrix_on_surface": lambda a, b: (cayley.cubic_form((0, 0, a, b)),),
    "directrix_planes": lambda a, b: (cayley.plane_form((a, b, 0, 0)),),
    "directrix_reversal": lambda a, b: _minus((0, 0, a, b)[::-1], (b, a, 0, 0)),
}


def identity_bounds(identity: Callable) -> Tuple[int, ...]:
    """The degree bound of an identity's values in each of its variables,
    traced by running it on one `Degree` per variable."""
    n = identity.__code__.co_argcount
    values = identity(*(Degree(int(i == j) for j in range(n)) for i in range(n)))
    return tuple(map(max, zip(*(v.bounds if type(v) is Degree else (0,) * n for v in values))))


@lru_cache(maxsize=None)
def certify_identity(name: str) -> Tuple[int, ...]:
    """Certify `IDENTITIES[name]` over Z and return its degree bounds.

    Each value is a polynomial of degree at most d_i in each variable x_i,
    so it is zero when it vanishes on the grid prod range(d_i + 1) (Alon,
    "Combinatorial Nullstellensatz", 1999, Lemma 2.1), and an identity over
    Z holds in every field. The verdict does not depend on the field, so it
    is reached once per process; IdentityFails names the identity otherwise.
    """
    identity = IDENTITIES[name]
    try:
        bounds = identity_bounds(identity)
    except TypeError as exc:
        raise IdentityFails(f"identity {name} cannot be traced: {exc}") from exc
    for point in product(*(range(d + 1) for d in bounds)):
        if any(identity(*point)):
            raise IdentityFails(f"identity {name} fails at {point}")
    return bounds


def certify_partial_spread(F: Field, seed: int = 0) -> CheckOutcome:
    """Pairwise skewness of O, the q^2 tangents plus the directrix.

    Finite fields, from `IDENTITIES`: the q^2 tangents are distinct lines
    other than the directrix (readback) and skew to it (directrix_skew),
    and two tangents meet exactly when the skew value is 0 (polarity).
    Translating v to (0, 0) keeps it (translation), so every tangent meets
    as many others as the origin tangent does. On the row u1 = 0 the value
    is u2^2 (row_zero), and the weight-4 scaling carries the row u1 = 1
    onto every row u1 = c != 0 (weight_4). So the origin tangent meets
    (q - 1)*m others, m the number of roots t of `skew_criterion(0, 0, 1,
    t)`, there are q^2*(q - 1)*m/2 violations, and the lexicographically
    first violating pair is ((0, 0), (1, least root)).
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
        for name in ("readback", "directrix_skew", "polarity", "translation", "row_zero", "weight_4"):
            certify_identity(name)
        q = F.order
        roots = [t for t in F.elements() if skew_criterion(0, 0, 1, t, F) == F.zero]
        n_lines = q * q + 1
        return CheckOutcome(
            passed=not roots,
            witness=((F.zero, F.zero), (F.one, roots[0])) if roots else None,
            counts={
                "lines": n_lines,
                "pairs_checked": n_lines * (n_lines - 1) // 2,  # includes directrix pairs
                "tangents_meeting_directrix": 0,
                "violations": q * q * (q - 1) * len(roots) // 2,
            },
        )
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
    Over finite fields the other q^2, the points (0, 1, a, b), lie on the
    tangents at u = (a/3, b): the Plücker minors of the surface point P(u)
    and (0, 1, 3u1, u2) are kappa(u) (`IDENTITIES["infinity_point"]`). The
    count is all q^2 + q + 1 points. The rationals test the same
    construction on seeded samples (0, 1, a/b, c/d), drawn as unreduced int
    pairs: the point, scaled to (0, bd, ad, cb), and the `_integer_tangent`
    at (a/3b, c/d) give Plücker minors that must be a multiple of the
    tangent's sextuple (`is_int_multiple`, on entry 0, x0*bd). Skipped in
    char 3.
    """
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    if F.is_finite:
        certify_identity("infinity_point")
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
    certified (fixes_O, from `certify_duality`), the plane d(x) holds as
    many lines of O as pass through x, `lines_of_O_through(x)`: the
    histogram over the planes is `_point_histogram`'s, read off q cube-root
    counts and three classes of points at infinity, the duals of the planes
    through the pinch point Z. The witness is the first canonical plane e
    whose point d(e) does not count 1. Also verifies the dual surrogate of
    maximality: every plane through Z contains at least one line of O.
    Skipped over the rationals, where fixes_O is None.
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

    It sends the surface point P(u) to the tangent plane at the partner
    v = (-u1, 3u1^2 - u2) and the tangent at u to the tangent at v, and v(v)
    = u, so the partners are q^2 distinct parameters. Over finite fields
    these are `IDENTITIES` (dual_point, dual_line, involution, with
    on_surface and tangent_plane for the surface and tangency forms), and
    so are the q + 1 points of the directrix on the surface, the q + 1
    planes through it tangent, and reversal sending the one onto the other
    (directrix_on_surface, directrix_planes, directrix_reversal). So the
    duality maps the surface points onto the tangent planes, and fixes_O,
    whether it carries O onto itself (the premise of
    `certify_dual_spread`), is the test that the directrix is fixed.
    Over the rationals each seeded sample u = (a/b, c/d) is drawn as two
    unreduced int pairs, its partner is (-a/b, (3a^2*d - c*b^2)/(b^2*d)),
    and both are tested in ints by `is_int_multiple`: the reversed integer
    surface point of u against the `cayley.tangent_plane_coefficients` of v,
    pivoting on their last entries, x0 and -b^3*d, which are never 0 (entry
    0 of a tangent plane vanishes at u1 = 0), and the `dual_sextuple` of
    u's `_integer_tangent` against v's; fixes_O is then None.
    """
    if F.is_finite:
        return _duality_by_identities(F)
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


def _duality_by_identities(F: Field) -> Tuple[CheckOutcome, bool]:
    """The finite branch of `certify_duality`: the identities, the q + 1
    points of the directrix and the q + 1 planes through it included."""
    for name in ("readback", "dual_point", "dual_line", "involution", "on_surface", "tangent_plane"):
        certify_identity(name)
    for name in ("directrix_on_surface", "directrix_planes", "directrix_reversal"):
        certify_identity(name)
    fixes_O = cayley.dual_plucker(DIRECTRIX_IMAGE, F) == DIRECTRIX_IMAGE
    q = F.order
    return CheckOutcome(
        passed=fixes_O,
        counts={
            "parameter_pairs": q * q,
            "lines": q * q + 1,
            "surface_points": q * q + q + 1,
            "tangent_planes": q * q + q + 1,
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
