"""Klein correspondence: quadric and cone forms, images of the tangent set.

PG(5,K) coordinates follow the Plücker order (Y01,Y02,Y03,Y12,Y13,Y23). The
generator family maps to a twisted cubic inside the 3-space C, the tangent
set plus the pencil through the pinch point maps onto the intersection of
three quadratic cones with the Klein quadric, and in characteristic 3
everything collapses into the quadratic cone cut out by the 3-space D.
Over GF(p) every check rests on identities over Z, which this module
enters in `bwspread.IDENTITIES`, plus counts in closed form, so none
reduces a matrix or walks a parameter; `variety_zero_set` finds the zero
set of the forms by a scan of PG(5,q), which `scripts/variety_scan.py`
compares with the images.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from . import bwspread
from .bwspread import OVER_Z
from .field import Field, InfiniteField, least_non_cube
from .projspace import GeometryError, KleinPoint, canonicalize, det4, gram_apply, polar_pairing, quadric_value
from .reports import CheckOutcome


class WrongCharacteristic(GeometryError):
    pass


# --- forms ------------------------------------------------------------------

def h1_form(y: Sequence, F: Field):
    """3*Y01*(Y12+Y03) - Y02^2, in plain operators, reduced once by `F.of`."""
    return F.of(3 * y[0] * (y[3] + y[2]) - y[1] * y[1])


def h2_form(y: Sequence, F: Field):
    """3*Y02*Y13 - (Y12+Y03)^2, in plain operators, reduced once by `F.of`."""
    s = y[3] + y[2]
    return F.of(3 * y[1] * y[4] - s * s)


def h3_form(y: Sequence, F: Field):
    """9*Y01*Y13 - Y02*(Y12+Y03), in plain operators, reduced once by `F.of`."""
    return F.of(9 * y[0] * y[4] - y[1] * (y[3] + y[2]))


# --- Klein images -------------------------------------------------------------

def in_kappa_O(y: Sequence, F: Field) -> bool:
    """Whether a canonical sextuple is the Klein image of a line of O.

    Affine images have Y01 != 0 and, divided through by Y01, equal
    `bwspread.osculating_sextuple` at x0 = 1 and the parameter they give
    back by `bwspread.parameter_reader`; in O only the directrix has Y01 = 0.
    """
    y = canonicalize(y, F)
    if y == bwspread.DIRECTRIX_IMAGE:
        return True
    if y[0] == F.zero:
        return False
    inv = F.inv(y[0])
    y = tuple(F.of(v * inv) for v in y)
    u1, u2 = bwspread.parameter_reader(F)(y)
    return y == tuple(map(F.of, bwspread.osculating_sextuple(1, u1, u2)))


def generator_image(s0, s1) -> Tuple:
    """Klein image of the generator g(s0,s1): (0, s0^3, s0^2 s1, s0^2 s1, s0 s1^2, s1^3),
    in plain operators and unreduced."""
    s00, s11 = s0 * s0, s1 * s1
    b = s00 * s1
    return (0, s00 * s0, b, b, s0 * s11, s11 * s1)


# v0..v3 with `generator_image(s0, s1)` = s0^3 v0 + s0^2 s1 v1 + s0 s1^2 v2 + s1^3 v3
CUBIC_BASIS = ((0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def pencil_LZomega(F: Field) -> List[KleinPoint]:
    """Klein images of the q+1 lines through the pinch point inside the
    plane at infinity, in closed form. The line joining (0, a, b, 0) with
    Z = (0,0,0,1) has the sextuple (0,0,0,0,a,b), so the images are
    (0,0,0,0,1,b) for b in `F.elements()`, then the directrix's
    `bwspread.DIRECTRIX_IMAGE`; they are distinct and lead with 0."""
    if not F.is_finite:
        raise InfiniteField("pencil enumeration needs a finite field")
    zero, one = F.zero, F.one
    return [(zero, zero, zero, zero, one, b) for b in F.elements()] + [bwspread.DIRECTRIX_IMAGE]


def projection_check(F: Field) -> CheckOutcome:
    """Projecting the tangent image at (s, u2) through the polar line of C
    into B, in closed form (y01, y02, 0, y12 + y03, y13, 0), lands on the
    point (1, 3s, 0, 3s^2, s^3, 0) of the twisted cubic for every u2 (the
    `projection` identity), so all q^2 parameter pairs pass.
    """
    bwspread.certify_identity("projection")
    return CheckOutcome(passed=True, counts={"parameter_pairs": F.order**2})


def reguli_check(F: Field) -> CheckOutcome:
    """For every s the tangents at (s, u2) plus the directrix are a regulus
    whose opposite regulus holds the generator g(1,s), from identities over
    Z: their images are the points (1, u2, u2^2) and (0, 0, 1) of the conic
    xz - y^2 on a plane <A, B, C> (`regulus_plane`), whose polar plane <P1,
    P2, P3> is a conic plane too and holds the generator's image (`regulus_polar`).
    """
    for name in ("regulus_plane", "regulus_polar"):
        bwspread.certify_identity(name)
    return CheckOutcome(passed=True, counts={"reguli": F.order, "lines_each": F.order + 1})


def generator_cubic_check(F: Field) -> CheckOutcome:
    """Every generator image lies in C = V(Y01, Y03 - Y12) and on the Klein
    quadric, an identity over Z (`generator_on_cone`)."""
    bwspread.certify_identity("generator_on_cone")
    return CheckOutcome(passed=True, counts={"generators": F.order + 1})


# --- the zero set of the forms ----------------------------------------------

# Index of the last coordinate each form reads: h1 stops at Y12, h2 and h3 at
# Y13, and k needs all six; a form is tested once that coordinate is assigned.
_FORMS_READY_AT = ((), (), (), (h1_form,), (h2_form, h3_form), (quadric_value,))


def variety_zero_set(F: Field) -> Set[KleinPoint]:
    """All canonical points of PG(5,q) where h1, h2, h3 and k vanish.

    Coordinates are assigned in order and a prefix is dropped as soon as a
    form it fully determines is nonzero. Each form is affine in the
    coordinate i that completes it, since its square coefficient f(e_i) is 0
    there (checked; GeometryError otherwise), so on a prefix z extended by v
    it takes the value f(z) + v*(f(z + e_i) - f(z)). The first form with a
    nonzero slope is solved for the one v it leaves, and that candidate is
    tested on every ready form; all q values are tried only when every
    slope is 0. The scan stays exhaustive and visits O(q^2) prefixes.
    """
    if not F.is_finite:
        raise InfiniteField("exhaustive scan needs a finite field")
    zero, one = F.zero, F.one
    elems = tuple(F.elements())
    prefixes: List[Tuple] = []
    for i, forms in enumerate(_FORMS_READY_AT):
        start = (zero,) * i + (one,)
        if not forms:
            prefixes = [start] + [y + (v,) for y in prefixes for v in elems]
            continue

        # the tuple starting at coordinate i is e_i itself, and a form
        # vanishes on it exactly when it is affine in coordinate i
        if any(form(start, F) != zero for form in forms):
            raise GeometryError(f"a form is not affine in coordinate {i}")
        extended = [start]
        for y in prefixes:
            z0, z1 = y + (zero,), y + (one,)
            values = elems
            for form in forms:
                f0 = form(z0, F)
                slope = F.of(form(z1, F) - f0)
                if slope != zero:
                    values = (F.of(-f0 * F.inv(slope)),)
                    break
            for v in values:
                z = y + (v,)
                for form in forms:
                    if form(z, F) != zero:
                        break
                else:
                    extended.append(z)
        prefixes = extended
    return set(prefixes)


def verify_variety_equality(F: Field) -> CheckOutcome:
    """The common zeros of h1, h2, h3 and k are the Klein images of the
    tangent set O plus the pencil through the pinch point, from identities
    over Z.

    The q^2 tangent images are distinct and lead with 1 (`readback`), and
    the forms vanish on them (`forms_on_kappa`). A zero y on the chart
    Y01 = 1 is (1, 3a, b, ...) with a = Y02/3, and there h1, h3 and k fix
    Y12, Y13 and Y23 to those of kappa(a, b) with the slopes 3, 9 and 9
    (`chart`), so y is that image. Off the chart h1, h2 and k force in turn
    Y02 = 0, Y12 = -Y03 and Y03 = 0, and the forms vanish on the line
    (0, 0, 0, 0, s, t) (`off_chart`), whose q + 1 points are the pencil's
    images, `pencil_LZomega`. So the zero set and the images are one set of
    q^2 + q + 1 points; `scripts/variety_scan.py` compares them point by
    point.
    """
    if F.characteristic == 3:
        raise WrongCharacteristic("the three-cone description needs characteristic != 3")
    for name in ("readback", "forms_on_kappa", "chart", "off_chart"):
        bwspread.certify_identity(name)
    n = F.order**2 + F.order + 1
    return CheckOutcome(passed=True, counts={"zero_set_points": n, "image_points": n, "expected": n})


# --- characteristic 3 ---------------------------------------------------------

def char3_congruence_check(F: Field) -> CheckOutcome:
    """The tangent set O plus the pencil through the pinch point is the
    congruence cut out by D, and all its lines meet the line of nuclei,
    from identities over Z.

    The Klein correspondence is a bijection between lines and quadric
    points, so the congruence's lines are the points of the quadric section
    of D = V(Y02, Y03 + Y12). On D's points (1, 0, a, -a, b, c) the quadric
    is c - a^2, and on (0, 0, a, -a, b, c) it is -a^2 (`char3_section`): the
    section is the q^2 points (1, 0, a, -a, b, a^2) and the q + 1 points of
    the line (0, 0, 0, 0, s, t), the pencil's images. In characteristic 3
    kappa(u) is (1, 0, u2, -u2, u1^3, u2^2) (`char3_kappa`), and cubing is
    onto, as GF(3) has no least non-cube, so the q^2 tangent images are the
    section's first part. The tangent at u pairs with the line of nuclei,
    `bwspread.NUCLEI_IMAGE`, to -3u1, and each pencil line to 0
    (`nuclei_meet`), so every line of the congruence meets it.
    """
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    for name in ("char3_kappa", "char3_section", "nuclei_meet"):
        bwspread.certify_identity(name)
    n = F.order**2 + F.order + 1
    return CheckOutcome(
        passed=least_non_cube(F) is None,
        counts={"congruence_lines": n, "tangents_plus_pencil": n, "cone_section_points": n, "expected": n},
    )


def osculating_plane_pencil_check(F: Field) -> CheckOutcome:
    """In characteristic 3 all osculating planes of the generator cubic share
    the axis spanned by v1 and v2, which is the polar line of D, from an
    identity over Z (`char3_osculating`): modulo 3 they are <c(s), v1, v2>,
    c(s) = `generator_image(1, s)`, and, at infinity, <v3, v2, v1>.
    """
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    bwspread.certify_identity("char3_osculating")
    return CheckOutcome(passed=True, counts={"parameters": F.order + 1})


# --- identities over Z ---------------------------------------------------------

def _forms(y: Sequence) -> Tuple:
    """h1, h2, h3 and k at y, over Z."""
    return tuple(form(y, OVER_Z) for form in (h1_form, h2_form, h3_form, quadric_value))


def _chart(a, b, y12, y13, y23) -> Tuple:
    """At the point y = (1, 3a, b, y12, y13, y23) of the chart Y01 = 1:
    3*(y12 - kappa(a, b)[3]) less h1(y), 9*(y13 - kappa(a, b)[4]) less
    h3(y) + a*h1(y), and 9*(y23 - kappa(a, b)[5]) less 9k(y) + 3a*(h3(y) +
    a*h1(y)) - 3b*h1(y)."""
    h1, _, h3, k = _forms((1, 3 * a, b, y12, y13, y23))
    y = bwspread._kappa(a, b)
    h13 = h3 + a * h1
    return (
        3 * (y12 - y[3]) - h1,
        9 * (y13 - y[4]) - h13,
        9 * (y23 - y[5]) - (9 * k + 3 * a * h13 - 3 * b * h1),
    )


def _off_chart(y02, y03, y12, y13, y23) -> Tuple:
    """At Y01 = 0: h1 + Y02^2, then at Y02 = 0 h2 + (Y12 + Y03)^2, then at
    Y12 = -Y03 k + Y03^2, and the forms on (0, 0, 0, 0, Y13, Y23)."""
    s = y12 + y03
    return (
        h1_form((0, y02, y03, y12, y13, y23), OVER_Z) + y02 * y02,
        h2_form((0, 0, y03, y12, y13, y23), OVER_Z) + s * s,
        quadric_value((0, 0, y03, -y03, y13, y23), OVER_Z) + y03 * y03,
    ) + _forms((0, 0, 0, 0, y13, y23))


def _projection(s, u2) -> Tuple:
    """kappa(s, u2) projected through the polar line of C into B, (y01, y02,
    0, y12 + y03, y13, 0), less the point (1, 3s, 0, 3s^2, s^3, 0) of the
    twisted cubic in B."""
    y = bwspread._kappa(s, u2)
    image = (y[0], y[1], 0, y[3] + y[2], y[4], 0)
    return tuple(v - w for v, w in zip(image, (1, 3 * s, 0, 3 * s * s, s * s * s, 0)))


def _char3_kappa(u1, u2) -> Tuple:
    """kappa(u) less (1, 0, u2, -u2, u1^3, u2^2) less 3*(0, u1, 0, u1^2, 0,
    u1^4 - u1^2*u2): modulo 3, kappa(u) is (1, 0, u2, -u2, u1^3, u2^2)."""
    uu = u1 * u1
    reduced = (1, 0, u2, -u2, uu * u1, u2 * u2)
    multiple = (0, u1, 0, uu, 0, uu * (uu - u2))
    return tuple(v - w - 3 * m for v, w, m in zip(bwspread._kappa(u1, u2), reduced, multiple))


def _regulus_bases(s) -> Tuple[Tuple, ...]:
    """Over Z, A = kappa(s, 0), B and C = the directrix's image, with kappa(s,
    u2) = A + u2*B + u2^2*C, then P1, P2 and P3, spanning the polar plane."""
    ss = s * s
    return (
        bwspread._kappa(s, 0), (0, 0, 1, -1, 0, -3 * ss), bwspread.DIRECTRIX_IMAGE,
        (0, 1, 0, 0, 0, ss * s), (0, 0, 1, 1, 0, -3 * ss), (0, 0, 0, 0, 1, 3 * s),
    )


def _regulus_plane(s, u2) -> Tuple:
    """kappa(s, u2) less A + u2*B + u2^2*C, and the quadric on <A, B, C> less xz - y^2."""
    A, B, C = _regulus_bases(s)[:3]
    gram = (quadric_value(A, OVER_Z), quadric_value(B, OVER_Z) + 1, quadric_value(C, OVER_Z))
    gram += (polar_pairing(A, B), polar_pairing(A, C) - 1, polar_pairing(B, C))
    span = (a + u2 * b + u2 * u2 * c for a, b, c in zip(A, B, C))
    return bwspread._minus(bwspread._kappa(s, u2), span) + gram


def _regulus_polar(s) -> Tuple:
    """The half-discriminants of the two planes less 1 and -1, each Pi paired
    with A, B and C, k at the generator's image, and that less P1 + s*P2 + s^2*P3."""
    planes, g = _regulus_bases(s), generator_image(1, s)
    plane, polar = planes[:3], planes[3:]
    values = (bwspread.half_discriminant(plane) - 1, bwspread.half_discriminant(polar) + 1, quadric_value(g, OVER_Z))
    values += tuple(polar_pairing(P, X) for P in polar for X in plane)
    return values + bwspread._minus(g, (a + s * b + s * s * c for a, b, c in zip(*polar)))


def _generator_on_cone(s0, s1) -> Tuple:
    """Y01, Y03 - Y12 and k at `generator_image(s0, s1)`."""
    y = generator_image(s0, s1)
    return y[0], y[2] - y[3], quadric_value(y, OVER_Z)


def _char3_taylor(s, t) -> Tuple:
    """c(s + t) - c(s) over Z, c(s) = `generator_image(1, s)`: t*(v1 + 2s*v2)
    + t^2*v2 + t^3*v3 plus the multiple 3*(s^2*t + s*t^2)*v3 of 3."""
    _, v1, v2, v3 = CUBIC_BASIS
    t3 = t * t * t + 3 * (s * s * t + s * t * t)
    return tuple(t * (a + 2 * s * b) + t * t * b + t3 * c for a, b, c in zip(v1, v2, v3))


def _char3_osculating(s, t) -> Tuple:
    """c(s + t) - c(s) less `_char3_taylor`, the reversed chart less v3 +
    t*v2 + t^2*v1 + t^3*v0, the determinant of v1, v2, v3 and c(s) on Y02,
    Y03, Y13 and Y23 plus 1, and the Gram images of D's equations less -v2 and v1."""
    v0, v1, v2, v3 = CUBIC_BASIS
    c = generator_image(1, s)
    values = bwspread._minus(bwspread._minus(generator_image(1, s + t), c), _char3_taylor(s, t))
    reversed_chart = (d + t * e + t * t * f + t * t * t * g for d, e, f, g in zip(v3, v2, v1, v0))
    values += bwspread._minus(generator_image(t, 1), reversed_chart)
    values += (det4([[y[i] for i in (1, 2, 4, 5)] for y in (v1, v2, v3, c)], OVER_Z) + 1,)
    values += tuple(x + y for x, y in zip(gram_apply((0, 1, 0, 0, 0, 0), OVER_Z), v2))
    return values + bwspread._minus(gram_apply((0, 0, 1, 1, 0, 0), OVER_Z), v1)


# The identities over Z that the klein and char3 checks rest on, in the one
# table `bwspread.certify_identity` reads.
bwspread.IDENTITIES.update({
    "forms_on_kappa": lambda u1, u2: _forms(bwspread._kappa(u1, u2)),
    "chart": _chart,
    "off_chart": _off_chart,
    "projection": _projection,
    "regulus_plane": _regulus_plane,
    "regulus_polar": _regulus_polar,
    "generator_on_cone": _generator_on_cone,
    "char3_kappa": _char3_kappa,
    "char3_osculating": _char3_osculating,
    # k on D's points (1, 0, a, -a, b, c) and (0, 0, a, -a, b, c)
    "char3_section": lambda a, b, c: (
        quadric_value((1, 0, a, -a, b, c), OVER_Z) - (c - a * a),
        quadric_value((0, 0, a, -a, b, c), OVER_Z) + a * a,
    ),
    # the tangent at u and the pencil line (0, 0, 0, 0, s, t) against the line of nuclei
    "nuclei_meet": lambda u1, u2, s, t: (
        polar_pairing(bwspread._kappa(u1, u2), bwspread.NUCLEI_IMAGE) + 3 * u1,
        polar_pairing((0, 0, 0, 0, s, t), bwspread.NUCLEI_IMAGE),
    ),
})
