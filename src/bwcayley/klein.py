"""Klein correspondence: quadric and cone forms, images of the tangent set.

PG(5,K) coordinates follow the Plücker order (Y01,Y02,Y03,Y12,Y13,Y23). The
generator family maps to a twisted cubic inside the 3-space C, the tangent
set plus the pencil through the pinch point maps onto the intersection of
three quadratic cones with the Klein quadric, and in characteristic 3
everything collapses into the quadratic cone cut out by the 3-space D.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Set, Tuple

from . import bwspread, cayley
from .field import Field, InfiniteField
from .linalg import rank, same_span
from .projspace import (
    GeometryError,
    KleinPoint,
    canonicalize,
    gram_apply,
    quadric_polarization,
    quadric_value,
    span_points,
)
from .reports import CheckOutcome


class WrongCharacteristic(GeometryError):
    pass


class ProjectionDegenerate(GeometryError):
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


# --- distinguished vectors and subspaces -------------------------------------

def in_C(y: Sequence, F: Field) -> bool:
    """The 3-space V(Y01, Y03 - Y12) housing the generator cubic."""
    return y[0] == F.zero and y[2] == y[3]


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


def generator_cubic(s0, s1, F: Field) -> KleinPoint:
    """Klein image of the generator g(s0,s1): (0, s0^3, s0^2 s1, s0^2 s1, s0 s1^2, s1^3),
    in plain operators, reduced once by `canonicalize`."""
    s0, s1 = F.of(s0), F.of(s1)
    if s0 == F.zero and s1 == F.zero:
        raise cayley.ZeroParameters("generator parameters must not both vanish")
    s00, s11 = s0 * s0, s1 * s1
    b = s00 * s1
    return canonicalize((F.zero, s00 * s0, b, b, s0 * s11, s11 * s1), F)


def twisted_cubic_basis(F: Field) -> Tuple[Tuple, ...]:
    """Basis vectors v0..v3 with image(s0,s1) = s0^3 v0 + s0^2 s1 v1 + s0 s1^2 v2 + s1^3 v3."""
    zero, one = F.zero, F.one
    v0 = (zero, one, zero, zero, zero, zero)
    v1 = (zero, zero, one, one, zero, zero)
    v2 = (zero, zero, zero, zero, one, zero)
    v3 = (zero, zero, zero, zero, zero, one)
    return v0, v1, v2, v3


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


def project_through_Cperp(y: Sequence, F: Field) -> KleinPoint:
    """Unique point of (y + span{w, DIRECTRIX_IMAGE}) in the 3-space B.

    Closed form (y01, y02, 0, y12+y03, y13, 0); degenerate exactly when y
    lies on the polar line of C itself.
    """
    image = (y[0], y[1], F.zero, y[3] + y[2], y[4], F.zero)
    if all(F.of(v) == F.zero for v in image):
        raise ProjectionDegenerate("input lies on the polar line of C")
    return canonicalize(image, F)


def _projected_cubic_point(s, F: Field) -> KleinPoint:
    """The point (1, 3s, 0, 3s^2, s^3, 0) of the twisted cubic in B, in
    plain operators, reduced once by `canonicalize`."""
    s = F.of(s)
    ss = s * s
    return canonicalize((F.one, 3 * s, F.zero, 3 * ss, ss * s, F.zero), F)


def projection_check(F: Field) -> CheckOutcome:
    """Projecting the tangent image at (s, u2) through the polar line of C
    lands on the cubic point of s for every u2; the witness is the first
    failing (s, u2).
    """
    counts = {"parameter_pairs": F.order**2}
    for s in F.elements():
        want = _projected_cubic_point(s, F)
        for u2 in F.elements():
            if project_through_Cperp(bwspread.kappa(s, u2, F), F) != want:
                return CheckOutcome(passed=False, witness=(s, u2), counts=counts)
    return CheckOutcome(passed=True, counts=counts)


def reguli_check(F: Field) -> CheckOutcome:
    """For every s, `bwspread.regulus_minus(s, F)` is a regulus whose
    opposite regulus contains the generator g(1,s): its image
    `generator_cubic(1, s)`, which is on the quadric, lies in the polar
    plane. The witness is the first failing s.
    """
    counts = {"reguli": F.order, "lines_each": F.order + 1}
    for s in F.elements():
        ok, polar = bwspread.verify_regulus(bwspread.regulus_minus(s, F), F)
        if not (ok and rank(polar + [list(generator_cubic(1, s, F))], F) == 3):
            return CheckOutcome(passed=False, witness=s, counts=counts)
    return CheckOutcome(passed=True, counts=counts)


def generator_cubic_check(F: Field) -> CheckOutcome:
    """Every generator image lies in C and on the Klein quadric."""
    params = [(F.one, s) for s in F.elements()] + [(F.zero, F.one)]
    passed = all(
        in_C(y, F) and quadric_value(y, F) == F.zero
        for y in (generator_cubic(s0, s1, F) for s0, s1 in params)
    )
    return CheckOutcome(passed=passed, counts={"generators": F.order + 1})


# --- exhaustive variety comparison -------------------------------------------

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


def _image_difference(points: Set[KleinPoint], F: Field) -> Tuple[List, List, int]:
    """Compare a set of canonical points with the Klein image of the tangent
    set O united with the pencil through the pinch point (which holds the
    directrix), over GF(p).

    No image set is built. A point leading with 1 is an image exactly when
    it is kappa(u) at the parameter u that `bwspread.parameter_reader` reads
    off it, and one leading with 0 exactly when it is a pencil image. One
    pass over the tangents tests each image for membership in the set. The
    q^2 tangent images are distinct and lead with 1, the pencil's lead with
    0. Returns (extra, missing, n_images): the points that are no image,
    the images that are no point, and the number of images.
    """
    pencil = pencil_LZomega(F)
    in_pencil = set(pencil)
    parameter, kappa = bwspread.parameter_reader(F), bwspread.kappa
    extra = [z for z in points if (kappa(*parameter(z), F) != z if z[0] else z not in in_pencil)]
    missing = [y for y in pencil if y not in points]
    n_tangents = 0
    for _, (_, _, y) in bwspread.tangents(F):
        n_tangents += 1
        if y not in points:
            missing.append(y)
    return extra, missing, n_tangents + len(pencil)


def verify_variety_equality(F: Field) -> CheckOutcome:
    """Set equality of the exhaustive form zero set with the Klein image of
    the tangent set O united with the pencil through the pinch point, by
    `_image_difference`. The image has q^2 plus the pencil's size points.
    The witness is the least point of the symmetric difference.
    """
    if F.characteristic == 3:
        raise WrongCharacteristic("the three-cone description needs characteristic != 3")
    zero_set = variety_zero_set(F)
    extra, missing, n_images = _image_difference(zero_set, F)
    equal = not extra and not missing
    q = F.order
    return CheckOutcome(
        passed=equal and len(zero_set) == q * q + q + 1,
        witness=None if equal else min(extra + missing),
        counts={
            "zero_set_points": len(zero_set),
            "image_points": n_images,
            "expected": q * q + q + 1,
        },
    )


# --- characteristic 3 ---------------------------------------------------------

def char3_congruence_check(F: Field) -> CheckOutcome:
    """The tangent set O plus the pencil through the pinch point is the
    congruence cut out by D, and all its lines meet the line of nuclei.

    The Klein correspondence is a bijection between lines and quadric
    points, so the congruence's lines are the q^2+q+1 points of the quadric
    section of D; comparing them with the images of tangents plus pencil by
    `_image_difference` (cubing is onto for finite characteristic 3) settles
    membership and exhaustion at once. The witness is the first of these
    images skew to the line of nuclei, whose image is the closed form
    `bwspread.NUCLEI_IMAGE`, the tangents first in lexicographic order,
    then the pencil's.
    """
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    qd_points = variety_qd_points(F)
    extra, missing, n_images = _image_difference(qd_points, F)
    # GF(3) is the only prime field of characteristic 3: a second walk over its 9 tangents
    images = chain((y for _, (_, _, y) in bwspread.tangents(F)), pencil_LZomega(F))
    skew = next((y for y in images if quadric_polarization(y, bwspread.NUCLEI_IMAGE, F) != F.zero), None)
    q = F.order
    return CheckOutcome(
        passed=skew is None and not extra and not missing and len(qd_points) == q * q + q + 1,
        witness=skew,
        counts={
            "congruence_lines": len(qd_points),
            "tangents_plus_pencil": n_images,
            "cone_section_points": len(qd_points),
            "expected": q * q + q + 1,
        },
    )


def variety_qd_points(F: Field) -> Set[KleinPoint]:
    """Canonical points of the 3-space D = V(Y02, Y03 + Y12) on the quadric:
    the zeros among the (q^4-1)/(q-1) points spanned by e01, e03 - e12, e13, e23."""
    rows = ((1, 0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    return {y for y in span_points(rows, F) if quadric_value(y, F) == F.zero}


def osculating_plane_pencil_check(F: Field) -> CheckOutcome:
    """In characteristic 3 all osculating planes of the generator cubic share
    the axis spanned by v1 and v2, which is the polar line of D.
    """
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    v0, v1, v2, v3 = twisted_cubic_basis(F)
    axis = [list(v1), list(v2)]

    d_equations = [
        (F.zero, F.one, F.zero, F.zero, F.zero, F.zero),
        (F.zero, F.zero, F.one, F.one, F.zero, F.zero),
    ]
    # the polar of D = V(Y02, Y03 + Y12) is spanned by the Gram images of its equations
    axis_is_polar = same_span(axis, [list(gram_apply(row, F)) for row in d_equations], F)

    def combo(*terms):
        return [F.of(sum(coeff * vec[i] for coeff, vec in terms)) for i in range(6)]

    ok = axis_is_polar
    witness = None
    for s in F.elements():
        s2 = s * s
        point = combo((1, v0), (s, v1), (s2, v2), (s2 * s, v3))
        first = combo((1, v1), (2 * s, v2), (3 * s2, v3))
        second = combo((2, v2), (6 * s, v3))
        plane = [point, first, second]
        if rank(plane, F) != 3 or rank(plane + [list(v1)], F) != 3 or rank(plane + [list(v2)], F) != 3:
            ok = False
            witness = s
            break
    # the remaining cubic point (the image of the directrix), via the reversed chart
    if ok:
        plane = [list(v3), list(v2), combo((2, v1))]
        ok = rank(plane, F) == 3 and rank(plane + [list(v1)], F) == 3 and rank(plane + [list(v2)], F) == 3
    return CheckOutcome(
        passed=ok,
        witness=witness,
        counts={"parameters": F.order + 1},
    )
