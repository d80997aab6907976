"""Klein correspondence: quadric and cone forms, images of the tangent set.

PG(5,K) coordinates follow the Plücker order (Y01,Y02,Y03,Y12,Y13,Y23). The
generator family maps to a twisted cubic inside the 3-space C, the tangent
set plus the pencil through the pinch point maps onto the intersection of
three quadratic cones with the Klein quadric, and in characteristic 3
everything collapses into the quadratic cone cut out by the 3-space D.
Over GF(p) the variety, projection and congruence checks rest on
identities over Z, which this module enters in `bwspread.IDENTITIES`, plus
counts in closed form; `variety_zero_set` finds the zero set of the forms
by a scan of PG(5,q), which `scripts/variety_scan.py` compares with the
images.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence, Set, Tuple

from . import bwspread, cayley
from .field import Field, InfiniteField, cube_roots
from .linalg import rank, same_span
from .projspace import GeometryError, KleinPoint, canonicalize, gram_apply, polar_pairing, quadric_value
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


def projection_check(F: Field) -> CheckOutcome:
    """Projecting the tangent image at (s, u2) through the polar line of C
    into B, in closed form (y01, y02, 0, y12 + y03, y13, 0), lands on the
    point (1, 3s, 0, 3s^2, s^3, 0) of the twisted cubic for every u2 (the
    `projection` identity), so all q^2 parameter pairs pass.
    """
    bwspread.certify_identity("projection")
    return CheckOutcome(passed=True, counts={"parameter_pairs": F.order**2})


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
    onto, as the cube table tells, so the q^2 tangent images are the
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
        passed=all(cube_roots(t, F) for t in F.elements()),
        counts={"congruence_lines": n, "tangents_plus_pencil": n, "cone_section_points": n, "expected": n},
    )


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


# --- identities over Z ---------------------------------------------------------

# A stand-in for the field whose `of` is the identity: a form evaluated over
# it is its polynomial over Z, which `bwspread.Degree` can trace.
_OVER_Z = SimpleNamespace(of=lambda v: v)


def _forms(y: Sequence) -> Tuple:
    """h1, h2, h3 and k at y, over Z."""
    return tuple(form(y, _OVER_Z) for form in (h1_form, h2_form, h3_form, quadric_value))


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
        h1_form((0, y02, y03, y12, y13, y23), _OVER_Z) + y02 * y02,
        h2_form((0, 0, y03, y12, y13, y23), _OVER_Z) + s * s,
        quadric_value((0, 0, y03, -y03, y13, y23), _OVER_Z) + y03 * y03,
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


# The identities over Z that the klein and char3 checks rest on, in the one
# table `bwspread.certify_identity` reads.
bwspread.IDENTITIES.update({
    "forms_on_kappa": lambda u1, u2: _forms(bwspread._kappa(u1, u2)),
    "chart": _chart,
    "off_chart": _off_chart,
    "projection": _projection,
    "char3_kappa": _char3_kappa,
    # k on D's points (1, 0, a, -a, b, c) and (0, 0, a, -a, b, c)
    "char3_section": lambda a, b, c: (
        quadric_value((1, 0, a, -a, b, c), _OVER_Z) - (c - a * a),
        quadric_value((0, 0, a, -a, b, c), _OVER_Z) + a * a,
    ),
    # the tangent at u and the pencil line (0, 0, 0, 0, s, t) against the line of nuclei
    "nuclei_meet": lambda u1, u2, s, t: (
        polar_pairing(bwspread._kappa(u1, u2), bwspread.NUCLEI_IMAGE) + 3 * u1,
        polar_pairing((0, 0, 0, 0, s, t), bwspread.NUCLEI_IMAGE),
    ),
})
