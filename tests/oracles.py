"""Reference routes kept as test oracles.

The certifiers in `bwcayley.bwspread` count covering and dual-spread
histograms in closed form, and over GF(p) rest partial_spread, maximality
and duality on identities over Z (`bwspread.IDENTITIES`) plus counts in
O(q). `partial_spread_by_translations`, `maximality_by_walk` and
`duality_by_parameters` walk all q^2 parameters instead: through the
translation group, whose generators (`group_matrix`, `param_action`) map
the tangents' Plücker sextuples by second compound matrices
(`second_compound`), over the points (0, 1, a, b) of the plane at
infinity, and per parameter. The routes below scan every point and every
plane of PG(3,q) and return the same `CheckOutcome`s, so the tests can
compare flags, witnesses and counts at small primes; they map points one
by one through the group matrices, act on parameters through step-reduced field
operations (`add`, `sub`, `mul`, `neg`, `div`, each reduced by `F.of`),
scan PG(5,q) by trying every value of every coordinate, and find the
characteristic-3 congruence by scanning every line of PG(3,q). `klein`
certifies variety_equality, projection and congruence from identities over
Z; `variety_equality_by_walk`, `projection_by_walk` and
`char3_congruence_by_walk` compare the scanned zero set, the projected
images and the quadric section of D (`variety_qd_points`, read off the
`span_points` of its basis) with the tangents instead. The walks read each
tangent from its closed form (`closed_tangent`) one parameter at a time
off `tangents`, which raises `IndistinctTangents` at an image that does
not give its parameter back; the `*_by_O` routes take the list
O = build_O(F) instead, index it by parameter and compare sets of its
Plücker sextuples, as the checks did before they streamed. `f_value` reduces the surface form on any representative. The
elimination modulo a prime of `bwcayley.linalg` packs each row into one
int; `rref_mod_by_lists` keeps the rows as lists of residues. The `ideal`
probe reads its pencil and witness verdicts off the kernel's coefficients;
`pencil_sample_points` gives points of the pencil line to evaluate the
forms at instead. At degree 2 the probe tests the quadric and the three
cone forms by their values at the samples; `known_quadric_coefficients`
reads their coefficient vectors off by polarization, for a rank test
against the kernel basis instead. It draws its parameters as int pairs,
samples integer sextuples and evaluates monomials degree by degree;
`sample_parameters` draws the same parameters as Fractions,
`sample_kappa_O_by_fractions` takes each sample's Klein
image in Fractions and scales it back to ints, and `monomial_row_by_powers`
evaluates each monomial by powers of the coordinates. The Klein-section checks take the pencil and the reguli
as closed-form Klein images; `pencil_lines` and `regulus_lines` join the
same lines, and the `*_by_O` routes deduplicate joined lines by
`dedup_lines`; the reguli check takes each generator's image from
`klein.generator_cubic`, and `generator` joins the generator instead.
Over the rationals the certifiers test their seeded samples on unreduced
int tuples; the `*_by_fractions` routes draw the same samples and test them
in Fraction arithmetic on joined `Line`s and canonical tuples, with
`tangent_plane` the canonical tangent plane. The library reads the
directrix, the line of nuclei and the plane at infinity by their equations
and closed-form Klein images; `line_through`, `g_infinity`, `nuclei_line`,
`w_infinity` and `omega_points` join and list them instead. The library
forms a surface point only inside `bwspread.osculating_tangent` and reads
the tangents' Klein images through `bwspread.osculating_sextuple`;
`surface_point` and `kappa_osculating` give either at any parameter over
any field. `field.classify_field` reads the nontrivial cube roots of 1 off
the cube table; `unity_root_by_quadratic` finds them as roots of X^2+X+1.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import mul as int_mul
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from bwcayley import bwspread, cayley
from bwcayley.bwspread import (
    PAIR_SPOT_CHECKS,
    SPOT_CHECKS,
    _affine_histogram,
    covering_deficit,
    lines_of_O_through,
    osculating_tangent,
    skew_criterion,
    verify_regulus,
)
from bwcayley.field import QQ, Field, InfiniteField, cube_roots, nontrivial_cube_root_of_unity
from bwcayley.klein import (
    WrongCharacteristic,
    h1_form,
    h2_form,
    h3_form,
    pencil_LZomega,
    variety_zero_set,
)
from bwcayley.idealprobe import NUM_VARS, monomial_exponents
from bwcayley.linalg import rank
from bwcayley.projspace import (
    CoincidentPoints,
    GeometryError,
    KleinPoint,
    Line,
    ProjPlane,
    ProjPoint,
    canonical_tuples,
    canonicalize,
    det4,
    enumerate_lines,
    enumerate_points,
    incidence,
    lines_skew,
    plucker,
    plucker_minors,
    primitive_int_vector,
    quadric_polarization,
    quadric_value,
)
from bwcayley.reports import CheckOutcome


# Step-reduced field arithmetic: `F.of` after every single operation, where
# the library writes a formula in plain operators and reduces it once, so a
# reference built from these reaches its values by a separate route.

def add(a, b, F: Field):
    return F.of(a + b)


def sub(a, b, F: Field):
    return F.of(a - b)


def mul(a, b, F: Field):
    return F.of(a * b)


def neg(a, F: Field):
    return F.of(-a)


def div(a, b, F: Field):
    return F.of(a * F.inv(b))


# The pinch point, lines joined from two points, and the plane at infinity
# listed point by point.

def z_point(F: Field) -> ProjPoint:
    """The pinch point (0,0,0,1)."""
    return (F.zero, F.zero, F.zero, F.one)


def line_through(p: Sequence, q: Sequence, F: Field) -> Line:
    """The line joining two distinct points, each canonicalised, with its
    canonical Plücker sextuple."""
    p = canonicalize(p, F)
    q = canonicalize(q, F)
    if p == q:
        raise CoincidentPoints(f"{p} given twice")
    return Line(p=p, q=q, plucker=plucker(p, q, F))


def g_infinity(F: Field) -> Line:
    """The double line V(X0,X1), directrix of the surface."""
    return line_through((F.zero, F.zero, F.one, F.zero), z_point(F), F)


def nuclei_line(F: Field) -> Line:
    """The line V(X0,X2); in characteristic 3 it carries the nuclei."""
    return line_through((F.zero, F.one, F.zero, F.zero), z_point(F), F)


def w_infinity(F: Field) -> KleinPoint:
    """Klein image of the directrix, read off the joined `g_infinity`."""
    return g_infinity(F).plucker


def omega_points(F: Field) -> Iterable[ProjPoint]:
    """The q^2 + q + 1 canonical points (0, x1, x2, x3) of the plane at
    infinity, in canonical order, produced one at a time."""
    return ((F.zero,) + x for x in canonical_tuples(3, F))


def int_pairs(u1, u2, F: Field = QQ) -> Tuple[int, int, int, int]:
    """u1 and u2 reduced by `F.of` as the ints (a, b, c, d), u1 = a/b and
    u2 = c/d, that `cayley.surface_point_coefficients`,
    `cayley.tangent_plane_coefficients` and `bwspread._integer_tangent`
    take; over GF(p) b = d = 1."""
    u1, u2 = F.of(u1), F.of(u2)
    return u1.numerator, u1.denominator, u2.numerator, u2.denominator


def surface_point(u1, u2, F: Field) -> ProjPoint:
    """Canonical point of the affine chart at (u1, u2):
    `cayley.surface_point_coefficients` reduced once by `canonicalize`."""
    return canonicalize(cayley.surface_point_coefficients(*int_pairs(u1, u2, F)), F)


def kappa_osculating(u1, u2, F: Field) -> KleinPoint:
    """Closed-form Klein image of the osculating tangent at (u1, u2) over
    any field: `bwspread.osculating_sextuple` at x0 = 1, each entry reduced
    by `F.of`."""
    return tuple(map(F.of, bwspread.osculating_sextuple(1, u1, u2)))


def unity_root_by_quadratic(p: int) -> Optional[int]:
    """The least root of X^2 + X + 1 mod p other than 1, or None: the
    nontrivial cube roots of 1 found without the cube table."""
    return next((x for x in range(2, p) if (x * x + x + 1) % p == 0), None)


def tangent_plane(u1, u2, F: Field) -> ProjPlane:
    """Tangent plane at the affine surface point with parameters (u1, u2):
    `cayley.tangent_plane_coefficients` reduced once by `canonicalize`."""
    return canonicalize(cayley.tangent_plane_coefficients(*int_pairs(u1, u2, F)), F)


def f_value(x: Sequence, F: Field):
    """`cayley.cubic_form` on any representative, reduced once by `F.of`.
    Scaling x by lam scales the value by lam^3, so its zero test reads the
    class; the zero vector raises."""
    val = F.of(cayley.cubic_form(x))
    if val == F.zero and not any(map(F.of, x)):
        raise GeometryError("zero vector has no projective class")
    return val


def span_points(basis: Sequence[Sequence], F: Field) -> List[Tuple]:
    """Canonical points of the span of linearly independent vectors over GF(p).

    One point per canonical coefficient tuple, so the (q^k-1)/(q-1) points of
    a k-dimensional span come out once each, ordered by their coefficients.
    Combinations are int dot products, reduced mod p by `canonicalize`.
    """
    columns = list(zip(*basis))
    sums = ([sum(map(int_mul, c, col)) for col in columns] for c in canonical_tuples(len(basis), F))
    return [canonicalize(v, F) for v in sums]


class IndistinctTangents(GeometryError):
    """A tangent's Klein image does not give its parameter back, so the q^2
    tangents are not certified distinct."""


def closed_tangent(u1, u2, F: Field) -> Tuple[ProjPoint, ProjPoint, KleinPoint]:
    """The osculating tangent at (u1, u2) over GF(p), in closed form: the
    surface point (1, u1, u2, u1*u2 - u1^3), the direction (0, 1, 3u1, u2)
    and `bwspread.kappa(u)`, every entry reduced mod p, so each tuple leads
    with 1 and is canonical as it stands."""
    p = F.p
    u1 %= p
    u2 %= p
    return (1, u1, u2, (u2 - u1 * u1) * u1 % p), (0, 1, 3 * u1 % p, u2), bwspread.kappa(u1, u2, F)


def tangents(F: Field) -> Iterator[Tuple[Tuple[int, int], Tuple]]:
    """(u, closed_tangent(u)) for every parameter u, in lexicographic order,
    produced one at a time. Each Klein image must give its parameter back:
    it leads with 1 (so it is not the directrix's, which leads with 0), and
    `bwspread.parameter_reader` reads u off it; IndistinctTangents is raised
    at the first image that does not."""
    if not F.is_finite:
        raise InfiniteField("O is accessed parametrically over infinite fields")
    parameter = bwspread.parameter_reader(F)
    for u1 in range(F.p):
        for u2 in range(F.p):
            t = closed_tangent(u1, u2, F)
            y = t[2]
            if y[0] != 1 or parameter(y) != (u1, u2):
                raise IndistinctTangents(f"the Klein image {y} of the tangent at {(u1, u2)} does not give it back")
            yield (u1, u2), t


def generator(s0, s1, F: Field) -> Line:
    """The generator line spanned by (s0^2, s0*s1, s1^2, 0) and (0, 0, s0, s1)."""
    s0, s1 = F.of(s0), F.of(s1)
    if s0 == F.zero and s1 == F.zero:
        raise cayley.ZeroParameters("generator parameters must not both vanish")
    p = (mul(s0, s0, F), mul(s0, s1, F), mul(s1, s1, F), F.zero)
    q = (F.zero, F.zero, s0, s1)
    return line_through(p, q, F)


# The triangular automorphism group of the surface, its action on the tangent
# parameters and on Plücker sextuples, and the parameter grid.

class ZeroScale(GeometryError):
    pass


class GMatrix(NamedTuple):
    """Triangular automorphism M_{a,b,c} of the surface (c nonzero)."""

    a: object
    b: object
    c: object
    entries: Tuple[Tuple, ...]


def group_matrix(a, b, c, F: Field) -> GMatrix:
    a, b, c = F.of(a), F.of(b), F.of(c)
    if c == F.zero:
        raise ZeroScale("matrix scale parameter c must be nonzero")
    of, zero = F.of, F.zero
    c2 = c * c
    entries = (
        (F.one, zero, zero, zero),
        (a, c, zero, zero),
        (b, of(3 * a * c), of(c2), zero),
        (of(a * b - a * a * a), of(b * c), of(a * c2), of(c2 * c)),
    )
    return GMatrix(a=a, b=b, c=c, entries=entries)


def param_action(M: GMatrix, u1, u2, F: Field) -> Tuple:
    """Action of M_{a,b,c} on the affine chart: (u1, u2) -> (a + c*u1, b + 3ac*u1 + c^2*u2),
    in plain operators, each coordinate reduced once by `F.of`."""
    a, c = M.a, M.c
    cu1 = c * u1
    return F.of(a + cu1), F.of(M.b + 3 * a * cu1 + c * c * u2)


_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def second_compound(m: Sequence[Sequence], F: Field) -> Tuple[Tuple, ...]:
    """The 6x6 matrix by which the point map x -> m*x acts on Plücker sextuples.

    The join of p and q goes to the join of m*p and m*q, whose sextuple is
    this matrix times the sextuple of the join: the entry in row (i,j) and
    column (k,l) is m_ik*m_jl - m_il*m_jk, each reduced by `F.of`.
    """
    return tuple(
        tuple(F.of(m[i][k] * m[j][l] - m[i][l] * m[j][k]) for k, l in _PLUCKER_PAIRS) for i, j in _PLUCKER_PAIRS
    )


def compound_apply(compound: Sequence[Sequence], y: Sequence) -> List:
    """A `second_compound` times a sextuple: 36 plain products, unreduced."""
    y0, y1, y2, y3, y4, y5 = y
    return [r0 * y0 + r1 * y1 + r2 * y2 + r3 * y3 + r4 * y4 + r5 * y5 for r0, r1, r2, r3, r4, r5 in compound]


def compound_image(compound: Sequence[Sequence], y: Sequence, F: Field) -> KleinPoint:
    """Canonical sextuple of the image of the line y under a `second_compound`:
    `compound_apply` reduced once by `canonicalize`."""
    return canonicalize(compound_apply(compound, y), F)


def is_multiple(z: Sequence, y: Sequence, p: int) -> bool:
    """Whether the int sextuple z is a nonzero multiple of the sextuple y
    modulo the prime p, for y reduced with leading entry 1: z_0 is not 0
    and z_i = z_0*y_i for every i (i = 0 included, so y must lead with 1).
    No inverse is taken, so z need not be reduced or scaled first."""
    z0 = z[0] % p
    return z0 != 0 and not any((zi - z0 * yi) % p for zi, yi in zip(z, y))


def parameter_grid(F: Field) -> List[Tuple]:
    """All (u1, u2) in lexicographic order (finite fields only)."""
    elems = list(F.elements())
    return [(u1, u2) for u1 in elems for u2 in elems]


def partner(u1: int, u2: int, p: int) -> Tuple[int, int]:
    """v = (-u1, 3u1^2 - u2) mod p, the parameter whose tangent the duality
    pairs with the tangent at u; the map is an involution."""
    return -u1 % p, (3 * u1 * u1 - u2) % p


def group_apply(M: GMatrix, x: Sequence, F: Field) -> ProjPoint:
    """Canonical image of a point from plain products, reduced by `canonicalize`
    (M is invertible, so only the zero vector maps to zero, and is rejected)."""
    return canonicalize([sum(map(int_mul, row, x)) for row in M.entries], F)


def param_action_by_field_ops(M: GMatrix, u1, u2, F: Field) -> Tuple:
    """`param_action` in step-reduced field operations:
    (u1, u2) -> (a + c*u1, b + 3ac*u1 + c^2*u2)."""
    u1, u2 = F.of(u1), F.of(u2)
    cu1 = mul(M.c, u1, F)
    v1 = add(M.a, cu1, F)
    v2 = add(add(M.b, mul(F.of(3), mul(M.a, cu1, F), F), F), mul(mul(M.c, M.c, F), u2, F), F)
    return v1, v2


def variety_zero_set_by_trials(F: Field) -> Set[KleinPoint]:
    """The zero set of h1, h2, h3 and k in PG(5,q) by trying every value of
    every coordinate, each form tested once the coordinates it reads are
    assigned: h1 at Y12, h2 and h3 at Y13, k at Y23."""
    forms_ready_at = ((), (), (), (h1_form,), (h2_form, h3_form), (quadric_value,))
    zero = F.zero
    elems = tuple(F.elements())
    prefixes: List[Tuple] = []
    for i, forms in enumerate(forms_ready_at):
        extended = []
        for z in chain([(zero,) * i + (F.one,)], (y + (v,) for y in prefixes for v in elems)):
            if all(form(z, F) == zero for form in forms):
                extended.append(z)
        prefixes = extended
    return set(prefixes)


def point_in_plane(x: Sequence, e: Sequence, F: Field) -> bool:
    acc = F.zero
    for xi, ei in zip(x, e):
        acc = add(acc, mul(xi, ei, F), F)
    return acc == F.zero


def plane_pencil(l: Line, F: Field) -> List[ProjPlane]:
    """The q+1 canonical planes through a line over GF(p), in span_points order.

    Row k of the antisymmetric dual Plücker matrix Z is the plane through
    the line and the k-th coordinate point. With Z[i][j] the first nonzero
    entry above the diagonal, row by row, row j divided by Z[j][i] and row i
    divided by Z[i][j] are the pencil's reduced echelon basis r, s: r has
    its leading 1 at column i and 0 at column j, s is 0 before its leading 1
    at column j. So s and r + t*s for t in GF(p) are canonical as they
    stand, and each plane costs four products reduced mod p.
    """
    y01, y02, y03, y12, y13, y23 = l.plucker
    Z = ((0, y23, -y13, y12), (-y23, 0, y03, -y02), (y13, -y03, 0, y01), (-y12, y02, -y01, 0))
    p = F.p
    i, j = next((i, j) for i in range(3) for j in range(i + 1, 4) if Z[i][j] % p)
    inv = pow(Z[i][j], -1, p)
    r0, r1, r2, r3 = (-v * inv % p for v in Z[j])
    s = s0, s1, s2, s3 = tuple(v * inv % p for v in Z[i])
    return [s] + [
        ((r0 + t * s0) % p, (r1 + t * s1) % p, (r2 + t * s2) % p, (r3 + t * s3) % p) for t in F.elements()
    ]


def covering_by_points(F: Field) -> CheckOutcome:
    """The covering check point by point: the cube roots of every affine
    point's deficit, the direction rule at infinity."""
    char3 = F.characteristic == 3
    covered = uncovered = 0
    witness = None
    histogram: Dict[int, int] = {}
    for point in enumerate_points(F):
        x0, x1, x2, x3 = point
        if x0 != F.zero:
            n = len(cube_roots(covering_deficit(x1, x2, x3, F), F))
            histogram[n] = histogram.get(n, 0) + 1
            hit = n > 0
        elif x1 != F.zero:
            # direction (0,1,3u1,u2): solvable unless char 3 forces x2 = 0
            hit = (not char3) or x2 == F.zero
        else:
            hit = True  # on the directrix
        if hit:
            covered += 1
        else:
            uncovered += 1
            if witness is None:
                witness = point
    return CheckOutcome(
        passed=uncovered == 0,
        witness=witness,
        counts={
            "points": covered + uncovered,
            "covered": covered,
            "uncovered": uncovered,
            **{f"affine_with_{k}_tangents": v for k, v in sorted(histogram.items())},
        },
    )


def dual_spread_by_pencils(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """The dual-spread check by plane pencils: one pass over the pencils of
    O counts the lines in every plane, then every plane is read."""
    lines_in = Counter(chain.from_iterable(plane_pencil(l, F) for l in O))
    z = z_point(F)
    witness = None
    histogram: Dict[int, int] = {}
    planes_through_z_missing = 0
    for plane in enumerate_points(F):
        n = lines_in.get(plane, 0)
        histogram[n] = histogram.get(n, 0) + 1
        if n != 1 and witness is None:
            witness = plane
        if n == 0 and point_in_plane(z, plane, F):
            planes_through_z_missing += 1
    return CheckOutcome(
        passed=set(histogram) == {1} and planes_through_z_missing == 0,
        witness=witness,
        counts={
            "planes": sum(histogram.values()),
            "planes_through_Z_without_line": planes_through_z_missing,
            **{f"planes_with_{k}_lines": v for k, v in sorted(histogram.items())},
        },
    )


def duality_by_scans(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """The finite-field duality check with the surface points and the
    tangent planes found by scanning all q^3 + q^2 + q + 1 tuples."""
    for u1, u2 in ((u1, u2) for u1 in F.elements() for u2 in F.elements()):
        v1, v2 = neg(u1, F), sub(mul(F.of(3), mul(u1, u1, F), F), u2, F)
        if cayley.duality(surface_point(u1, u2, F), F) != tangent_plane(v1, v2, F):
            return CheckOutcome(passed=False, witness=(u1, u2))
        image = cayley.dual_plucker(osculating_tangent(u1, u2, F).plucker, F)
        if image != osculating_tangent(v1, v2, F).plucker:
            return CheckOutcome(passed=False, witness=(u1, u2))
    points = enumerate_points(F)
    fixed = {cayley.dual_plucker(l.plucker, F) for l in O} == {l.plucker for l in O}
    surface = [x for x in points if f_value(x, F) == F.zero]
    dual_images = {cayley.duality(x, F) for x in surface}
    tangent_planes = {e for e in points if cayley.tangency_test(e, F)}
    bijective = len(dual_images) == len(surface) and dual_images == tangent_planes
    return CheckOutcome(
        passed=fixed and bijective,
        counts={
            "parameter_pairs": F.order**2,
            "lines": len(O),
            "surface_points": len(surface),
            "tangent_planes": len(tangent_planes),
        },
    )


def maximality_by_filter(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """The finite-field maximality check on the plane at infinity filtered
    out of the point list, each point tested on its covering line read off
    O = build_O(F)."""
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    tangent = dict(zip(((u1, u2) for u1 in F.elements() for u2 in F.elements()), O))
    third = F.inv(F.of(3))
    checked = 0
    for point in enumerate_points(F):
        x0, x1, x2, x3 = point
        if x0 != F.zero:
            continue
        line = O[-1] if x1 == F.zero else tangent[mul(div(x2, x1, F), third, F), div(x3, x1, F)]
        if not incidence(point, line, F):
            return CheckOutcome(passed=False, witness=point)
        checked += 1
    return CheckOutcome(passed=True, counts={"omega_points": checked})


def dedup_lines(lines: Iterable[Line]) -> List[Line]:
    """Order-preserving dedup by canonical Plücker sextuple."""
    seen = set()
    out = []
    for l in lines:
        if l.plucker not in seen:
            seen.add(l.plucker)
            out.append(l)
    return out


def regulus_lines(s, F: Field) -> List[Line]:
    """The lines whose images `bwspread.regulus_minus` lists, in its order,
    each joined by `osculating_tangent`: the tangents at (s, u2) for every
    u2, then the directrix."""
    return [osculating_tangent(s, u2, F) for u2 in F.elements()] + [g_infinity(F)]


def pencil_line(a, b, F: Field) -> Line:
    """The line joining the pinch point with (0, a, b, 0) inside the plane at infinity."""
    a, b = F.of(a), F.of(b)
    if a == F.zero and b == F.zero:
        raise cayley.ZeroParameters("pencil parameters must not both vanish")
    return line_through((F.zero, a, b, F.zero), z_point(F), F)


def pencil_lines(F: Field) -> List[Line]:
    """The lines whose images `klein.pencil_LZomega` lists, in its order,
    each joined by `line_through`: (0, 1, b, 0) with the pinch point for
    every b, then the directrix, through (0, 0, 1, 0)."""
    return [pencil_line(F.one, b, F) for b in F.elements()] + [pencil_line(F.zero, F.one, F)]


def in_D(y: Sequence, F: Field) -> bool:
    """The 3-space V(Y02, Y03 + Y12) of the characteristic-3 congruence."""
    return y[1] == F.zero and add(y[2], y[3], F) == F.zero


def char3_congruence_by_line_scan(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`klein.char3_congruence_check` with the congruence found by scanning
    every line of PG(3,q) for those whose Klein image lies in D; the
    witness is the first such line skew to the line of nuclei."""
    union = dedup_lines(list(O) + pencil_lines(F))
    subset_ok = all(in_D(l.plucker, F) for l in union)
    congruence = [l for l in enumerate_lines(F) if in_D(l.plucker, F)]
    n_line = nuclei_line(F)
    meet_failures = [l for l in congruence if lines_skew(l, n_line, F)]
    qd_points = variety_qd_points(F)
    q = F.order
    passed = (
        subset_ok
        and not meet_failures
        and set(congruence) == set(union)
        and {l.plucker for l in congruence} == qd_points
        and len(congruence) == q * q + q + 1
    )
    return CheckOutcome(
        passed=passed,
        witness=meet_failures[0].plucker if meet_failures else None,
        counts={
            "congruence_lines": len(congruence),
            "tangents_plus_pencil": len(union),
            "cone_section_points": len(qd_points),
            "expected": q * q + q + 1,
        },
    )


def rref_mod_by_lists(ints: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """`linalg._rref_mod` on lists of residues: Gauss–Jordan of an integer
    matrix modulo the prime p, with the generic pivot rule, one list
    comprehension per row update."""
    m = [[v % p for v in row] for row in ints]
    pivots: List[int] = []
    r = 0
    for c in range(len(m[0])):
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        # every entry left of column c is 0 in the pivot row, so rows change from c on
        inv = pow(m[r][c], -1, p)
        top = [v * inv % p for v in m[r][c:]]
        m[r][c:] = top
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row[c:] = [(v - f * w) % p for v, w in zip(row[c:], top)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def sample_parameters(n: int, seed: int) -> List[Tuple[Fraction, Fraction]]:
    """`idealprobe.sample_parameter_ints` in Fractions: the first n distinct
    (u1, u2) from the seeded stream, heights at most 50."""
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


def sample_kappa_O_by_fractions(n: int, seed: int) -> List[Tuple[int, ...]]:
    """`idealprobe.sample_kappa_O` through Fractions: the Klein image
    `kappa_osculating` over Q at each sampled parameter, then its
    `primitive_int_vector`."""
    return [primitive_int_vector(kappa_osculating(u1, u2, QQ)) for u1, u2 in sample_parameters(n, seed)]


def monomial_row_by_powers(exps: Sequence[Tuple[int, ...]], point: Sequence[int]) -> List[int]:
    """`idealprobe.monomial_row` one monomial at a time, by powers of the coordinates."""
    row = []
    for e in exps:
        val = 1
        for v, k in zip(point, e):
            if k:
                val *= v**k
        row.append(val)
    return row


def known_quadric_coefficients() -> Dict[str, Tuple]:
    """The quadric and the three cone forms as degree-2 coefficient vectors.

    Read off each form by polarization: the coefficient of Yi^2 is f(e_i),
    and that of Yi*Yj is f(e_i + e_j) - f(e_i) - f(e_j). The forms are
    evaluated on plain-int vectors, and every entry comes out as a Fraction
    (through `F.of`).
    """
    def vector(form) -> Tuple:
        def at(*indices: int):
            return form(tuple(indices.count(v) for v in range(NUM_VARS)), QQ)

        vec = []
        for e in monomial_exponents(2):
            i, j = (v for v, k in enumerate(e) for _ in range(k))  # i == j for a square
            vec.append(at(i) if i == j else at(i, j) - at(i) - at(j))
        return tuple(vec)

    return {"k": vector(quadric_value), "h1": vector(h1_form), "h2": vector(h2_form), "h3": vector(h3_form)}


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


# --- the certify walks over the parameters -------------------------------------
#
# Second routes for the finite certify checks, each a walk over all q^2
# parameters: partial_spread through the translation group, whose generators
# act on the tangents' Plücker sextuples by second compound matrices,
# maximality over the points (0, 1, a, b), and duality per parameter. They
# read each tangent one parameter at a time off `tangents` and
# `bwspread.kappa`, so `break_kappa` reaches them.

def partial_spread_by_translations(F: Field) -> CheckOutcome:
    """`bwspread.certify_partial_spread` over GF(p) through the translation group.

    The generators M(1,0,1) and M(0,1,1), invertible by construction, are
    certified to fix the directrix and to send tangent(u) to
    tangent(param_action(u)) for every parameter u, each image y' =
    compound * kappa(u) compared with kappa(param_action(u)) by
    `is_multiple`, and their orbit of (0,0) to hold all q^2 parameters.
    Collineations keep skewness, so testing the origin tangent against the
    other q^2 - 1 (by the criterion and by Klein polarity, which must agree)
    decides every pair. A failed step reports its first witness in the
    order the steps are listed here, each generator's in parameter_grid
    order. One walk over `tangents` holds every verdict.
    """
    p = F.p
    ginf = bwspread.DIRECTRIX_IMAGE
    generators = [group_matrix(1, 0, 1, F), group_matrix(0, 1, 1, F)]
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
                v1, v2 = param_action(M, u1, u2, F)
                if not is_multiple(compound_apply(compounds[i], y), bwspread.kappa(v1, v2, F), p):
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
            v = param_action(M, *u, F)
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
        u = param_action(row_step, *u, F)
    if len(entries) != q:
        return False
    for row, u in entries.items():
        slots = bytearray(q)
        for _ in range(q):
            if u[0] != row:
                return False
            slots[u[1]] = 1
            u = param_action(slot_step, *u, F)
        if not all(slots):
            return False
    return True


def maximality_by_walk(F: Field) -> CheckOutcome:
    """`bwspread.certify_maximality` over GF(p), walking the q^2 points
    (0, 1, a, b): each lies on the tangent at u = (a/3, b) exactly when the
    Plücker minors of the surface point P(u) and the point are kappa(u)
    entry by entry (`closed_tangent`). The witness is the first
    failing point in canonical order."""
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    third = F.inv(F.of(3))
    for a in F.elements():
        for b in F.elements():
            point = (F.zero, F.one, a, b)
            x, _, y = closed_tangent(a * third, b, F)
            if not is_multiple(plucker_minors(x, point), y, F.p):
                return CheckOutcome(passed=False, witness=point)
    return CheckOutcome(passed=True, counts={"omega_points": F.order**2 + F.order + 1})


def duality_by_parameters(F: Field) -> Tuple[CheckOutcome, bool]:
    """`bwspread.certify_duality` over GF(p), in one walk over
    `tangents` that tests, per parameter: the reversed point
    (x3, x2, x1, x0) against minus the `cayley.tangent_plane_coefficients`
    of the partner v entry by entry; the dual of kappa(u) against kappa(v)
    by `is_multiple`; v(v) = u; and whether P(u) is on the surface exactly
    when its dual plane is tangent. The witness is the first parameter whose
    point or tangent the duality does not send to its partner's tangent
    plane or tangent. The walk goes on past it, testing only the line map,
    so that fixes_O covers every parameter."""
    p = F.p
    fixes_O = agree = True
    witness = None
    surface = tangent_planes = 0
    for u, (x, _, y) in tangents(F):
        v1, v2 = partner(*u, p)
        line_ok = is_multiple(cayley.dual_sextuple(y), bwspread.kappa(v1, v2, F), p)
        fixes_O = fixes_O and line_ok and partner(v1, v2, p) == u
        if witness is not None:
            continue
        e = cayley.tangent_plane_coefficients(v1, 1, v2, 1)
        x0, x1, x2, x3 = x
        if (x3 + e[0]) % p or (x2 + e[1]) % p or (x1 + e[2]) % p or (x0 + e[3]) % p or not line_ok:
            witness = u
            continue
        on_surface = f_value(x, F) == F.zero
        tangent = cayley.tangency_test((x3, x2, x1, x0), F)
        surface += on_surface
        tangent_planes += tangent
        agree = agree and on_surface == tangent
    fixes_O = fixes_O and cayley.dual_plucker(bwspread.DIRECTRIX_IMAGE, F) == bwspread.DIRECTRIX_IMAGE
    if witness is not None:
        return CheckOutcome(passed=False, witness=witness), fixes_O
    # the canonical pairs (a, b) give the directrix points (0, 0, a, b)
    # and the planes [a, b, 0, 0] through the directrix
    on_directrix = 0
    dual_images, planes = set(), set()
    for ab in canonical_tuples(2, F):
        x = (F.zero, F.zero) + ab
        if f_value(x, F) == F.zero:
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


# --- the klein and char3 checks as walks ---------------------------------------
# `klein` certifies variety_equality, projection and congruence from identities
# over Z. The routes below compare the scanned zero set, the points of D's
# quadric section and the projected images with the tangents read one
# parameter at a time off `tangents`, as the checks did before.

class ProjectionDegenerate(GeometryError):
    pass


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


def projection_by_walk(F: Field) -> CheckOutcome:
    """`klein.projection_check`, projecting the tangent image at every
    (s, u2) through the polar line of C; the witness is the first failing
    (s, u2)."""
    counts = {"parameter_pairs": F.order**2}
    for s in F.elements():
        want = _projected_cubic_point(s, F)
        for u2 in F.elements():
            if project_through_Cperp(bwspread.kappa(s, u2, F), F) != want:
                return CheckOutcome(passed=False, witness=(s, u2), counts=counts)
    return CheckOutcome(passed=True, counts=counts)


def variety_qd_points(F: Field) -> Set[KleinPoint]:
    """Canonical points of the 3-space D = V(Y02, Y03 + Y12) on the quadric:
    the zeros among the (q^4-1)/(q-1) points spanned by e01, e03 - e12, e13, e23."""
    rows = ((1, 0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    return {y for y in span_points(rows, F) if quadric_value(y, F) == F.zero}


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
    for _, (_, _, y) in tangents(F):
        n_tangents += 1
        if y not in points:
            missing.append(y)
    return extra, missing, n_tangents + len(pencil)


def variety_equality_by_walk(F: Field) -> CheckOutcome:
    """`klein.verify_variety_equality` as set equality of the scanned zero
    set, `klein.variety_zero_set`, with the tangent images plus the pencil,
    by `_image_difference`. The witness is the least point of the symmetric
    difference."""
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


def char3_congruence_by_walk(F: Field) -> CheckOutcome:
    """`klein.char3_congruence_check` comparing the quadric section of D,
    `variety_qd_points`, with the tangent images plus the pencil by
    `_image_difference`. The witness is the first of these images skew to
    the line of nuclei, the tangents first in lexicographic order, then the
    pencil's."""
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    qd_points = variety_qd_points(F)
    extra, missing, n_images = _image_difference(qd_points, F)
    images = chain((y for _, (_, _, y) in tangents(F)), pencil_LZomega(F))
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


# --- the certifiers' finite branches on the list O = build_O(F) ---------------

def break_kappa(monkeypatch, u, change):
    """Monkeypatch `bwspread.kappa` so that the Klein image y at the
    parameter u comes out as change(y, F). Every walk here, the reguli
    check and `build_O` read it, so a walk and its route on O see the same
    broken tangent."""
    kappa = bwspread.kappa

    def broken(u1, u2, F):
        y = kappa(u1, u2, F)
        return change(y, F) if (u1 % F.p, u2 % F.p) == u else y

    monkeypatch.setattr(bwspread, "kappa", broken)


def _tangent_dict(F: Field, O: Sequence[Line]) -> Dict[Tuple, Line]:
    """parameter -> tangent, read off O: O[i] is the tangent at the i-th
    parameter in lexicographic order."""
    return dict(zip(((u1, u2) for u1 in F.elements() for u2 in F.elements()), O))


def partial_spread_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`bwspread.certify_partial_spread` over GF(p) on the list O: the
    generators' images compared with a dict of O's sextuples, the orbit
    found by a search that holds it, every tangent tested by `lines_skew`."""
    tangent = _tangent_dict(F, O)
    ginf = O[-1]
    tangents_meeting_ginf = sum(1 for l in tangent.values() if not lines_skew(l, ginf, F))
    n_lines = F.order**2 + 1
    counts = {
        "lines": n_lines,
        "pairs_checked": n_lines * (n_lines - 1) // 2,
        "tangents_meeting_directrix": tangents_meeting_ginf,
    }
    failure = _translation_failure_by_O(tangent, ginf, F)
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
            return CheckOutcome(passed=False, witness=(origin, u), counts=counts, note="route disagreement")
        if criterion_meets:
            meeting.append(u)
    counts["violations"] = F.order**2 * len(meeting) // 2
    return CheckOutcome(
        passed=not meeting and tangents_meeting_ginf == 0,
        witness=(origin, meeting[0]) if meeting else None,
        counts=counts,
    )


def _translation_failure_by_O(tangent: Dict[Tuple, Line], ginf: Line, F: Field):
    generators = [group_matrix(1, 0, 1, F), group_matrix(0, 1, 1, F)]
    kappa = {u: l.plucker for u, l in tangent.items()}
    for M in generators:
        abc = (M.a, M.b, M.c)
        compound = second_compound(M.entries, F)
        if det4(M.entries, F) == F.zero or compound_image(compound, ginf.plucker, F) != ginf.plucker:
            return "generator is singular or moves the directrix", (abc, None)
        for u, y in kappa.items():
            if compound_image(compound, y, F) != kappa.get(param_action(M, *u, F)):
                return "group action disagrees with param_action", (abc, u)
    orbit = {(F.zero, F.zero)}
    frontier = list(orbit)
    while frontier:
        u = frontier.pop()
        for M in generators:
            v = param_action(M, *u, F)
            if v not in orbit:
                orbit.add(v)
                frontier.append(v)
    missing = [u for u in tangent if u not in orbit]
    if missing:
        return "generator orbit of (0,0) misses parameters", missing[0]
    return None


def maximality_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`bwspread.certify_maximality` over GF(p), each point at infinity
    tested by `incidence` on its covering line read off O."""
    if F.characteristic == 3:
        return CheckOutcome(passed=None, note="the maximality argument inverts 3")
    tangent = _tangent_dict(F, O)
    third = F.inv(F.of(3))
    checked = 0
    for point in omega_points(F):
        _, x1, x2, x3 = point
        line = O[-1] if x1 == F.zero else tangent[mul(div(x2, x1, F), third, F), div(x3, x1, F)]
        if not incidence(point, line, F):
            return CheckOutcome(passed=False, witness=point)
        checked += 1
    return CheckOutcome(passed=True, counts={"omega_points": checked})


def dual_spread_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`bwspread.certify_dual_spread` over GF(p), d(O) = O certified by
    comparing the sets of O's sextuples and of their duals."""
    if {cayley.dual_plucker(l.plucker, F) for l in O} != {l.plucker for l in O}:
        return CheckOutcome(passed=False, note="the duality does not fix O, so planes cannot be counted as points")
    at_infinity = Counter(lines_of_O_through(x, F) for x in omega_points(F))
    histogram = _affine_histogram(F) + at_infinity
    exact_one = set(histogram) == {1}
    witness = None
    if not exact_one:
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


def duality_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`bwspread.certify_duality` over GF(p): each parameter's pair tested
    on canonical points and planes and on O's sextuples, with the partners,
    the duals of the surface points and the tangent planes held as sets."""
    tangent = _tangent_dict(F, O)
    ginf = O[-1]
    partners = set()
    surface = 0
    dual_images, tangent_planes = set(), set()
    for (u1, u2), l in tangent.items():
        v = v1, v2 = F.of(-u1), F.of(3 * u1 * u1 - u2)
        x, e = surface_point(u1, u2, F), tangent_plane(v1, v2, F)
        if cayley.duality(x, F) != e or cayley.dual_plucker(l.plucker, F) != tangent[v].plucker:
            return CheckOutcome(passed=False, witness=(u1, u2))
        partners.add(v)
        if f_value(x, F) == F.zero:
            surface += 1
            dual_images.add(e)
        if cayley.tangency_test(e, F):
            tangent_planes.add(e)
    for ab in canonical_tuples(2, F):
        x = (F.zero, F.zero) + ab
        if f_value(x, F) == F.zero:
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


def reguli_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`klein.reguli_check` with each regulus sliced out of O: the q
    tangents at (s, u2) are one run of O, plus the directrix O[-1]."""
    q = F.order
    counts = {"reguli": q, "lines_each": q + 1}
    for i, s in enumerate(F.elements()):
        ok, polar = verify_regulus([l.plucker for l in O[i * q : (i + 1) * q]] + [O[-1].plucker], F)
        if not (ok and rank(polar + [list(generator(1, s, F).plucker)], F) == 3):
            return CheckOutcome(passed=False, witness=s, counts=counts)
    return CheckOutcome(passed=True, counts=counts)


def variety_equality_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`klein.verify_variety_equality` comparing the zero set with the set
    of O's and the pencil's sextuples."""
    if F.characteristic == 3:
        raise WrongCharacteristic("the three-cone description needs characteristic != 3")
    zero_set = variety_zero_set(F)
    image = {l.plucker for l in O} | {l.plucker for l in pencil_lines(F)}
    equal = zero_set == image
    q = F.order
    return CheckOutcome(
        passed=equal and len(zero_set) == q * q + q + 1,
        witness=None if equal else sorted(zero_set.symmetric_difference(image))[0],
        counts={
            "zero_set_points": len(zero_set),
            "image_points": len(image),
            "expected": q * q + q + 1,
        },
    )


def char3_congruence_by_O(F: Field, O: Sequence[Line]) -> CheckOutcome:
    """`klein.char3_congruence_check` on the deduplicated union of O and
    the pencil, compared with the cone section as a set of sextuples."""
    if F.characteristic != 3:
        raise WrongCharacteristic("needs characteristic 3")
    union = dedup_lines(list(O) + pencil_lines(F))
    n_line = nuclei_line(F)
    skew = next((l for l in union if lines_skew(l, n_line, F)), None)
    qd_points = variety_qd_points(F)
    q = F.order
    return CheckOutcome(
        passed=skew is None and {l.plucker for l in union} == qd_points and len(qd_points) == q * q + q + 1,
        witness=skew.plucker if skew else None,
        counts={
            "congruence_lines": len(qd_points),
            "tangents_plus_pencil": len(union),
            "cone_section_points": len(qd_points),
            "expected": q * q + q + 1,
        },
    )


# --- the certifiers' rational branches in Fraction arithmetic -----------------

def partial_spread_by_fractions(seed: int) -> CheckOutcome:
    """`bwspread.certify_partial_spread` over Q: the same seeded pairs, the
    criterion on the Fractions themselves and Klein polarity by `lines_skew`
    on the tangents joined by `osculating_tangent`."""
    F = QQ
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


def maximality_by_fractions(seed: int) -> CheckOutcome:
    """`bwspread.certify_maximality` over Q: each seeded point at infinity
    tested by `incidence` on its covering line, found in Fraction arithmetic
    and joined by `osculating_tangent`."""
    F = QQ
    third = F.inv(F.of(3))
    ginf = g_infinity(F)

    def covering_line(point) -> Line:
        x0, x1, x2, x3 = point
        if x1 == F.zero:
            return ginf
        return osculating_tangent(mul(div(x2, x1, F), third, F), div(x3, x1, F), F)

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


def duality_by_fractions(seed: int) -> CheckOutcome:
    """The outcome of `bwspread.certify_duality` over Q: each seeded
    parameter's partner found in Fraction arithmetic, its canonical surface
    point, tangent plane and joined tangents compared."""
    F = QQ

    def pair_ok(u1, u2):
        v1, v2 = F.of(-u1), F.of(3 * u1 * u1 - u2)
        if cayley.duality(surface_point(u1, u2, F), F) != tangent_plane(v1, v2, F):
            return False
        image = cayley.dual_plucker(osculating_tangent(u1, u2, F).plucker, F)
        return image == osculating_tangent(v1, v2, F).plucker

    rng = random.Random(seed)
    for _ in range(SPOT_CHECKS):
        u1 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        u2 = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        if not pair_ok(u1, u2):
            return CheckOutcome(passed=False, witness=(u1, u2))
    return CheckOutcome(passed=True, counts={"parameter_pairs_sampled": SPOT_CHECKS})
