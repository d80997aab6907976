"""Points, planes and lines of PG(3,K); Plücker coordinates; enumeration.

Homogeneous coordinate tuples are always kept in canonical form, which makes
them unique, hashable keys. Over GF(p) the first nonzero coordinate is
scaled to 1. Over Q the canonical form is the primitive integer vector: the
class's integer tuple with gcd 1 and its first nonzero entry positive, so
arithmetic on canonical tuples runs on Python ints (an int and the Fraction
of equal value are equal and hash alike, so keys mix freely).
Points are column 4-tuples, planes are coefficient row 4-tuples, and Plücker
sextuples use the coordinate order (y01, y02, y03, y12, y13, y23) with
y_ij = p_i*q_j - p_j*q_i.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import mul as int_mul
from typing import Iterator, List, Sequence, Tuple

from .field import Field, InfiniteField

Vector = Tuple            # canonical homogeneous tuple, any length
ProjPoint = Tuple         # 4-tuple
ProjPlane = Tuple         # 4-tuple of plane coefficients
KleinPoint = Tuple        # 6-tuple


class GeometryError(Exception):
    pass


class CoincidentPoints(GeometryError):
    """Two supposedly distinct projective points coincide."""


def canonicalize(vec: Sequence, F: Field) -> Vector:
    """The canonical representative of a homogeneous tuple's class.

    Over GF(p) it is `F.canonical(vec)`: int entries may be unreduced or
    negative and are taken mod p, any other entry (a Fraction, whose
    denominator must be prime to p) is coerced by `F.of`, and the tuple is
    scaled so its first nonzero coordinate is 1. Over Q it is
    `primitive_int_vector(vec)`. The zero vector raises GeometryError.
    """
    out = F.canonical(vec) if F.is_finite else primitive_int_vector(vec)
    if out is None:
        raise GeometryError("zero vector has no projective class")
    return out


def primitive_int_vector(vec: Sequence) -> Tuple[int, ...]:
    """The canonical form over Q of a rational homogeneous tuple.

    Entries are ints or Fractions. The result is the integer tuple of the
    same projective class with gcd 1 and its first nonzero entry positive,
    computed from numerators and denominators in integer arithmetic: clear
    the lcm of the denominators, then divide by the signed content. The zero
    vector raises GeometryError.
    """
    denom = lcm(*(v.denominator for v in vec))
    if denom == 1:  # integer entries, as every product of canonical tuples has
        ints = [v.numerator for v in vec]
    else:
        ints = [v.numerator * (denom // v.denominator) for v in vec]
    content = gcd(*ints)
    if content == 0:
        raise GeometryError("zero vector has no projective class")
    for v in ints:
        if v:
            if v < 0:
                content = -content
            break
    if content == 1:
        return tuple(ints)
    return tuple(v // content for v in ints)


def plucker_minors(p: Sequence, q: Sequence) -> Tuple:
    """The six minors y_ij = p_i*q_j - p_j*q_i of two points, in plain
    operators and unreduced."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q1 - p1 * q0,
        p0 * q2 - p2 * q0,
        p0 * q3 - p3 * q0,
        p1 * q2 - p2 * q1,
        p1 * q3 - p3 * q1,
        p2 * q3 - p3 * q2,
    )


def plucker(p: Sequence, q: Sequence, F: Field) -> KleinPoint:
    """Canonical Plücker sextuple of the line joining two distinct points:
    `plucker_minors` reduced once by `canonicalize`."""
    try:
        return canonicalize(plucker_minors(p, q), F)
    except GeometryError:  # every minor vanishes
        raise CoincidentPoints(f"points {p} and {q} span no line") from None


def is_int_multiple(z: Sequence, y: Sequence, k: int = 0) -> bool:
    """Whether the int tuple z is a nonzero rational multiple of the int
    tuple y, cross-multiplied on the pivot entry k: z_k and y_k are not 0
    and z_i*y_k = z_k*y_i for every i. Neither tuple is reduced or scaled.
    A multiple with z_k = 0 reads False, so k must be an entry that is
    nonzero on every multiple the caller expects."""
    zk, yk = z[k], y[k]
    return zk != 0 and yk != 0 and all(zi * yk == zk * yi for zi, yi in zip(z, y))


def quadric_value(y: Sequence, F: Field):
    """The Klein quadric form y01*y23 - y02*y13 + y03*y12, in plain
    operators, reduced once by `F.of`."""
    return F.of(y[0] * y[5] - y[1] * y[4] + y[2] * y[3])


def gram_apply(v: Sequence, F: Field) -> Tuple:
    """Apply the Gram matrix of the quadric's polarization to a sextuple.

    The matrix swaps (Y01,Y23) and (Y03,Y12) and swaps (Y02,Y13) with a sign,
    and is its own inverse. The row gram_apply(y) vanishes exactly on the
    sextuples of lines meeting the line y. In plain operators, each entry
    reduced once by `F.of`.
    """
    return tuple(map(F.of, (v[5], -v[4], v[3], v[2], -v[1], v[0])))


def polar_pairing(y: Sequence, z: Sequence):
    """Bilinear polarization of the quadric form on two sextuples, in plain
    operators, unreduced."""
    return y[0] * z[5] + y[5] * z[0] + y[2] * z[3] + y[3] * z[2] - y[1] * z[4] - y[4] * z[1]


def quadric_polarization(y: Sequence, z: Sequence, F: Field):
    """`polar_pairing` reduced once by `F.of`."""
    return F.of(polar_pairing(y, z))


class Line:
    """A line of PG(3,K): an ordered spanning pair plus its Plücker sextuple.

    Immutable. Equality and hashing use only the canonical Plücker
    coordinates, so lines built from different spanning pairs compare equal.
    """

    __slots__ = ("p", "q", "plucker")

    def __init__(self, p: ProjPoint, q: ProjPoint, plucker: KleinPoint):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "plucker", plucker)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Line is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return isinstance(other, Line) and self.plucker == other.plucker

    def __hash__(self) -> int:
        return hash(self.plucker)

    def __repr__(self) -> str:
        return f"Line(plucker={self.plucker})"


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det4(m, F: Field):
    """Determinant of a 4x4 matrix by cofactor expansion along the first row,
    in plain operators, reduced once by `F.of`."""
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [[row[k] for k in range(4) if k != j] for row in m[1:]]
            total += (-a if j % 2 else a) * _det3(minor)
    return F.of(total)


def lines_skew(l1: Line, l2: Line, F: Field) -> bool:
    """Skewness by Klein polarity: two lines meet exactly when their Plücker
    sextuples are conjugate under the quadric's polarization, in every
    characteristic (the polarization is the determinant of the four
    spanning points, up to sign)."""
    return quadric_polarization(l1.plucker, l2.plucker, F) != F.zero


def incidence(x: Sequence, l: Line, F: Field) -> bool:
    """Whether the point lies on the line."""
    x = canonicalize(x, F)
    if x == l.p:
        return True
    return plucker(l.p, x, F) == l.plucker


def line_in_plane(l: Line, e: Sequence, F: Field) -> bool:
    return all(F.of(sum(map(int_mul, x, e))) == F.zero for x in (l.p, l.q))


def canonical_tuples(length: int, F: Field) -> Iterator[Vector]:
    """All canonical homogeneous tuples, in lexicographic coordinate order."""
    if not F.is_finite:
        raise InfiniteField("enumeration needs a finite field")
    elems = list(F.elements())
    for lead in range(length - 1, -1, -1):
        prefix = (F.zero,) * lead + (F.one,)
        for tail in product(elems, repeat=length - 1 - lead):
            yield prefix + tail


def enumerate_points(F: Field) -> List[ProjPoint]:
    return list(canonical_tuples(4, F))


def enumerate_planes(F: Field) -> List[ProjPlane]:
    return list(canonical_tuples(4, F))


def enumerate_lines(F: Field) -> List[Line]:
    """All (q²+1)(q²+q+1) lines of PG(3,q), deduplicated, stable order."""
    points = enumerate_points(F)
    lines: List[Line] = []
    seen = set()
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            y = plucker(p, q, F)
            if y not in seen:
                seen.add(y)
                lines.append(Line(p=p, q=q, plucker=y))
    return lines
