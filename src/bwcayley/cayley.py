"""The ruled cubic surface V(X0*X1*X2 - X1^3 - X0^2*X3) in PG(3,K).

Covers membership, the singular structure along the line at infinity, tangent
planes, the generator family, line-surface intersection multiplicities, the
triangular automorphism group, and the classical point/tangent-plane duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .field import Element, Field, PrimeField
from .projspace import (
    GeometryError,
    KleinPoint,
    Line,
    ProjPlane,
    ProjPoint,
    canonicalize,
    line_through,
)


class ZeroParameters(GeometryError):
    pass


class ZeroScale(GeometryError):
    pass


def f_value(x: Sequence, F: Field):
    """The cubic form X0*X1*X2 - X1^3 - X0^2*X3 on the canonical representative."""
    x0, x1, x2, x3 = canonicalize(x, F)
    mul, sub = F.mul, F.sub
    return sub(sub(mul(mul(x0, x1), x2), mul(mul(x1, x1), x1)), mul(mul(x0, x0), x3))


def gradient(x: Sequence, F: Field) -> Tuple:
    """The four partial derivatives of the cubic form, evaluated at x."""
    x0, x1, x2, x3 = canonicalize(x, F)
    mul, sub = F.mul, F.sub
    two = F.of(2)
    three = F.of(3)
    return (
        sub(mul(x1, x2), mul(two, mul(x0, x3))),
        sub(mul(x0, x2), mul(three, mul(x1, x1))),
        mul(x0, x1),
        F.neg(mul(x0, x0)),
    )


def surface_point(u1, u2, F: Field) -> ProjPoint:
    """Affine chart of the surface: (1, u1, u2, u1*u2 - u1^3)."""
    u1, u2 = F.of(u1), F.of(u2)
    return (F.one, u1, u2, F.sub(F.mul(u1, u2), F.mul(F.mul(u1, u1), u1)))


def z_point(F: Field) -> ProjPoint:
    """The pinch point (0,0,0,1)."""
    return (F.zero, F.zero, F.zero, F.one)


def g_infinity(F: Field) -> Line:
    """The double line V(X0,X1), directrix of the surface."""
    return line_through((F.zero, F.zero, F.one, F.zero), z_point(F), F)


def nuclei_line(F: Field) -> Line:
    """The line V(X0,X2); in characteristic 3 it carries the nuclei."""
    return line_through((F.zero, F.one, F.zero, F.zero), z_point(F), F)


class PointClass(Enum):
    SIMPLE_ON_F = "SimpleOnF"
    DOUBLE_ON_G_INF = "DoubleOnGInf"
    PINCH_POINT_Z = "PinchPointZ"
    NUCLEUS = "Nucleus"
    OFF_SURFACE = "OffSurface"


def classify_point(x: Sequence, F: Field) -> PointClass:
    """Classify a point by surface membership and vanishing of the gradient.

    Nuclei (off the surface with vanishing gradient) exist only in
    characteristic 3, where they fill V(X0,X2) minus the pinch point.
    """
    x = canonicalize(x, F)
    on_surface = f_value(x, F) == F.zero
    singular = all(v == F.zero for v in gradient(x, F))
    if on_surface:
        if not singular:
            return PointClass.SIMPLE_ON_F
        if x == z_point(F):
            return PointClass.PINCH_POINT_Z
        return PointClass.DOUBLE_ON_G_INF
    return PointClass.NUCLEUS if singular else PointClass.OFF_SURFACE


def tangent_plane(u1, u2, F: Field) -> ProjPlane:
    """Tangent plane at the affine surface point with parameters (u1, u2)."""
    u1, u2 = F.of(u1), F.of(u2)
    mul, sub = F.mul, F.sub
    u1sq = mul(u1, u1)
    coeffs = (
        sub(mul(F.of(2), mul(u1sq, u1)), mul(u1, u2)),
        sub(u2, mul(F.of(3), u1sq)),
        u1,
        F.neg(F.one),
    )
    return canonicalize(coeffs, F)


def generator(s0, s1, F: Field) -> Line:
    """The generator line spanned by (s0^2, s0*s1, s1^2, 0) and (0, 0, s0, s1)."""
    s0, s1 = F.of(s0), F.of(s1)
    if s0 == F.zero and s1 == F.zero:
        raise ZeroParameters("generator parameters must not both vanish")
    mul = F.mul
    p = (mul(s0, s0), mul(s0, s1), mul(s1, s1), F.zero)
    q = (F.zero, F.zero, s0, s1)
    return line_through(p, q, F)


# --- line-surface intersection -------------------------------------------

def _binary_mul(a: List, b: List, F: Field) -> List:
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == F.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return out


def restrict_cubic(l: Line, F: Field) -> List:
    """Coefficients [c0..c3] of f(lam*p + mu*q) = sum c_j lam^(3-j) mu^j."""
    lin = [[pi, qi] for pi, qi in zip(l.p, l.q)]
    t1 = _binary_mul(_binary_mul(lin[0], lin[1], F), lin[2], F)
    t2 = _binary_mul(_binary_mul(lin[1], lin[1], F), lin[1], F)
    t3 = _binary_mul(_binary_mul(lin[0], lin[0], F), lin[3], F)
    return [F.sub(F.sub(a, b), c) for a, b, c in zip(t1, t2, t3)]


def _poly_eval(coeffs: List, x, F: Field):
    acc = F.zero
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _synthetic_divide(coeffs: List, r, F: Field) -> List:
    """Divide a polynomial (ascending coefficients) by (X - r); remainder must be 0."""
    n = len(coeffs) - 1
    out = [F.zero] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = F.add(coeffs[k], F.mul(r, carry))
    if carry != F.zero:
        raise GeometryError("synthetic division left a remainder")
    return out


def _divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(coeffs: List, F: Field) -> List[Tuple]:
    """K-rational roots with multiplicities of a univariate polynomial.

    Over GF(p) by exhaustive evaluation; over the rationals by the rational
    root theorem on the denominator-cleared polynomial.
    """
    work = list(coeffs)
    while len(work) > 1 and work[-1] == F.zero:
        work.pop()
    if len(work) <= 1:
        return []
    roots = []
    if isinstance(F, PrimeField):
        for r in F.elements():
            mult = 0
            probe = work
            while len(probe) > 1 and _poly_eval(probe, r, F) == F.zero:
                probe = _synthetic_divide(probe, r, F)
                mult += 1
            if mult:
                roots.append((r, mult))
        return roots
    # rationals: peel off zero roots, then try n/d with n | constant, d | leading
    if work[0] == F.zero:
        mult = 0
        while len(work) > 1 and work[0] == F.zero:
            work = work[1:]
            mult += 1
        roots.append((F.zero, mult))
    if len(work) <= 1:
        return roots
    scale = lcm(*(Fraction(c).denominator for c in work))
    ints = [int(Fraction(c) * scale) for c in work]
    for num_div in _divisors(ints[0]):
        for den_div in _divisors(ints[-1]):
            for sign in (1, -1):
                r = Fraction(sign * num_div, den_div)
                mult = 0
                probe = work
                while len(probe) > 1 and _poly_eval(probe, r, F) == F.zero:
                    probe = _synthetic_divide(probe, r, F)
                    mult += 1
                if mult:
                    roots.append((r, mult))
                    work = probe
    return roots


@dataclass(frozen=True)
class IntersectionProfile:
    """Result of meeting a line with the surface.

    Either the line is contained in the surface, or it meets it in K-rational
    points whose multiplicities (from the restricted binary cubic) sum to at
    most 3.
    """

    contained: bool
    points: Tuple[Tuple[ProjPoint, int], ...] = ()


def intersect_line_surface(l: Line, F: Field) -> IntersectionProfile:
    """Restrict the cubic form to the line and extract K-rational roots."""
    coeffs = restrict_cubic(l, F)
    if all(c == F.zero for c in coeffs):
        return IntersectionProfile(contained=True)
    hits = []
    # degree drop of c(1, mu) gives the multiplicity of the point q itself
    deg = max(j for j, c in enumerate(coeffs) if c != F.zero)
    if deg < 3:
        hits.append((l.q, 3 - deg))
    for r, mult in _rational_roots(coeffs, F):
        point = canonicalize([F.add(pi, F.mul(r, qi)) for pi, qi in zip(l.p, l.q)], F)
        hits.append((point, mult))
    hits.sort(key=lambda h: h[0])
    return IntersectionProfile(contained=False, points=tuple(hits))


# --- the automorphism group ----------------------------------------------

@dataclass(frozen=True)
class GMatrix:
    """Triangular automorphism M_{a,b,c} of the surface (c nonzero)."""

    a: Element
    b: Element
    c: Element
    entries: Tuple[Tuple, ...]


def group_matrix(a, b, c, F: Field) -> GMatrix:
    a, b, c = F.of(a), F.of(b), F.of(c)
    if c == F.zero:
        raise ZeroScale("matrix scale parameter c must be nonzero")
    mul = F.mul
    c2, c3 = mul(c, c), mul(mul(c, c), c)
    entries = (
        (F.one, F.zero, F.zero, F.zero),
        (a, c, F.zero, F.zero),
        (b, mul(F.of(3), mul(a, c)), c2, F.zero),
        (F.sub(mul(a, b), mul(mul(a, a), a)), mul(b, c), mul(a, c2), c3),
    )
    return GMatrix(a=a, b=b, c=c, entries=entries)


def group_apply(M: GMatrix, x: Sequence, F: Field) -> ProjPoint:
    x = canonicalize(x, F)
    out = []
    for row in M.entries:
        acc = F.zero
        for mij, xj in zip(row, x):
            acc = F.add(acc, F.mul(mij, xj))
        out.append(acc)
    return canonicalize(out, F)


def param_action(M: GMatrix, u1, u2, F: Field) -> Tuple:
    """Action of M_{a,b,c} on the affine chart: (u1, u2) -> (a + c*u1, b + 3ac*u1 + c^2*u2)."""
    u1, u2 = F.of(u1), F.of(u2)
    mul = F.mul
    v1 = F.add(M.a, mul(M.c, u1))
    v2 = F.add(F.add(M.b, mul(F.of(3), mul(M.a, mul(M.c, u1)))), mul(mul(M.c, M.c), u2))
    return v1, v2


# --- duality ---------------------------------------------------------------

def duality(x: Sequence, F: Field) -> ProjPlane:
    """The coordinate-reversing duality (x0,x1,x2,x3) -> plane [x3,x2,x1,x0]."""
    x = canonicalize(x, F)
    return canonicalize((x[3], x[2], x[1], x[0]), F)


def tangency_test(e: Sequence, F: Field) -> bool:
    """Whether a plane is tangent to the surface: a1*a2*a3 - a2^3 - a0*a3^2 = 0."""
    a0, a1, a2, a3 = canonicalize(e, F)
    mul, sub = F.mul, F.sub
    val = sub(sub(mul(mul(a1, a2), a3), mul(mul(a2, a2), a2)), mul(a0, mul(a3, a3)))
    return val == F.zero


def dual_plucker(y: Sequence, F: Field) -> KleinPoint:
    """Klein image of the dual of the line with Klein image y.

    The duality sends the points p, q of a line to the planes reversed(p),
    reversed(q), whose common line has the canonical Plücker sextuple
    (y01, -y02, y12, y03, -y13, y23).
    """
    y01, y02, y03, y12, y13, y23 = y
    return canonicalize((y01, F.neg(y02), y12, y03, F.neg(y13), y23), F)
