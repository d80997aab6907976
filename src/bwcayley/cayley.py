"""The ruled cubic surface V(X0*X1*X2 - X1^3 - X0^2*X3) in PG(3,K).

Covers membership, the surface points and tangent planes of the affine chart,
the restricted binary cubic f(lam*p + mu*q) on the line through two points, and
the classical point/tangent-plane duality. The directrix V(X0,X1) and the line
V(X0,X2) of the nuclei are read by their equations and their closed-form Klein
images (`bwspread.DIRECTRIX_IMAGE`, `bwspread.NUCLEI_IMAGE`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .field import Field
from .projspace import GeometryError, KleinPoint, ProjPlane, canonicalize


def cubic_form(x: Sequence):
    """The surface's form X0*X1*X2 - X1^3 - X0^2*X3, in plain operators,
    unreduced."""
    x0, x1, x2, x3 = x
    return x0 * x1 * x2 - x1 * x1 * x1 - x0 * x0 * x3


def plane_form(e: Sequence):
    """The tangency form a1*a2*a3 - a2^3 - a0*a3^2 of a plane's coefficients,
    in plain operators, unreduced: `cubic_form` of the reversed tuple."""
    a0, a1, a2, a3 = e
    return a1 * a2 * a3 - a2 * a2 * a2 - a0 * a3 * a3


def surface_point_coefficients(a: int, b: int, c: int, d: int) -> Tuple[int, ...]:
    """Coordinates of the affine surface point with parameters u1 = a/b and
    u2 = c/d, for ints a, c and positive ints b, d, reduced or not:
    (1, u1, u2, u1*u2 - u1^3) scaled by b^3*d, (b^3*d, a*b^2*d, c*b^3,
    a*c*b^2 - a^3*d), unreduced. The first entry is never 0. At b = d = 1
    they are (1, u1, u2, u1*u2 - u1^3)."""
    bb = b * b
    return (bb * b * d, a * bb * d, c * bb * b, a * c * bb - a * a * a * d)


def tangent_plane_coefficients(a: int, b: int, c: int, d: int) -> Tuple[int, ...]:
    """Coefficients of the tangent plane at the affine surface point with
    parameters u1 = a/b and u2 = c/d, for ints a, c and positive ints b, d:
    [2u1^3 - u1*u2, u2 - 3u1^2, u1, -1] scaled by b^3*d so they are ints,
    unreduced. The last entry, -b^3*d, is never 0; at b = d = 1 it is -1."""
    bb = b * b
    return (2 * a * a * a * d - a * c * bb, c * bb * b - 3 * a * a * b * d, a * bb * d, -bb * b * d)


# --- the restricted cubic ------------------------------------------------

def _binary_mul(a: List, b: List) -> List:
    """Product of two binary forms given by coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def restrict_cubic(p: Sequence, q: Sequence, F: Field) -> List:
    """Coefficients [c0..c3] of f(lam*p + mu*q) = sum c_j lam^(3-j) mu^j
    for two points p and q, in plain operators, each reduced once by `F.of`."""
    lin = [[pi, qi] for pi, qi in zip(p, q)]
    t1 = _binary_mul(_binary_mul(lin[0], lin[1]), lin[2])
    t2 = _binary_mul(_binary_mul(lin[1], lin[1]), lin[1])
    t3 = _binary_mul(_binary_mul(lin[0], lin[0]), lin[3])
    return [F.of(a - b - c) for a, b, c in zip(t1, t2, t3)]


# --- duality ---------------------------------------------------------------

def duality(x: Sequence, F: Field) -> ProjPlane:
    """The coordinate-reversing duality (x0,x1,x2,x3) -> plane [x3,x2,x1,x0]."""
    return canonicalize((x[3], x[2], x[1], x[0]), F)


def tangency_test(e: Sequence, F: Field) -> bool:
    """Whether a plane is tangent to the surface: its `plane_form` is 0, on
    any representative (the form is homogeneous), reduced once by `F.of`;
    the zero vector raises."""
    val = F.of(plane_form(e))
    if val == F.zero and not any(map(F.of, e)):
        raise GeometryError("zero vector has no projective class")
    return val == F.zero


def dual_sextuple(y: Sequence) -> Tuple:
    """Plücker sextuple of the dual of the line with sextuple y.

    The duality sends the points p, q of a line to the planes reversed(p),
    reversed(q), whose common line has the Plücker sextuple
    (y01, -y02, y12, y03, -y13, y23), in plain operators and unreduced.
    """
    y01, y02, y03, y12, y13, y23 = y
    return (y01, -y02, y12, y03, -y13, y23)


def dual_plucker(y: Sequence, F: Field) -> KleinPoint:
    """Klein image of the dual of the line with Klein image y:
    `dual_sextuple` reduced once by `canonicalize`."""
    return canonicalize(dual_sextuple(y), F)
