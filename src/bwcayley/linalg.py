"""Exact Gaussian elimination over a field object.

Pivoting is deterministic (first nonzero column, smallest row index), so
reduced forms and nullspace bases are byte-stable across runs. Over the
rationals the elimination runs in integers (fraction-free, Bareiss 1968);
the reduced form is unique, so it equals the generic one value for value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .field import Field


def rref(rows: Sequence[Sequence], F: Field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices)."""
    if F.is_finite:
        return _rref_generic(rows, F)
    return _rref_rational(rows)


def _rref_generic(rows: Sequence[Sequence], F: Field) -> Tuple[List[List], List[int]]:
    """Gauss–Jordan through the field's operations; the reference for the rational path."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != F.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != F.zero:
                factor = m[i][c]
                m[i] = [F.sub(v, F.mul(factor, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [[F.zero] * ncols for _ in range(len(m) - r)], pivots


def _rref_rational(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Fraction-free Gauss–Jordan over Q, with the generic pivot rule.

    Rows are scaled to integers (which leaves the reduced form unchanged).
    Eliminating with pivot p after previous pivot p_prev replaces each other
    row by (p*row - row[c]*pivot_row) / p_prev; every entry stays a minor of
    the scaled matrix, so the division is exact. At the end every pivot
    entry equals the last pivot, and dividing by it gives the reduced rows.
    """
    m = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (den // v.denominator) for v in row])
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
            elif p != prev:
                m[i] = [p * v // prev for v in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    reduced = [[Fraction(v, prev) for v in row] for row in m[:r]]
    return reduced + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def rank(rows: Sequence[Sequence], F: Field) -> int:
    return len(rref(rows, F)[1])


def nullspace(rows: Sequence[Sequence], ncols: int, F: Field) -> List[List]:
    """Basis of {x : A x = 0}, one vector per free column, in column order."""
    reduced, pivots = rref(rows, F)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [F.zero] * ncols
        vec[fc] = F.one
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(reduced[r][fc])
        basis.append(vec)
    return basis


def same_span(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence], F: Field) -> bool:
    """Whether two row sets span the same subspace (by rref comparison)."""
    ra, _ = rref(rows_a, F)
    rb, _ = rref(rows_b, F)
    ra = [r for r in ra if any(v != F.zero for v in r)]
    rb = [r for r in rb if any(v != F.zero for v in r)]
    return ra == rb
