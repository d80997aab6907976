"""Exact Gaussian elimination over a field object.

Pivoting is deterministic (first nonzero column, smallest row index), so
reduced forms and nullspace bases are byte-stable across runs. Over GF(p)
the elimination runs through the field's operations. Over the rationals it
runs modulo word-size primes: the reduced form is lifted by Chinese
remaindering and rational reconstruction, then certified by checking in
integers that every lifted kernel vector annihilates every input row. The
reduced form is unique, so it equals the generic one value for value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

from .field import Field, is_prime

# The largest primes below 2**31, in descending order: the moduli of the
# rational path, tried in this order (one suffices for the ideal probe).
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
)
_ZERO, _ONE = Fraction(0), Fraction(1)


def rref(rows: Sequence[Sequence], F: Field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices)."""
    if F.is_finite:
        return _rref_generic(rows, F)
    return _rref_modular(rows)


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


def _moduli() -> Iterator[int]:
    """PRIMES, then every smaller prime in descending order."""
    yield from PRIMES
    n = PRIMES[-1] - 2
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _rref_mod(ints: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    """Gauss–Jordan of an integer matrix modulo the prime p, with the generic pivot rule."""
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


def _reconstruct(a: int, modulus: int, bound: int) -> Optional[Tuple[int, int]]:
    """The fraction n/d, as the coprime pair (n, d) with d > 0, such that
    |n|, d <= bound and n = a*d mod modulus; None if there is none.

    Extended Euclid on (modulus, a), stopped at the first remainder within
    the bound (Wang's rational reconstruction). With bound = isqrt(modulus//2)
    such a fraction is unique when it exists.
    """
    r0, r1, t0, t1 = modulus, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_vanishes(ints: List[List[int]], table: List[List[Tuple[int, int]]], pivots: List[int], free: List[int]) -> bool:
    """Whether, for each free column, the kernel vector read off the reduced
    rows (1 at that column, minus the reduced entries at the pivot columns)
    has a zero dot product with every integer input row. Row i of `table`
    holds the reduced entries of pivot row i at the free columns, as pairs."""
    for j, fc in enumerate(free):
        column = [(pc, table[i][j]) for i, pc in enumerate(pivots) if table[i][j][0]]
        den = lcm(*(d for _, (_, d) in column))
        vec = [(pc, -n * (den // d)) for pc, (n, d) in column]
        vec.append((fc, den))
        if any(sum(row[c] * x for c, x in vec) for row in ints):
            return False
    return True


def _rref_modular(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss–Jordan over Q through word-size primes, with the generic pivot rule.

    Rows are scaled to integers, which leaves the reduced form unchanged, and
    reduced modulo each prime of `_moduli()` in turn. A prime never raises
    the rank and never moves a pivot left, so the best pivot list seen (the
    highest rank, then the lexicographically smallest) is kept, and the
    free-column entries of the primes that give it are combined by Chinese
    remaindering. After each such prime the entries are reconstructed as
    fractions and certified by `_kernel_vanishes`; a failure moves on to the
    next prime.

    The certificate is complete. The n - rank_p certified vectors are
    independent and lie in the rational kernel, whose dimension is at most
    n - rank_p; so the ranks agree and the vectors span the kernel. Each
    vector's last nonzero entry sits at its own free column, so those are
    the free columns over Q, and the kernel basis with the identity there is
    unique: the result is the reduced form over Q.
    """
    ints = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (den // v.denominator) for v in row])
    if not ints:
        return [], []
    ncols = len(ints[0])
    primes = _moduli()
    best: Optional[List[int]] = None
    while True:
        p = next(primes)
        m, pivots = _rref_mod(ints, p)
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        residues = [row[c] for row in m[: len(pivots)] for c in free]
        if best is None or len(pivots) > len(best) or (len(pivots) == len(best) and pivots < best):
            best, modulus, values = pivots, p, residues
        elif pivots != best:
            continue
        else:
            k = pow(modulus, -1, p)
            values = [a + modulus * ((b - a) * k % p) for a, b in zip(values, residues)]
            modulus *= p
        bound = isqrt(modulus // 2)
        entries = [_reconstruct(a, modulus, bound) for a in values]
        if any(x is None for x in entries):
            continue
        f = len(free)
        table = [entries[i * f : (i + 1) * f] for i in range(len(pivots))]
        if not _kernel_vanishes(ints, table, pivots, free):
            continue
        reduced = [[_ZERO] * ncols for _ in ints]
        for row, pc, lifted in zip(reduced, pivots, table):
            row[pc] = _ONE
            for c, (n, d) in zip(free, lifted):
                if n:
                    row[c] = Fraction(n, d)
        return reduced, pivots


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
