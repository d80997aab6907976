"""Exact Gaussian elimination over a field object.

Pivoting is deterministic (first nonzero column, smallest row index), so
reduced forms and nullspace bases are byte-stable across runs. Over GF(p)
the elimination runs in plain operators, reduced by `F.of`. Over the
rationals there is one integer core, `integer_kernel`: it reduces an
integer matrix modulo word-size primes, with each row packed into one int
of fixed-width slots, so that a row update is a single multiply-add of
ints; it lifts the free-column entries by Chinese remaindering and
rational reconstruction, forms the primitive integer kernel vectors from
them, and certifies in integers that every one annihilates every input
row. The reduced form is unique, so it equals the generic one value for
value. `rref` over Q is a Fraction view of that core: it scales the rows
to integers and divides the kernel vectors out, and `nullspace` reads
`rref`.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .field import Field, is_prime

# The largest primes below 2**31, in descending order: the moduli of the
# rational path, tried in this order. The first is also the modulus of the
# ideal probe's rank certificate (`idealprobe.vanishing_space`).
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
)
_ZERO, _ONE = Fraction(0), Fraction(1)


def rref(rows: Sequence[Sequence], F: Field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices).

    Over Q it is read off `integer_kernel` as Fractions: row i is 1 at pivot
    column i and -v[pivot]/v[f] at each free column f, v the kernel vector
    of f."""
    if F.is_finite:
        return _rref_generic(rows, F)
    ncols = len(rows[0]) if rows else 0
    pivots, vectors = integer_kernel(_integer_rows(rows), ncols)
    reduced = [[_ZERO] * ncols for _ in rows]
    for row, pc in zip(reduced, pivots):
        row[pc] = _ONE
    for fc, vec in zip(_free_columns(pivots, ncols), vectors):
        for row, pc in zip(reduced, pivots):
            if vec[pc]:
                row[fc] = Fraction(-vec[pc], vec[fc])
    return reduced, pivots


def _rref_generic(rows: Sequence[Sequence], F: Field) -> Tuple[List[List], List[int]]:
    """Gauss–Jordan in plain operators, each entry reduced once by `F.of`;
    the reference for the rational path."""
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
        m[r] = [F.of(inv * v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != F.zero:
                factor = m[i][c]
                m[i] = [F.of(v - factor * w) for v, w in zip(m[i], m[r])]
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
    """Gauss–Jordan of an integer matrix modulo the prime p, with the generic pivot rule.

    Each row is packed into one int of B-byte slots, slot j holding entry j
    as a non-negative int (Kronecker substitution), so a row update is one
    multiply-add on ints: row + f * neg, where neg packs (-top) mod p for
    the normalised pivot row top and f is the row's slot at the pivot
    column, reduced mod p. Slots are reduced mod p only when read: in the
    pivot search, when the pivot row is normalised and repacked, and when
    the r pivot rows are unpacked at the end; the rows after them are zero.

    No slot carries into the next. A slot starts below p and gains at most
    (p-1)^2 per update; a row gets at most one update per pivot, and there
    are at most n pivots for n columns. So a slot stays below
    p + n*(p-1)^2 < 2^(2*bits(p) + bits(n) + 1), and B bytes with
    8*B >= 2*bits(p) + bits(n) + 8 hold it; B is 10, 12 or 16 for `_slot_structs`.
    """
    ncols = len(ints[0])
    B = 8 + next(h for h in (2, 4, 8) if 64 + 8 * h >= 2 * p.bit_length() + ncols.bit_length() + 8)
    width = 8 * B
    mask = (1 << width) - 1

    def pack(values: List[int]) -> int:
        return int.from_bytes(_slot_structs(len(values), B)[0].pack(*values), "little")

    def unpack(row: int, count: int) -> List[int]:
        slots = iter(_slot_structs(count, B)[1].unpack(row.to_bytes(count * B, "little")))
        return [(low | high << 64) % p for low, high in zip(slots, slots)]

    rows = [pack([v % p for v in row]) for row in ints]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        shift = c * width
        for i in range(r, len(rows)):
            if (rows[i] >> shift & mask) % p:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        # every slot left of c is 0 mod p in the pivot row, so rows change from c on
        top = unpack(rows[r] >> shift, ncols - c)
        inv = pow(top[0], -1, p)
        top = [v * inv % p for v in top]
        rows[r] = pack(top) << shift
        neg = pack([-v % p for v in top]) << shift
        for i, row in enumerate(rows):
            f = (row >> shift & mask) % p
            if f and i != r:
                rows[i] = row + f * neg
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [unpack(row, ncols) for row in rows[:r]] + [[0] * ncols for _ in rows[r:]], pivots


@lru_cache(maxsize=None)
def _slot_structs(count: int, B: int) -> Tuple[struct.Struct, struct.Struct]:
    """Structs packing `count` residues (every modulus is below 2^31) into the
    low 4 bytes of B-byte slots, and reading each slot as its low 8 bytes and the rest."""
    high = {2: "H", 4: "I", 8: "Q"}[B - 8]
    return struct.Struct(f"<{count * f'I{B - 4}x'}"), struct.Struct(f"<{count * ('Q' + high)}")


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


def _kernel_vectors(table: List[List[Tuple[int, int]]], pivots: List[int], free: List[int], ncols: int) -> List[List[int]]:
    """The kernel vectors read off reduced rows, one per free column f: den
    at f and -n*(den//d) at each pivot column whose reduced row holds n/d at
    f, den the lcm of those d, so the vector is the rational one (1 at f)
    times den. Row i of `table` holds the reduced entries of pivot row i at
    the free columns, as coprime pairs (n, d) with d > 0. Each vector is
    primitive: for each prime dividing den, some d holds its whole power in
    den, and neither n, prime to that d, nor den//d is a multiple of it."""
    vectors = []
    for j, fc in enumerate(free):
        column = [(pc, table[i][j]) for i, pc in enumerate(pivots) if table[i][j][0]]
        den = lcm(*(d for _, (_, d) in column))
        vec = [0] * ncols
        vec[fc] = den
        for pc, (n, d) in column:
            vec[pc] = -n * (den // d)
        vectors.append(vec)
    return vectors


def _kernel_vanishes(ints: List[List[int]], vectors: List[List[int]]) -> bool:
    """Whether every vector has a zero dot product with every integer row.

    Each vector's products are formed column by column, one column of the
    matrix times each nonzero entry of the vector, and summed row by row, so
    zero entries cost nothing: the ideal probe's degree-3 kernel vectors
    have 2 to 5 nonzero entries of 56 (60 samples, seed 0).
    """
    columns = list(zip(*ints))
    for vec in vectors:
        terms = [map(mul, columns[c], repeat(x)) for c, x in enumerate(vec) if x]
        if any(map(sum, zip(*terms))):
            return False
    return True


def integer_kernel(ints: List[List[int]], ncols: int) -> Tuple[List[int], List[List[int]]]:
    """The pivot columns over Q of an integer matrix with ncols columns, and
    its kernel basis as primitive int vectors, one per free column in
    column order (`_kernel_vectors`), with the generic pivot rule.

    The matrix is reduced modulo each prime of `_moduli()` in turn. A prime
    never raises the rank and never moves a pivot left, so the best pivot
    list seen (the highest rank, then the lexicographically smallest) is
    kept, and the free-column entries of the primes that give it are
    combined by Chinese remaindering. After each such prime the entries are
    reconstructed as fractions and the kernel vectors formed from them are
    certified by `_kernel_vanishes`; a failure moves on to the next prime.

    The certificate is complete. The n - rank_p certified vectors are
    independent and lie in the rational kernel, whose dimension is at most
    n - rank_p; so the ranks agree and the vectors span the kernel. Each
    vector's last nonzero entry sits at its own free column, so those are
    the free columns over Q, and the kernel basis with the identity there is
    unique: divided by its free-column entry, each vector is the one read
    off the reduced form over Q.
    """
    if not ints:
        return [], [[int(c == f) for c in range(ncols)] for f in range(ncols)]
    primes = _moduli()
    best: Optional[List[int]] = None
    while True:
        p = next(primes)
        m, pivots = _rref_mod(ints, p)
        free = _free_columns(pivots, ncols)
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
        vectors = _kernel_vectors([entries[i * f : (i + 1) * f] for i in range(len(pivots))], pivots, free, ncols)
        if _kernel_vanishes(ints, vectors):
            return pivots, vectors


def _integer_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    """Each rational row times the lcm of its denominators, which leaves its
    span, and so the reduced form and the kernel, unchanged."""
    ints = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (den // v.denominator) for v in row])
    return ints


def _free_columns(pivots: List[int], ncols: int) -> List[int]:
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def nullspace(rows: Sequence[Sequence], ncols: int, F: Field) -> List[List]:
    """Basis of {x : A x = 0}, one vector per free column, in column order,
    each 1 at its free column, read off `rref` (over Q its `Fraction` view
    of `integer_kernel`)."""
    reduced, pivots = rref(rows, F)
    basis = []
    for fc in _free_columns(pivots, ncols):
        vec = [F.zero] * ncols
        vec[fc] = F.one
        for r, pc in enumerate(pivots):
            vec[pc] = F.of(-reduced[r][fc])
        basis.append(vec)
    return basis

