"""Layer microbench on fixed inputs; every result is consumed and checked.

Each timing is the median of several repetitions. The reference values are
computed outside the timed region by independent formulas, so a faster but
wrong layer fails the run instead of reporting a gain.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from itertools import permutations
from typing import Callable, Dict, Tuple

from bwcayley.field import PrimeField, Rationals
from bwcayley.idealprobe import monomial_exponents, monomial_row, sample_kappa_O
from bwcayley.linalg import rref
from bwcayley.projspace import canonicalize, det4, plucker, primitive_int_vector

P = 19
REPEATS = 5


class MicrobenchError(Exception):
    """A layer returned a wrong result on a microbench input."""


def _median_time(fn: Callable[[], object], repeats: int = REPEATS) -> Tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise MicrobenchError(f"microbench result wrong: {what}")


def _sign(perm) -> int:
    sign, seen = 1, list(perm)
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


def _leibniz_det(m, p: int) -> int:
    total = 0
    for perm in permutations(range(4)):
        term = _sign(perm)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total % p


def _normalised(vec, p: int) -> Tuple[int, ...]:
    lead = next(v for v in vec if v % p)
    inv = pow(lead, -1, p)
    return tuple(v * inv % p for v in vec)


def gf_mul_ns(rng: random.Random) -> float:
    F = PrimeField(P)
    pairs = [(rng.randrange(P), rng.randrange(P)) for _ in range(20000)]
    want = sum(a * b % P for a, b in pairs)
    mul = F.mul
    secs, got = _median_time(lambda: sum(mul(a, b) for a, b in pairs))
    _expect(got == want, "GF(p) products")
    return secs / len(pairs) * 1e9


def qq_mul_ns(rng: random.Random) -> float:
    F = Rationals()
    pairs = [
        (Fraction(rng.randint(-999, 999), rng.randint(1, 999)), Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
        for _ in range(5000)
    ]
    want = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs]
    mul = F.mul
    secs, got = _median_time(lambda: [mul(a, b) for a, b in pairs])
    _expect(all(g * d == n for g, (n, d) in zip(got, want)), "rational products")
    return secs / len(pairs) * 1e9


def det4_us(rng: random.Random) -> float:
    F = PrimeField(P)
    mats = [[[rng.randrange(P) for _ in range(4)] for _ in range(4)] for _ in range(500)]
    want = [_leibniz_det(m, P) for m in mats]
    secs, got = _median_time(lambda: [det4(m, F) for m in mats])
    _expect(got == want, "4x4 determinants")
    return secs / len(mats) * 1e6


def canonicalize_us(rng: random.Random) -> float:
    F = PrimeField(P)
    vecs = []
    while len(vecs) < 2000:
        v = tuple(rng.randrange(P) for _ in range(4))
        if any(v):
            vecs.append(v)
    want = [_normalised(v, P) for v in vecs]
    secs, got = _median_time(lambda: [canonicalize(v, F) for v in vecs])
    _expect(got == want, "canonical tuples")
    return secs / len(vecs) * 1e6


def plucker_us(rng: random.Random) -> float:
    F = PrimeField(P)
    pairs = []
    while len(pairs) < 2000:
        p = tuple(rng.randrange(P) for _ in range(4))
        q = tuple(rng.randrange(P) for _ in range(4))
        y = tuple((p[i] * q[j] - p[j] * q[i]) % P for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        if any(y):
            pairs.append((p, q, _normalised(y, P)))
    secs, got = _median_time(lambda: [plucker(p, q, F) for p, q, _ in pairs])
    _expect(got == [y for _, _, y in pairs], "Plücker sextuples")
    return secs / len(pairs) * 1e6


def rref_qq_ms() -> float:
    """rref of the degree-3, 60-sample evaluation matrix of the ideal probe."""
    QQ = Rationals()
    exps = monomial_exponents(3)
    matrix = [monomial_row(exps, primitive_int_vector(pt)) for pt in sample_kappa_O(60, 0)]
    secs, (reduced, pivots) = _median_time(lambda: rref(matrix, QQ), repeats=3)
    # rank 34: the vanishing space of the cubics has dimension 56 - 34 = 22
    _expect(len(pivots) == 34, f"rank {len(pivots)} of the degree-3 evaluation matrix")
    for r, c in enumerate(pivots):
        _expect(all(reduced[i][c] == (1 if i == r else 0) for i in range(len(reduced))), "pivot columns")
    _expect(all(v == 0 for row in reduced[len(pivots):] for v in row), "zero rows")
    # every input row is the combination of the reduced rows its pivot entries name
    for row in matrix:
        combo = [sum(row[c] * reduced[r][k] for r, c in enumerate(pivots)) for k in range(len(row))]
        _expect(combo == row, "row space of the evaluation matrix")
    return secs * 1e3


def run_microbench() -> Dict[str, float]:
    rng = random.Random(20130401)
    return {
        "field.gf_mul_ns": gf_mul_ns(rng),
        "field.qq_mul_ns": qq_mul_ns(rng),
        "projspace.det4_us": det4_us(rng),
        "projspace.canonicalize_us": canonicalize_us(rng),
        "projspace.plucker_us": plucker_us(rng),
        "linalg.rref_qq_ms": rref_qq_ms(),
    }
