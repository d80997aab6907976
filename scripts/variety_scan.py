#!/usr/bin/env python3
"""PG(5,q) scan timings for the variety of the cone forms.

Walks every prime up to the bound (characteristic 3 excluded), finds the
common zero set of the quadric and the three cone forms by a scan of
PG(5,q) (`klein.variety_zero_set`), compares it point by point with the
Klein images of the tangent set, kappa(u) for every parameter u, plus the
pencil through the pinch point (`klein.pencil_LZomega`), and reports the
scan's size and wall-clock time. The `klein` command certifies the same
equality from identities over Z (`klein.verify_variety_equality`); this
scan is its independent replay. The scan is exhaustive without trying
every point: it solves each form for the coordinate that completes it, in
which the form is affine, so each prefix of coordinates has one candidate
extension (all q only where every slope is 0) and the scan visits O(q^2)
prefixes; `candidates` is the number of points of PG(5,q), which it
covers. Useful for judging how far the desk-scale scan reaches.
Exits 2 when a field fails, 1 when the bound leaves no field to scan.

Usage: python scripts/variety_scan.py [--max-p 13]
"""

import argparse
import sys
import time

from bwcayley.bwspread import kappa
from bwcayley.field import PrimeField, is_prime
from bwcayley.klein import pencil_LZomega, variety_zero_set


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=13)
    args = parser.parse_args(argv)

    primes = [p for p in range(2, args.max_p + 1) if is_prime(p) and p != 3]
    if not primes:
        sys.stderr.write(f"variety_scan: --max-p {args.max_p} leaves no prime other than 3 to scan\n")
        return 1
    print(f"{'q':>4} {'candidates':>12} {'zero set':>9} {'expected':>9} {'equal':>6} {'secs':>7}")
    failures = 0
    for p in primes:
        F = PrimeField(p)
        candidates = (p**6 - 1) // (p - 1)
        expected = p * p + p + 1
        t0 = time.perf_counter()
        zero_set = variety_zero_set(F)
        images = {kappa(u1, u2, F) for u1 in range(p) for u2 in range(p)} | set(pencil_LZomega(F))
        equal = zero_set == images and len(zero_set) == expected
        secs = time.perf_counter() - t0
        print(
            f"{p:>4} {candidates:>12} {len(zero_set):>9} "
            f"{expected:>9} {'yes' if equal else 'NO':>6} {secs:>7.2f}"
        )
        if not equal:
            failures += 1
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
