"""Machine-speed probe: a fixed computation of the benchmark's own.

It imports nothing but built-in modules, so a fresh interpreter can time it
before it imports bwcayley without taking any of bwcayley's imports out of
the set-up time it measures next.
"""

import gc
import time

# Time of probe_work on the tuning machine (2 vCPUs, CPython 3.11.7) in its
# fast phase; rescaled times are in seconds at that speed.
PROBE_NOMINAL_S = 0.001

_P = 19
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MODULUS = 2**127 - 1


def _inputs():
    # a fixed linear congruential sequence; ``random`` would be an import
    state = 1304

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % n

    points = []
    while len(points) < 280:
        p = tuple(draw(_P) for _ in range(4))
        q = tuple(draw(_P) for _ in range(4))
        if any((p[i] * q[j] - p[j] * q[i]) % _P for i, j in _PAIRS):
            points.append((p, q))
    ints = [draw(2**61) + 1 for _ in range(420)]
    return points, ints


_POINTS, _INTS = _inputs()


def probe_work() -> tuple:
    """Canonical Plücker-style sextuples mod 19 and a big-integer fold: the
    tuple, small-int and multi-word integer work the program is made of."""
    lines = set()
    for p, q in _POINTS:
        y = [(p[i] * q[j] - p[j] * q[i]) % _P for i, j in _PAIRS]
        inv = pow(next(v for v in y if v), -1, _P)
        lines.add(tuple(v * inv % _P for v in y))
    acc = 1
    for a in _INTS:
        acc = (acc * a + a * a) % _MODULUS
    return len(lines), acc


def probe_s(repeat: int) -> float:
    """Seconds per probe_work, over ``repeat`` calls. The collector stays
    off, so garbage the program left behind cannot land a collection inside
    the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(repeat):
            probe_work()
        return (time.perf_counter() - t0) / repeat
    finally:
        if enabled:
            gc.enable()
