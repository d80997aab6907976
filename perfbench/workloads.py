"""The four benchmark workloads: lists of bwcayley CLI argument vectors.

Each workload is one pass over its command list. Every command gets a
``--seed`` from a pool of COMMAND_SEEDS seeds, whose canonical reports are
all recorded in digests.json. Why each workload exists is in README.md.
"""

import itertools
from typing import Dict, Iterator, List

COMMAND_SEEDS = 16  # command seeds 0 .. COMMAND_SEEDS-1

WORKLOADS: Dict[str, List[List[str]]] = {
    # O(q^5) plane x line scan of certify_dual_spread dominates; one
    # SpreadAndCovering field and one NotPartialSpread field.
    "certify-large": [
        ["certify", "--field", "gf:11"],
        ["certify", "--field", "gf:13"],
    ],
    # reguli (enumerate_lines + brute-force transversals) is ~99% of the
    # time; the PG(5,q) scan is the second part. gf:11 is left out: one pass
    # takes 13-19 s, too long to repeat within a run (see README.md).
    "klein-scan": [
        ["klein", "--field", "gf:7"],
    ],
    # Fraction arithmetic and exact rref over Q, no enumeration.
    "ideal-rational": [
        ["ideal", "--degree", "2", "--samples", "60"],
        ["ideal", "--degree", "3", "--samples", "60"],
        ["certify", "--field", "q"],
    ],
    # Tiny scans, so per-report fixed costs dominate; the shape of
    # scripts/certify_all.py and of the test suite. Only workload with char3.
    "battery-small": [
        ["certify", "--field", "gf:2"],
        ["certify", "--field", "gf:3"],
        ["certify", "--field", "gf:5"],
        ["certify", "--field", "gf:7"],
        ["certify", "--field", "q"],
        ["klein", "--field", "gf:5"],
        ["char3", "--field", "gf:3"],
        ["ideal", "--degree", "2"],
    ],
}


def with_seed(argv: List[str], seed: int) -> List[str]:
    return argv + ["--seed", str(seed)]


def command_key(argv: List[str], seed: int) -> str:
    """Stable name of a command at a seed, used to look up its recorded digest."""
    return " ".join(with_seed(argv, seed))


def pass_seeds(seed: int) -> Iterator[int]:
    """Command seeds of successive passes of a run: the pool in order,
    starting at the benchmark seed.

    The ideal probe's cost depends on its seed's samples, so a run that goes
    through the pool has a median that depends little on which benchmark
    seed it got. Reports depend on the seed in places (a rational spot check
    that draws the same pair twice counts one check fewer), so every pool
    seed has digests of its own.
    """
    return (s % COMMAND_SEEDS for s in itertools.count(seed))
