"""Call counts and self time for public bwcayley functions, wrapped from outside.

The tracer replaces each target function with a wrapper in every
``bwcayley`` module that bound it (``from .projspace import canonicalize``
binds a second name for the same object), and puts every original back on
exit. Nothing inside the package is edited.

Self time of a call is its duration minus the durations of the traced calls
it made directly; a span stack holds the child time of each open call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# (module, attribute) pairs; "Report.full_json" is a method of a class.
TARGETS: List[Tuple[str, str]] = [
    ("projspace", "enumerate_points"),
    ("projspace", "enumerate_planes"),
    ("projspace", "enumerate_lines"),
    ("projspace", "line_in_plane"),
    ("projspace", "lines_skew"),
    ("projspace", "incidence"),
    ("projspace", "plucker"),
    ("projspace", "canonicalize"),
    ("bwspread", "build_O"),
    ("bwspread", "osculating_tangent"),
    ("bwspread", "skew_criterion"),
    ("bwspread", "verify_regulus"),
    ("cayley", "duality"),
    ("cayley", "tangency_test"),
    ("klein", "variety_zero_set"),
    ("klein", "pencil_LZomega"),
    ("linalg", "rref"),
    ("idealprobe", "vanishing_space"),
    ("idealprobe", "form_value"),
    ("field", "cube_roots"),
    ("field", "parse_field_spec"),
    ("reports", "Report.full_json"),
]


def metric_prefix(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    hits: int = 0      # truthy results, or result sizes for set-valued scans
    attempts: int = 0  # denominators of the hit ratios


class SpanStack:
    """Online self-time accounting over nested spans.

    ``enter`` opens a span; ``leave`` closes the innermost one and charges
    its duration, less the time of its direct children, to ``stat``. The
    clock is injectable so the arithmetic can be tested on a synthetic tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._child = [0.0]  # root sentinel collects top-level time

    def enter(self) -> float:
        self._child.append(0.0)
        return self.clock()

    def leave(self, start: float, stat: Stat) -> None:
        duration = self.clock() - start
        child = self._child.pop()
        stat.calls += 1
        stat.self_s += duration - child
        self._child[-1] += duration

    @property
    def depth(self) -> int:
        return len(self._child) - 1


# targets whose results _observe inspects
_OBSERVED = frozenset({
    "projspace.enumerate_points",
    "projspace.enumerate_planes",
    "projspace.enumerate_lines",
    "projspace.line_in_plane",
    "projspace.lines_skew",
    "bwspread.build_O",
    "klein.variety_zero_set",
})


def _closed_form_sizes(q: int) -> Dict[str, int]:
    return {
        "points": q**3 + q**2 + q + 1,
        "lines": (q**2 + 1) * (q**2 + q + 1),
        "pg5_points": (q**6 - 1) // (q - 1),
        "O_lines": q**2 + 1,
    }


class Tracer:
    """Context manager that patches TARGETS and collects one Stat per target.

    Size checks: every list returned by an enumeration or by ``build_O`` must
    have its closed-form length for that field; a mismatch is recorded in
    ``size_errors``.
    """

    def __init__(self):
        self.spans = SpanStack()
        self.stats: Dict[str, Stat] = {metric_prefix(m, a): Stat() for m, a in TARGETS}
        self.sizes: Dict[str, Dict[str, int]] = {}
        self.size_errors: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- result inspection ---------------------------------------------------

    def _field_sizes(self, F) -> Dict[str, int]:
        return self.sizes.setdefault(f"gf{F.order}", _closed_form_sizes(F.order))

    def _expect_size(self, F, kind: str, got: int) -> None:
        want = self._field_sizes(F)[kind]
        if got != want:
            self.size_errors.append(f"{kind} over gf:{F.order}: {got} != {want}")

    def _observe(self, name: str, stat: Stat, args, result) -> None:
        if name in ("projspace.enumerate_points", "projspace.enumerate_planes"):
            self._expect_size(args[0], "points", len(result))
        elif name == "projspace.enumerate_lines":
            self._expect_size(args[0], "lines", len(result))
        elif name == "bwspread.build_O":
            self._expect_size(args[0], "O_lines", len(result))
        elif name == "projspace.line_in_plane":
            stat.attempts += 1
            stat.hits += bool(result)
        elif name == "projspace.lines_skew":
            stat.attempts += 1
            stat.hits += not result  # the lines meet
        elif name == "klein.variety_zero_set":
            stat.attempts += self._field_sizes(args[0])["pg5_points"]
            stat.hits += len(result)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        spans = self.spans
        observe = self._observe
        inspect = name in _OBSERVED

        def traced(*args, **kwargs):
            start = spans.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.leave(start, stat)
            if inspect:
                observe(name, stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = {n: m for n, m in sys.modules.items() if n == "bwcayley" or n.startswith("bwcayley.")}
        for mod_name, attr in TARGETS:
            name = metric_prefix(mod_name, attr)
            owner_name, _, func_name = attr.rpartition(".")
            home = modules[f"bwcayley.{mod_name}"]
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[func_name]
                self._patch(owner, func_name, original, self._wrap(name, original))
                continue
            original = getattr(home, func_name)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def patch_sites(self) -> List[Tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patched)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        ratio = lambda st: st.hits / st.attempts if st.attempts else 0.0
        out["projspace.line_in_plane.hit_ratio"] = ratio(self.stats["projspace.line_in_plane"])
        out["projspace.lines_skew.meet_ratio"] = ratio(self.stats["projspace.lines_skew"])
        out["klein.variety_zero_set.hit_ratio"] = ratio(self.stats["klein.variety_zero_set"])
        return out
