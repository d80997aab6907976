"""Child process of the benchmark: runs workload passes through bwcayley.cli.main.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``, one
fresh process per run, so ``ru_maxrss`` after the first pass is the
high-water mark of that pass. Prints one JSON object on its last stdout line.

    python3 perfbench/passes.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR --src SRC
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import judge, load_recorded, per_check_seconds  # noqa: E402
from probe import PROBE_NOMINAL_S, probe_s  # noqa: E402
from workloads import WORKLOADS, command_key, pass_seeds, with_seed  # noqa: E402

# A fresh interpreter times its own import of bwcayley.cli and parser, and
# rescales it by probes it runs right before and after (see SpeedProbe).
SETUP_CODE = """
import sys, time
sys.path.append({here!r})
from probe import PROBE_NOMINAL_S, probe_s
before = probe_s({repeat})
t0 = time.perf_counter()
import bwcayley.cli
bwcayley.cli.build_parser()
seconds = time.perf_counter() - t0
print(seconds * PROBE_NOMINAL_S / ((before + probe_s({repeat})) / 2))
"""
SETUP_SAMPLES = 20
PROBE_PERIOD_S = 0.05  # probe interval during a timed command
BRACKET_REPEAT = 5     # probe_work repeats right before and after a timed item


class SpeedProbe:
    """Times commands at a nominal machine speed.

    The machine speed drifts by up to ~1.8x within seconds, for every
    process alike. ``measure(fn)`` times ``probe.probe_work``, a fixed
    computation of the harness's own, right before and after ``fn`` and
    every PROBE_PERIOD_S during it from a SIGALRM handler. It returns the
    result of ``fn``, its raw wall and CPU seconds less the time the probe
    took inside it, and the wall seconds times PROBE_NOMINAL_S over the mean
    probe time: its time at the speed at which probe_work takes
    PROBE_NOMINAL_S.
    """

    def __init__(self):
        self.samples: List[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample(1))

    def _sample(self, repeat: int) -> None:
        self.samples.append(probe_s(repeat))

    def measure(self, fn):
        self.samples = []
        self._sample(BRACKET_REPEAT)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, 0)
        probed = sum(self.samples[1:])
        self._sample(BRACKET_REPEAT)
        scaled = (seconds - probed) * PROBE_NOMINAL_S / statistics.fmean(self.samples)
        return result, seconds - probed, cpu - probed, scaled


@dataclass
class PassResult:
    wall_s: float = 0.0    # raw
    scaled_s: float = 0.0  # rescaled, see SpeedProbe
    cpu_s: float = 0.0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_keys: set = field(default_factory=set)
    per_check_s: Dict[str, float] = field(default_factory=dict)  # rescaled
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # the process's high-water mark at the end of the pass


def run_pass(cli_main, commands, seed: int, out_path: Path, recorded: dict, probe=None) -> PassResult:
    """One pass over a command list; timing covers the CLI calls only.
    Without a probe, rescaled times are the raw ones."""
    result = PassResult()
    for argv in commands:
        if out_path.exists():
            out_path.unlink()
        sink = io.StringIO()
        full_argv = with_seed(argv, seed) + ["--out", str(out_path)]

        def call():
            with contextlib.redirect_stdout(sink):
                return cli_main(full_argv)

        if probe:
            code, secs, cpu, scaled = probe.measure(call)
        else:
            w0, c0 = time.perf_counter(), time.process_time()
            code = call()
            secs, cpu = time.perf_counter() - w0, time.process_time() - c0
            scaled = secs
        result.cpu_s += cpu
        result.wall_s += secs
        result.scaled_s += scaled
        text = out_path.read_text() if out_path.exists() else None
        key = command_key(argv, seed)
        result.attempted += 1
        problems, result.digests[key] = judge(key, code, text, recorded)
        if problems:
            result.failed_keys.add(key)
            result.problems.extend(problems)
        for name, check_s in per_check_seconds(text).items():
            result.per_check_s[name] = result.per_check_s.get(name, 0.0) + check_s * scaled / secs
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def setup_sample() -> float:
    """Rescaled import-and-parser time of a fresh interpreter, in seconds."""
    code = SETUP_CODE.format(here=str(Path(__file__).resolve().parent), repeat=BRACKET_REPEAT)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def untraced_passes(cli_main, commands, seed, seconds, out_path, recorded) -> List[PassResult]:
    """Repeat passes while the next one is expected to end within the budget.

    Pass i runs its commands at the i-th seed of ``pass_seeds(seed)``; every
    command is timed by one SpeedProbe.
    """
    passes: List[PassResult] = []
    durations: List[float] = []
    probe = SpeedProbe()
    start = time.perf_counter()
    for pass_seed in pass_seeds(seed):
        t0 = time.perf_counter()
        passes.append(run_pass(cli_main, commands, pass_seed, out_path, recorded, probe))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


@dataclass
class TracedPass:
    tracer: object
    result: PassResult
    sites: int
    restored: bool  # every patched site holds its original object again


def traced_pass(cli_main, commands, seed, out_path, recorded) -> TracedPass:
    """One pass with the tracer's TARGETS wrapped."""
    from tracer import Tracer

    with Tracer() as tracer:
        result = run_pass(cli_main, commands, seed, out_path, recorded)
        sites = tracer.patch_sites()
    restored = all(getattr(owner, key) is original for owner, key, original in sites)
    return TracedPass(tracer, result, len(sites), restored)


def calls_differ(first: dict, second: dict) -> List[str]:
    """``.calls`` counts that differ between two traced passes."""
    return [
        f"{name}: {n} calls in the first traced pass, {second[name]} in the second"
        for name, n in first.items()
        if name.endswith(".calls") and second[name] != n
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True, help="scratch directory for --out reports")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    args = ap.parse_args(argv)

    import bwcayley.cli

    src = Path(args.src).resolve()
    if src not in Path(bwcayley.cli.__file__).resolve().parents:
        sys.stderr.write(f"bwcayley imported from {bwcayley.cli.__file__}, not from {src}\n")
        return 2

    commands = WORKLOADS[args.workload]
    recorded = load_recorded()
    out_path = Path(args.workdir) / "report.json"
    cli_main = bwcayley.cli.main
    result: dict = {}

    if args.trace == 0:
        start = time.perf_counter()
        setup_sample()  # may compile bytecode into a fresh checkout; not counted
        # All set-up samples come before the passes: right after a pass, a
        # fresh interpreter's imports took up to twice as long, by an amount
        # that depended on the workload.
        result["setup_s"] = [setup_sample() for _ in range(SETUP_SAMPLES)]
        budget = args.seconds - (time.perf_counter() - start)
        passes = untraced_passes(cli_main, commands, args.seed, budget, out_path, recorded)
    else:
        from microbench import MicrobenchError, run_microbench

        # half the budget untraced, then two traced passes at the command
        # seed of the first untraced pass (their call counts must agree) and
        # the microbench
        passes = untraced_passes(cli_main, commands, args.seed, args.seconds / 2, out_path, recorded)
        seed = next(pass_seeds(args.seed))
        first, second = (traced_pass(cli_main, commands, seed, out_path, recorded) for _ in range(2))
        traced_metrics = first.tracer.metrics()
        result["trace"] = {
            "metrics": traced_metrics,
            "sizes": first.tracer.sizes,
            "size_errors": first.tracer.size_errors + second.tracer.size_errors,
            "wall_s": first.result.wall_s,
            "patched_sites": first.sites,
            "restored": first.restored and second.restored,
            "digests_match": first.result.digests == second.result.digests == passes[0].digests,
            "problems": first.result.problems + second.result.problems
            + calls_differ(traced_metrics, second.tracer.metrics()),
            "failed": len(first.result.failed_keys) + len(second.result.failed_keys),
            "attempted": first.result.attempted + second.result.attempted,
        }
        try:
            result["microbench"] = run_microbench()
        except MicrobenchError as exc:
            result["microbench"] = {}
            result["trace"]["problems"].append(str(exc))

    result.update(
        {
            "wall_s": [p.wall_s for p in passes],
            "scaled_s": [p.scaled_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "per_check_s": [p.per_check_s for p in passes],
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(len(p.failed_keys) for p in passes),
            "problems": [msg for p in passes for msg in p.problems],
            # later passes raise the mark by allocator growth that depends on
            # how many of them fit in the run, so only the first one counts
            "peak_rss_mb": passes[0].peak_rss_mb,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
