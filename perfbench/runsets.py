#!/usr/bin/env python3
"""Run sets of the benchmark: collect them, check their spread, compare two.

    python3 perfbench/runsets.py collect DIR [--runs 10] [--first-seed 1] [--workloads a,b] [--trace 0]
    python3 perfbench/runsets.py spread DIR
    python3 perfbench/runsets.py compare PARENT_DIR CHANGE_DIR

``collect`` runs ``perfbench/run.py`` of the checkout it lives in, one run
at a time, and stores each run's result line as DIR/<workload>/seed<N>.json.
``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and the interquartile distance as a share of the median, next to
the metric's bound. ``compare`` pairs runs of two sets by workload and seed
(collect both with the same seeds, alternating which side runs first) and
prints one row per workload and end-to-end metric with a verdict:

* improved   -- the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile distance;
* worse      -- the change's median is worse than the parent's by more than
  the metric's bound;
* no worse   -- otherwise, when the parent's spread is within the bound or
  every change run beats every parent run;
* unresolved -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def end_to_end() -> Dict[str, dict]:
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(run_dir: Path) -> Dict[str, Dict[int, dict]]:
    """{workload: {seed: result}} from a collected run set."""
    sets: Dict[str, Dict[int, dict]] = {}
    for path in sorted(run_dir.glob("*/seed*.json")):
        sets.setdefault(path.parent.name, {})[int(path.stem[4:])] = json.loads(path.read_text())
    return sets


def collect(args) -> int:
    spec = load_spec()
    metrics = end_to_end()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    status = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            out = Path(args.dir) / workload / f"seed{seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result) + "\n")
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in metrics)
            print(f"{workload:<15} seed {seed:<4} correct={result['correct']} {values or ''}", flush=True)
            if not result["correct"]:
                status = 1
    return status


def spread(args) -> int:
    worst = 0.0
    metrics = end_to_end()
    print(f"{'workload':<15} {'metric':<12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, runs in load(Path(args.dir)).items():
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < spec["bound"] / 3 else "  <-- above a third of the bound"
            worst = max(worst, share / spec["bound"])
            print(f"{workload:<15} {name:<12} {len(values):>3} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} {share:>7.3f} {spec['bound']:>6}{flag}")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


def verdict(parent: List[float], change: List[float], pairs, spec: dict):
    """(share of pairs the change won, verdict) for one metric."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    won = sum(1 for p, c in pairs if sign * (p - c) > 0) / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (p_med - c_med)
    if won >= 0.9 and gain > p_q3 - p_q1:
        return won, "improved"
    if -gain > spec["bound"] * abs(p_med):
        return won, "worse"
    if (p_q3 - p_q1) <= spec["bound"] * abs(p_med) or all(sign * (p - c) > 0 for p in parent for c in change):
        return won, "no worse"
    return won, "unresolved"


def compare(args) -> int:
    parent_sets, change_sets = load(Path(args.parent)), load(Path(args.change))
    metrics = end_to_end()
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'won':>5}  verdict")
    for workload in sorted(set(parent_sets) & set(change_sets)):
        p_runs, c_runs = parent_sets[workload], change_sets[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for name, spec in metrics.items():
            value = lambda r: r["metrics"][name]["value"]
            parent = [value(r) for r in p_runs.values()]
            change = [value(r) for r in c_runs.values()]
            won, word = verdict(parent, change, [(value(p_runs[s]), value(c_runs[s])) for s in seeds], spec)
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:<15} {name:<12} {fmt(quartiles(parent)):>36} {fmt(quartiles(change)):>36} {won:>5.2f}  {word}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect", help="run the benchmark and store result lines")
    p.add_argument("dir")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=collect)
    p = sub.add_parser("spread", help="quartile spread of each end-to-end metric")
    p.add_argument("dir")
    p.set_defaults(fn=spread)
    p = sub.add_parser("compare", help="parent run set against change run set")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
