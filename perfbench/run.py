#!/usr/bin/env python3
"""bwcayley benchmark: one run of one workload, checked against recorded digests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is used from ``src/`` of that
checkout; nothing needs building. With ``--trace 0`` the last stdout line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics (see
README.md). Scratch files go to ``.bench_build/perfbench`` in the checkout.
Exit code 2 means the run could not be made; a wrong result still prints a
line, with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170


def per_layer_metrics(child: dict, names: list) -> dict:
    trace = child["trace"]
    values = dict(trace["metrics"])
    values.update(child["microbench"])
    for name in {n for p in child["per_check_s"] for n in p}:
        values[f"check.{name}_s"] = statistics.median(p.get(name, 0.0) for p in child["per_check_s"])
    wall = statistics.median(child["wall_s"])
    values["process.cpu_s"] = statistics.median(child["cpu_s"])
    values["trace.overhead_ratio"] = trace["wall_s"] / wall
    return {n: values.get(n, 0.0) for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "bwcayley" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no bwcayley sources under {root}\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    scratch_dir = root / ".bench_build" / "perfbench"
    scratch_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    try:
        workdir = tempfile.mkdtemp(dir=scratch_dir)
        try:
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "passes.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", workdir, "--src", str(src),
                ],
                env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return 2
    child = json.loads(lines[-1])

    problems = list(child["problems"])
    attempted, failed = child["attempted"], child["failed"]

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(child["scaled_s"]),
            "setup_s": statistics.median(child["setup_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(json.dumps({
            "passes": len(child["wall_s"]),
            "raw_pass_s_median": statistics.median(child["wall_s"]),
            "raw_pass_s_fastest": min(child["wall_s"]),
        }))
    else:
        trace = child["trace"]
        attempted += trace["attempted"]
        failed += trace["failed"]
        problems += trace["problems"] + trace["size_errors"]
        if not trace["restored"]:
            problems.append("a wrapped bwcayley attribute was not restored")
        if not trace["digests_match"]:
            problems.append("traced and untraced passes give different canonical digests")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer_metrics(child, list(units))
        print(json.dumps({"closed_form_sizes": trace["sizes"], "patched_sites": trace["patched_sites"]}))

    for msg in problems:
        print(f"problem: {msg}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
