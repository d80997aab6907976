#!/usr/bin/env python3
"""Run the full certification battery over the standard field panel.

Prints one row per field with the regime and every check's verdict, and
optionally writes the JSON reports into a directory. Exits 2 when a check
differs from its regime's prediction, 1 on a bad field spec, 3 when a check
ends in an internal error, 0 otherwise.

Usage: python scripts/certify_all.py [--out-dir reports/] [--fields gf:2,gf:3,...]
"""

import argparse
import sys
import time
from pathlib import Path

from bwcayley.cli import CheckError, certify_report
from bwcayley.field import FieldError, parse_field_spec

DEFAULT_FIELDS = ["gf:2", "gf:3", "gf:5", "gf:7", "gf:11", "gf:13", "q"]
VERDICTS = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fields", default=",".join(DEFAULT_FIELDS))
    parser.add_argument("--out-dir", help="also write one JSON report per field")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    specs = [f.strip() for f in args.fields.split(",") if f.strip()]
    try:
        fields = [(spec, parse_field_spec(spec)) for spec in specs]
    except FieldError as exc:
        sys.stderr.write(f"certify_all: {exc}\n")
        return 1
    header = f"{'field':<8} {'regime':<28} {'partial':<8} {'cover':<8} {'maximal':<8} {'dual':<8} {'duality':<8} {'secs':>6}"
    print(header)
    print("-" * len(header))
    worst = 0
    for spec, F in fields:
        t0 = time.perf_counter()
        try:
            report = certify_report(F, args.seed)
        except CheckError as exc:
            sys.stderr.write(f"certify_all: {exc}\n")
            return 3
        secs = time.perf_counter() - t0
        verdicts = " ".join(f"{VERDICTS[c.status]:<8}" for c in report.checks)
        print(f"{spec:<8} {report.regime:<28} {verdicts} {secs:>6.2f}")
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"certify_{spec.replace(':', '_')}.json").write_text(report.full_json() + "\n")
        if report.mismatches():
            worst = 2
    return worst


if __name__ == "__main__":
    sys.exit(main())
