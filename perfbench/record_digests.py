#!/usr/bin/env python3
"""Record the canonical-JSON sha256 of every workload command into digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run once from a checkout of the code the digests should certify. Each
command runs twice at every pool seed; differing digests abort, since the gate needs
byte-stable reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import DIGESTS_PATH, sha256_canonical  # noqa: E402
from workloads import COMMAND_SEEDS, WORKLOADS, command_key, with_seed  # noqa: E402


def main() -> int:
    from bwcayley.cli import main as cli_main

    commands = {
        command_key(argv, seed): with_seed(argv, seed)
        for cmds in WORKLOADS.values()
        for argv in cmds
        for seed in range(COMMAND_SEEDS)
    }
    digests = {}
    scratch = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "report.json"
        for key, argv in sorted(commands.items()):
            seen = set()
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv + ["--out", str(out)])
                if code != 0:
                    sys.stderr.write(f"{key}: exit code {code}\n")
                    return 1
                seen.add(sha256_canonical(json.loads(out.read_text())))
            if len(seen) != 1:
                sys.stderr.write(f"{key}: canonical report differs between two runs\n")
                return 1
            digests[key] = seen.pop()
            print(f"{digests[key][:12]}  {key}")
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
