"""scripts/variety_scan.py: one row per prime, and an empty panel is a usage error."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "variety_scan.py"


def script_main(argv):
    spec = importlib.util.spec_from_file_location("variety_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def test_scan_up_to_seven(capsys):
    assert script_main(["--max-p", "7"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["2", "5", "7"]  # characteristic 3 is left out
    assert all(row[4] == "yes" for row in rows)


def test_no_prime_is_a_usage_error(capsys):
    assert script_main(["--max-p", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("variety_scan: ") and out.err.count("\n") == 1
