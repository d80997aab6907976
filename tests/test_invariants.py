"""Library invariants are explicit checks, so `python -O` still runs them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "bwcayley"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _reexports(tree):
    """The names a module lists in its __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - _reexports(tree))
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    """The records are NamedTuples and plain classes: importing
    `dataclasses` would load `inspect` and its closure into every CLI
    process."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


def test_cli_import_closure():
    """A fresh interpreter that imports the CLI and builds its parser loads
    every bwcayley module (no import is deferred into a subcommand) and
    neither `dataclasses` nor `inspect`."""
    code = "import sys, bwcayley.cli; bwcayley.cli.build_parser(); print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    package = {"bwcayley"} | {f"bwcayley.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert len(package) == 10 and sorted(package - loaded) == []
    assert sorted({"dataclasses", "inspect"} & loaded) == []


_FIELD_RECEIVERS = {"F", "self", "QQ", "field.QQ"}
_FIELD_METHODS = {"add", "sub", "neg", "div", "mul"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_field_arithmetic_methods(path):
    """Formulas are written in plain operators and reduced by `F.of`: no
    module reaches add, sub, neg, div or mul on a field, called or aliased."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in _FIELD_METHODS
        and ast.unparse(node.value) in _FIELD_RECEIVERS
    ]
    assert found == [], f"{path.name} uses field arithmetic methods: {found}"


ROOT = Path(__file__).parents[1]

# Library names that no check, script or benchmark reaches yet, each kept for
# the ROADMAP item that will wire it in. Wiring a name or deleting it means
# removing it here too; the test below fails until that is done.
_BETTEN = "ROADMAP: wire it in or delete it, the betten subcommand"
_OSCULATION = "ROADMAP: wire it in or delete it, the betten subcommand's osculation check"
_TRACED = "ROADMAP: benchmark refresh, retarget the traced targets that read 0"
PENDING = {
    "betten_chart": _BETTEN,
    "betten_collineation": _BETTEN,
    "Char3Unsupported": _BETTEN,
    "restrict_cubic": _OSCULATION,
    "_binary_mul": _OSCULATION,
    "lines_skew": _TRACED,
    "osculating_tangent": _TRACED,
    "line_in_plane": _TRACED,
    "enumerate_planes": _TRACED,
    "enumerate_lines": _TRACED,
    "enumerate_points": _TRACED,
    "form_value": _TRACED,
    "build_O": _TRACED,
    "tangency_test": _TRACED,
    "incidence": _TRACED,
    "Line": _TRACED,  # only the other traced names build or read it
}


def test_every_name_is_reached():
    """Every top-level function and class of src/bwcayley is referenced from
    src/, scripts/ or perfbench/ outside its own definition, except the
    PENDING names; a reference made only from pending code does not count.
    """
    defined = set()
    referenced = set()
    for directory in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path.parent == PACKAGE:
                defined.update(
                    node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                )
            for stmt in tree.body:
                own = getattr(stmt, "name", None)
                if own in PENDING:
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        referenced.add(name)
    unreached = sorted(defined - referenced - set(PENDING))
    assert unreached == [], f"no check, script or benchmark reaches {unreached}"
    gone = sorted(set(PENDING) - defined)
    assert gone == [], f"PENDING names {gone} no longer exist"
    wired = sorted(set(PENDING) & referenced)
    assert wired == [], f"PENDING names {wired} are reached now"


_LINE_LAYER = {"Line", "line_through", "incidence"}


def test_no_live_code_references_the_line_layer():
    """Outside the PENDING names no top-level function or class of
    src/bwcayley references `Line`, `line_through` or `incidence`: the
    checks read the lines they need (the tangents, the directrix, the line
    of nuclei) as closed-form Klein images and the points on a line by its
    equations, so none builds a `Line` or tests a point on one.
    """
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or own in PENDING:
                continue
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            hits = sorted(names & _LINE_LAYER - {own})
            if hits:
                found.append(f"{path.name}:{own or stmt.lineno} references {hits}")
    assert found == [], f"live code references the line layer: {found}"
