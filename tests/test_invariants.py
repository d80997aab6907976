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
    """The records are plain classes: importing
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
    "verify_regulus": _TRACED,
    "NotARegulus": _TRACED,  # only verify_regulus raises it
    "nullspace": _TRACED,  # only verify_regulus calls it
    "skew_criterion": _TRACED,
    "SamePoint": _TRACED,  # only skew_criterion raises it
}


def _local_names(scope) -> set:
    """The names a function, lambda or comprehension binds for itself:
    its parameters and every name stored, defined or caught inside it."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        names |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not scope:
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class _Bindings:
    """What the names of one file stand for: a package module ("module", m)
    or a top-level name of one ("name", (m, n)). `from .x import y` and
    `from bwcayley.x import y` bind (x, y), `from . import x` binds module
    x, `import bwcayley.x` binds the package ("module", ""), and inside a
    package module its own top-level names stand for themselves."""

    def __init__(self, tree, module, defined):
        self.module, self.defined = module, defined
        self.names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    home = node.module or ""
                elif (node.module or "").startswith("bwcayley."):
                    home = node.module[len("bwcayley."):]
                else:
                    continue
                for alias in node.names:
                    target = ("module", alias.name) if home == "" else ("name", (home, alias.name))
                    self.names[alias.asname or alias.name] = target
            elif isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "bwcayley" and not alias.asname for alias in node.names):
                    self.names["bwcayley"] = ("module", "")

    def resolve(self, node, local):
        """What a Name or an Attribute chain refers to, or None."""
        if isinstance(node, ast.Name):
            if node.id in local:
                return None
            if node.id in self.names:
                return self.names[node.id]
            if node.id in self.defined.get(self.module, ()):
                return ("name", (self.module, node.id))
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, local)
            if base is None or base[0] != "module":
                return None
            return ("module", node.attr) if base[1] == "" else ("name", (base[1], node.attr))
        return None


def _references(tree, bindings, skip):
    """The (module, name) pairs each top-level statement of a file loads,
    minus its own name and minus the statements named in `skip`."""
    found = set()

    def visit(node, local, own):
        if isinstance(node, _SCOPES):
            local = local | _local_names(node)
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            target = bindings.resolve(node, local)
            if target is not None and target[0] == "name" and target[1] != own:
                found.add(target[1])
        for child in ast.iter_child_nodes(node):
            visit(child, local, own)

    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        if own in skip:
            continue
        visit(stmt, frozenset(), (bindings.module, own))
    return found


def test_every_name_is_reached():
    """Every top-level function and class of src/bwcayley is referenced from
    src/, scripts/ or perfbench/ outside its own definition, except the
    PENDING names; a reference made only from pending code does not count.
    A reference is a binding, not a spelling: `from .x import y`,
    `module.attr` and a module's own top-level names resolve to the module
    that defines the name, and a local variable of the same name is no
    reference.
    """
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    defined = {
        path.stem: {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for path, tree in trees.items()
        if path.parent == PACKAGE and path.stem != "__init__"
    }
    referenced = set()
    for path, tree in trees.items():
        module = path.stem if path.parent == PACKAGE and path.stem != "__init__" else None
        referenced |= _references(tree, _Bindings(tree, module, defined), PENDING)
    pairs = {(module, name) for module, names in defined.items() for name in names}
    unreached = sorted(f"{m}.{n}" for m, n in pairs - referenced if n not in PENDING)
    assert unreached == [], f"no check, script or benchmark reaches {unreached}"
    gone = sorted(set(PENDING) - {n for _, n in pairs})
    assert gone == [], f"PENDING names {gone} no longer exist"
    wired = sorted(f"{m}.{n}" for m, n in referenced & pairs if n in PENDING)
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
