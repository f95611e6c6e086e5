"""Source hygiene: no module of the package or of the tests imports a
name it never uses, and every function, method and class the package
defines is referenced somewhere in the repository."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gkg").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# Where a reference to a package definition may live.
REFERRING = PACKAGE + [
    path for folder in ("tests", "gkgbench", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))
]


def imported_names(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, plus the names ``__all__`` exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def referenced_names(tree):
    """Every name the module reads, every attribute it looks up and every
    name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]


def test_every_package_definition_is_referenced():
    referenced = set()
    for path in REFERRING:
        referenced.update(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    orphans = [
        f"{path.name} line {node.lineno}: {node.name}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert not orphans, f"defined but never referenced: {', '.join(orphans)}"
