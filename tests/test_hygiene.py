"""Source hygiene: no module of the package or of the tests imports a
name it never uses, every function, method and class the package
defines is referenced by the program itself, every name
``gkg.__all__`` exports exists, once, a plain record is a ``NamedTuple``,
and ``import gkg.cli`` stays cheap:
no class generates its methods at import unless callers need
``dataclasses.replace`` on it, and the evaluation suites load only for
``gkg eval``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gkg").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# Where a reference to a package definition may live: the program, that
# is the package without the re-exports of its __init__, the benchmark
# and the scripts.  A definition only tests reach is dead code.
REFERRING = [path for path in PACKAGE if path.name != "__init__.py"] + [
    path
    for folder in ("gkgbench", "scripts")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if "tests" not in path.relative_to(ROOT).parts
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


def referenced_names(tree, names, attributes):
    """Add every name the module reads to ``names``, and every attribute
    it looks up and every name it imports to ``attributes``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            attributes.update(alias.name.rpartition(".")[2] for alias in node.names)


def test_every_package_definition_is_referenced():
    """A member of a class counts as referenced only through an attribute
    (``x.name``) or an import: a bare name spelled the same is some other
    variable."""
    names: set = set()
    attributes: set = set()
    for path in REFERRING:
        referenced_names(ast.parse(path.read_text(encoding="utf-8")), names, attributes)
    orphans = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        members = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in attributes and (id(node) in members or node.name not in names):
                orphans.append(f"{path.name} line {node.lineno}: {node.name}")
    assert not orphans, f"defined but never referenced: {', '.join(orphans)}"


def test_every_exported_name_exists_once():
    missing = [name for name in gkg.__all__ if not hasattr(gkg, name)]
    repeated = sorted({name for name in gkg.__all__ if gkg.__all__.count(name) > 1})
    assert not missing, f"gkg.__all__ names what gkg lacks: {', '.join(missing)}"
    assert not repeated, f"gkg.__all__ repeats: {', '.join(repeated)}"


# The only dataclasses of the package: callers apply dataclasses.replace
# to them (gkgbench/replay.py to AlignmentConfig).  Every other value type
# is written out, since a dataclass generates and compiles its methods in
# each process that imports it.
DATACLASSES = {"AlignmentConfig"}


def dataclass_names(tree):
    """Names of the classes that a ``dataclass`` decorator marks, in any
    spelling: ``@dataclass``, ``@dataclass(...)``, ``@dataclasses.dataclass``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name == "dataclass":
                    yield node.name


def test_only_listed_classes_are_dataclasses():
    found = {name for path in PACKAGE for name in dataclass_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert found <= DATACLASSES, f"dataclasses outside the list: {', '.join(sorted(found - DATACLASSES))}"


def stores_own_parameter(statement, params) -> bool:
    """Whether the statement is ``_set_field(self, "x", x)`` for one of the
    parameters."""
    match statement:
        case ast.Expr(ast.Call(ast.Name("_set_field"), [ast.Name("self"), ast.Constant(field), ast.Name(value)], [])):
            return field == value and value in params
    return False


def plain_record_names(tree):
    """Names of the ``_Frozen`` subclasses whose ``__init__``, docstring
    aside, only stores its own parameters with ``_set_field``: records
    that need no constructor of their own."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            isinstance(base, ast.Name) and base.id == "_Frozen" for base in cls.bases
        ):
            continue
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                params = {arg.arg for arg in init.args.args[1:] + init.args.kwonlyargs}
                body = init.body[1:] if ast.get_docstring(init) is not None else init.body
                if body and all(stores_own_parameter(statement, params) for statement in body):
                    yield cls.name


def test_plain_records_are_named_tuples():
    """``_Frozen`` is for value types whose constructor checks its input,
    fills in a default or keeps state; a plain record is an
    ``_equal_to_own_type`` ``NamedTuple`` (see ``gkg.model``)."""
    found = sorted(name for path in PACKAGE for name in plain_record_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, f"plain records written as _Frozen classes: {', '.join(found)}"


def test_cli_import_leaves_the_evaluation_suites_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(gkg.__file__).resolve().parent.parent))
    code = "import sys, gkg.cli; print(sorted(name for name in sys.modules if name.startswith('gkg.')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert "gkg.evaluation" not in loaded.stdout and "gkg.cli" in loaded.stdout
