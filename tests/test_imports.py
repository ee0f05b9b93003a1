"""Every name a source module imports at module level is used in it,
every module-level private name a source module defines is read somewhere
in the package, and every error class without a subclass is raised in it.

``__init__.py`` is skipped by the import check: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

from qmyo import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "qmyo"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a top-level import statement, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotation_names(annotation: ast.expr) -> set[str]:
    """Names in an annotation, including those in a string annotation."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                names |= annotation_names(annotation)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_string_annotations_count_as_uses():
    tree = ast.parse(
        "from a import A, B, C\n"
        "def f(x: 'A') -> 'list[B]':\n"
        "    pass\n"
    )
    assert {"A", "B"} <= referenced_names(tree)
    assert "C" not in referenced_names(tree)


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level ``_name`` a def, class or assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for target in bound for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names read as variables, attributes or in annotations, or imported by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                names |= annotation_names(annotation)
    return names


def test_no_unused_private_module_level_name():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unused = [f"{module}:{line} {name}" for module, tree in sorted(trees.items())
              for name, line in private_definitions(tree).items() if name not in read]
    assert not unused, f"private names defined but never read: {', '.join(unused)}"


def test_a_private_name_only_assigned_counts_as_unused():
    tree = ast.parse(
        "_TABLE = {1: 2}\n"
        "_SEEN, _LEFT = 1, 2\n"
        "def _helper(): pass\n"
        "class _Kind: pass\n"
        "def public(x: '_Kind') -> int:\n"
        "    return _TABLE[x] + _SEEN\n"
        "__all__ = []\n"
    )
    defined = private_definitions(tree)
    assert set(defined) == {"_TABLE", "_SEEN", "_LEFT", "_helper", "_Kind"}
    assert set(defined) - read_names(tree) == {"_LEFT", "_helper"}


def raised_names(tree: ast.Module) -> set[str]:
    """Names of the exceptions raised by name: ``raise E(...)``, ``raise E``, ``raise m.E``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_leaf_error_is_raised():
    leaves = [cls.__name__ for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, Exception)
              and cls.__module__ == errors.__name__ and not cls.__subclasses__()]
    raised = set().union(*(raised_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in SRC.glob("*.py")))
    unraised = sorted(set(leaves) - raised)
    assert leaves and not unraised, f"errors.py classes nothing raises: {', '.join(unraised)}"


def test_raised_names_reads_calls_bare_names_and_attributes():
    tree = ast.parse(
        "try:\n"
        "    raise A('x')\n"
        "except A:\n"
        "    raise\n"
        "raise B\n"
        "raise errors.C('y') from None\n"
        "D('built, not raised')\n"
    )
    assert raised_names(tree) == {"A", "B", "C"}
