"""Every name a source module imports at module level is used in it.

``__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

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
