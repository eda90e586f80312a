"""Module boundaries of the package, checked on its source with ``ast``.

No module imports another module's private names, every ``__all__`` entry
is defined in its module, and the README lists exactly the names the
package exports.
"""

import ast
import pathlib
import re

import pytest

import mvtcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mvtcheck").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(tree):
    """Names bound at module level by def, class, assignment or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "expr.py", "theorem.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mvtcheck")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    tree = _tree(path)
    assert sorted(set(_exported(tree)) - _bound_names(tree)) == []


def test_readme_lists_the_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("Exported names:", 1)[1].split("\n\n", 2)[1]
    assert sorted(re.findall(r"`(\w+)`", section)) == sorted(mvtcheck.__all__)
