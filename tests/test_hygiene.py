"""Import hygiene of the package, read with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import pytest

import qweyl

SRC = Path(qweyl.__file__).parent


def _imported(tree):
    """The names a module's imports bind, ``from __future__`` ones aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def test_all_lists_every_name_the_package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert sorted(qweyl.__all__) == sorted(_imported(tree))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(qweyl.__all__)
    assert _imported(tree) - used == set()


def _reaching_names(path, strings=False):
    """Names a file uses: loaded names, attributes, imported names and,
    with ``strings``, string constants (the benchmark patches by name)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def _defined(tree):
    """The module-level names a module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_module_level_name_is_reached():
    # A name stays only if a module of the package, the acceptance suite or
    # the benchmark reaches it; main is the console script.
    repo = Path(__file__).resolve().parent.parent
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    reached = set()
    for path in modules + [repo / "tests" / "test_acceptance.py"]:
        reached |= _reaching_names(path)
    for path in sorted((repo / "bench").glob("*.py")):
        reached |= _reaching_names(path, strings=True)
    unreached = {"%s.%s" % (path.stem, name) for path in modules
                 for name in _defined(ast.parse(path.read_text()))
                 if name not in reached}
    assert unreached - {"cli.main"} == set()
