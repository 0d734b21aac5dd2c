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
