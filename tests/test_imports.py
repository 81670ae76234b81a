"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqpbs"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never references, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_module_is_checked():
    assert "statevec.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_a_planted_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom .x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os", "c"]
