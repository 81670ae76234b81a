"""Every module-level function and class of the package has a caller.

A name defined at the top level of a package module (``__init__.py``
aside) passes when the package references it outside its own
definition, when ``sqpbs/__init__.py`` exports it, or when a benchmark
script names it.  ``ALLOWED`` lists the exceptions, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqpbs"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "fidelity_1q_rows": "the fidelity tests read Trent's corrected stack with it, "
                        "and a diagnostic trace of a run may call it",
}


def uncalled(sources: dict[str, str], exported: set[str], outside: str) -> list[str]:
    """The top-level functions and classes of ``sources`` (module name to source) that nothing calls.

    A reference is a name or an attribute anywhere in ``sources``, except
    inside the definition it names; ``exported`` names and the identifiers
    that ``outside`` spells anywhere, strings included, count as callers.
    """
    defined: list[tuple[str, str]] = []
    references: set[tuple[str, str, str | None]] = set()  # (name, module, enclosing definition)
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            if owner is not None:
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    references.add((node.attr, module, owner))
    named_outside = set(re.findall(r"\w+", outside))
    return [
        name for module, name in defined
        if name not in exported and name not in named_outside
        and not any(ref == name and (where, owner) != (module, name) for ref, where, owner in references)
    ]


def package_exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_has_a_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    benchmarks = "".join(p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.py")))
    assert sorted(uncalled(sources, package_exports(), benchmarks)) == sorted(ALLOWED)


def test_planted_names_are_found():
    sources = {
        "a": "def used():\n    pass\n\n\ndef recursive():\n    return recursive()\n\n\n"
             "class Exported:\n    pass\n\n\ndef benchmarked():\n    pass\n\n\ndef method_named():\n    pass\n",
        "b": "from .a import used\n\n\nclass Holder:\n    def run(self):\n        return used(), self.method_named\n",
    }
    outside = 'LAYERS = (("a.benchmarked", "a", "benchmarked"),)\n'
    assert uncalled(sources, {"Exported"}, outside) == ["recursive", "Holder"]
