"""The two routes stay independent: the oracle shares no code with the
package, and the engine's recursion never sees a closed form."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "impartial"


def _imported(path: Path) -> set:
    """Every module name an import statement in ``path`` names, with the
    package's relative imports resolved, and the names of each ``from``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "impartial" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_reference_imports_nothing_from_the_package():
    imported = _imported(TESTS / "reference.py")
    assert not {name for name in imported if name.split(".")[0] == "impartial"}


@pytest.mark.parametrize("module", ["engine", "rulesets", "isomorphism", "_flagged"])
def test_recursion_imports_no_closed_form(module):
    imported = _imported(PACKAGE / f"{module}.py")
    for banned in ("closed_forms", "verification"):
        assert f"impartial.{banned}" not in imported
