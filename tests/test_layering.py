"""The model layer (sectors, qseries, functions) imports nothing from the layers built on it."""

import ast
from pathlib import Path

import pytest

import alphasectors

PACKAGE = Path(alphasectors.__file__).parent
MODEL = ("sectors", "qseries", "functions")
UPPER = {"solver", "winding", "checks", "cli"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every package module named by an import anywhere in the tree, deferred and TYPE_CHECKING ones included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("alphasectors."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # from . import solver, from .solver import X
                names.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
            elif module == "alphasectors":
                names.update(alias.name for alias in node.names)
            elif module.startswith("alphasectors."):
                names.add(module.split(".")[1])
    return names


@pytest.mark.parametrize("module", MODEL)
def test_the_model_layer_imports_no_module_above_it(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _imported_modules(tree) & UPPER


def test_the_import_reader_sees_every_form():
    tree = ast.parse(
        "from . import solver\n"
        "from .winding import sector_census\n"
        "import alphasectors.checks\n"
        "def f():\n"
        "    from alphasectors import cli\n"
    )
    assert _imported_modules(tree) == UPPER
