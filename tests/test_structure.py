"""Source-level rules for the package's import graph.

``nn_core`` defines both network containers and the text format, and
``quantizer`` builds on it; an import back from ``nn_core`` would restore the
cycle that once forced imports inside function bodies.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stresswatch"
MODULES = sorted(SRC.glob("*.py"))


def imported_modules(node):
    """Dotted names an import statement refers to, relative ones as written."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "." * node.level + (node.module or "")
    return [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]


def test_every_module_is_checked():
    assert {"nn_core.py", "quantizer.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nested = [
        f"line {node.lineno} in {func.name}()"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_nn_core_imports_nothing_from_quantizer():
    tree = ast.parse((SRC / "nn_core.py").read_text(encoding="utf-8"))
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_modules(node)
    ]
    assert "numpy" in names
    assert [n for n in names if "quantizer" in n.split(".")] == []
