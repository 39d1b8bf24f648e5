"""Source-level rules for the package's import graph and array types.

``nn_core`` defines both network containers and the text format, and
``quantizer`` builds on it; an import back from ``nn_core`` would restore the
cycle that once forced imports inside function bodies. The fixed-point
kernel works in int64 alone, so no module may build an array of Python
objects, which is how unbounded-integer arithmetic would come back.
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


def names_object_dtype(node):
    """Whether an expression spells numpy's object dtype."""
    return (isinstance(node, ast.Name) and node.id == "object"
            or isinstance(node, ast.Attribute) and node.attr == "object_"
            or isinstance(node, ast.Constant) and node.value in ("O", "object"))


def object_dtype_lines(tree):
    """Lines of ``.astype(object)`` calls and ``dtype=object`` keywords."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
             and any(names_object_dtype(arg) for arg in node.args)
             or any(kw.arg == "dtype" and names_object_dtype(kw.value)
                    for kw in node.keywords))
    ]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_object_dtype(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert object_dtype_lines(tree) == []


def test_object_dtype_rule_sees_both_spellings():
    tree = ast.parse("a.astype(object) @ b.astype(np.object_)\n"
                     "np.array(x, dtype=object)\nnp.zeros(3, dtype=np.int64)\n")
    assert sorted(object_dtype_lines(tree)) == [1, 1, 2]
