"""Source-level rules for the package's import graph, array types and names.

``nn_core`` defines both network containers and the text format, and
``quantizer`` builds on it; an import back from ``nn_core`` would restore the
cycle that once forced imports inside function bodies. The fixed-point
kernel works in int64 alone, so no module may build an array of Python
objects, which is how unbounded-integer arithmetic would come back. Every
file the package writes goes through ``nn_core._open_output``, so one policy
(written over in place, then cut to length) holds for all of them. Every
exported name and every module or class constant is read by the package,
the bench or the tools, or is kept for a reason written down here.
"""

import ast
import re
from pathlib import Path

import pytest

import stresswatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stresswatch"
MODULES = sorted(SRC.glob("*.py"))
# the code that runs: the package (its export list is no caller), the bench
# and the tools
CALLER_FILES = sorted(
    [p for p in MODULES if p.name != "__init__.py"]
    + list((ROOT / "bench").rglob("*.py"))
    + list((ROOT / "tools").rglob("*.py"))
)
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

# the one function that may open a file for writing: (module file, name)
OPENER = ("nn_core.py", "_open_output")

# Public names that none of CALLER_FILES reads, each with why it stays.
UNREAD_KEPT = {
    "predict": "prices a network of any size; the per-stage energy report will call it",
    "ECG_FRONTEND_POWER_W": "measured figure behind ACQUISITION_ENERGY_J; "
                            "a continuous-sensing load will read it",
    "GSR_FRONTEND_POWER_W": "measured figure behind ACQUISITION_ENERGY_J; "
                            "a continuous-sensing load will read it",
    "rmssd": "one-window oracle for the windowed RMSSD column",
    "sdsd": "one-window oracle for the windowed SDSD column",
    "nn50": "one-window oracle for the windowed NN50 column",
    "detect_r_peaks": "one-window oracle for the windowed detector",
    "gsr_slope_features": "one-window oracle for the windowed GSR columns",
    "mse_gradients": "exposes the backward pass to the finite-difference test",
    "build_network_b": "the paper's second reference network, promised API",
    "footprint": "memory report of a loaded model, promised API",
    "derive_power": "promised API, imported by test_acceptance",
}


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


# calls that write a file under any owner: numpy's savers and the Path and
# ndarray methods that open the file themselves
WRITER_NAMES = {"save", "savez", "savez_compressed", "savetxt", "tofile",
                "write_text", "write_bytes"}
READ_MODE = re.compile(r"[rbt]+")


def opens_for_writing(call, shutil_names):
    """Whether a call can open a file for writing: a writer in
    ``WRITER_NAMES``, ``os.open``, anything from ``shutil`` (``shutil_names``
    holds the module's aliases and the names imported from it), the bare
    ``open`` with a w, a, x or + mode or a mode that is not a literal, and a
    ``<x>.open`` (``io``, ``lzma``, ``Path``, ...) without a literal read mode."""
    func = call.func
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if isinstance(func, ast.Name):
        if func.id in WRITER_NAMES or func.id in shutil_names:
            return True
        if func.id != "open":
            return False
        modes = modes or call.args[1:2] or [ast.Constant("r")]
    elif isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if func.attr in WRITER_NAMES or owner in shutil_names:
            return True
        if func.attr != "open":
            return False
        if owner == "os":
            return True
        # the mode's position differs by owner: take any literal as it
        modes = modes or [arg for arg in call.args if isinstance(arg, ast.Constant)]
    else:
        return False
    return not modes or not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                                and READ_MODE.fullmatch(m.value) for m in modes)


def shutil_aliases(tree):
    """Names that ``shutil`` or something imported from it is bound to."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            for alias in getattr(node, "names", ())
            if isinstance(node, ast.Import) and alias.name == "shutil"
            or isinstance(node, ast.ImportFrom) and node.module == "shutil"} | {"shutil"}


def write_open_lines(tree, opener=None):
    """Lines of calls that open a file for writing outside the function
    named ``opener``."""
    allowed = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == opener
               for node in ast.walk(func)}
    names = shutil_aliases(tree)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and opens_for_writing(node, names)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_one_file_opener(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert write_open_lines(tree, OPENER[1] if path.name == OPENER[0] else None) == []


WRITES = """open(p, 'w')
open(p, mode='ab')
open(p, 'r+b')
open(p, 'x')
open(p, m)
os.open(p, f)
shutil.copyfile(a, b)
Path(p).write_text(s)
q.write_bytes(b)
io.open(p, 'w')
io.open(p, m)
io.open(p)
Path(p).open('w')
Path(p).open(mode=m)
lzma.open(p, 'wb')
gzip.open(p, mode='at')
np.save(p, a)
np.savetxt(p, a)
numpy.savez_compressed(p, a=a)
a.tofile(p)
copyfile(a, b)
sh.move(a, b)
savetxt(p, a)
"""
READS = """import shutil as sh
from shutil import copyfile
open(p)
open(p, 'rb')
open(p, mode='r')
io.open(p, 'r', encoding='ascii')
Path(p).open('rb')
lzma.open(p, mode='rt')
fh.write(b)
np.load(p)
nn_core.write_fann(n, p)
os.remove(p)
def _open_output(p):
    return open(os.open(p, f), 'wb')
"""


def test_file_opener_rule_sees_each_listed_spelling():
    # every line of WRITES is caught; outside the opener, so is its own line
    writes, last = WRITES.count("\n"), (WRITES + READS).count("\n")
    tree = ast.parse(WRITES + READS)
    assert sorted(write_open_lines(tree, "_open_output")) == list(range(1, writes + 1))
    assert sorted(write_open_lines(tree)) == [*range(1, writes + 1), last, last]


def module_constants(tree):
    """Names spelled UPPER_CASE that assignments bind at module level or in
    a class body, such as a ``ClassVar``."""
    names = set()
    body = list(tree.body)
    for node in body:
        if isinstance(node, ast.ClassDef):
            body.extend(node.body)
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names |= {n.id for n in ast.walk(target)
                      if isinstance(n, ast.Name) and CONSTANT.fullmatch(n.id)}
    return names


def names_read(tree):
    """Every name the code loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in CALLER_FILES]
    assert {"cli.py", "run.py", "gen_golden.py"} <= {p.name for p in CALLER_FILES}
    read = set().union(*map(names_read, trees))
    public = set(stresswatch.__all__).union(
        *(module_constants(t) for p, t in zip(CALLER_FILES, trees) if p.parent == SRC))
    assert UNREAD_KEPT.keys() <= public
    # a kept name that gained a reader leaves the list
    assert sorted(public - read) == sorted(UNREAD_KEPT)


def test_caller_scan_ignores_definitions_and_strings():
    tree = ast.parse("LIMIT = 3\ndef predict(): pass\nx = 'FLOOR'\ny = m.SPAN + DEPTH\n"
                     "class Q:\n    WIDTH: int = 32\n    bits = 16\n"
                     "    def f(self):\n        LOCAL = 1\n")
    assert module_constants(tree) == {"LIMIT", "WIDTH"}
    assert names_read(tree) == {"m", "SPAN", "DEPTH", "int"}
