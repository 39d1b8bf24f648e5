"""tools/line_trace.py lists the package lines that a run never executes."""

import importlib.util
import threading
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"

MODULE = """\
def f(x):
    if x:
        return 1
    raise ValueError(x)
"""


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_trace_lists_the_lines_no_thread_ran(tmp_path):
    line_trace = load("line_trace", TOOL)
    package = tmp_path / "pkg"
    package.mkdir()
    source = package / "mod.py"
    source.write_text(MODULE)
    assert line_trace.executable_lines(source) == {1, 2, 3, 4}

    def run():
        mod = load("mod", source)
        worker = threading.Thread(target=mod.f, args=(1,))
        worker.start()
        worker.join(timeout=10)
        return worker.is_alive()

    alive, ran = line_trace.trace_lines(run, package)
    assert alive is False
    # the import ran the def line, the thread the body up to its return
    assert ran == {str(source): {1, 2, 3}}
    assert line_trace.untraced(ran, package) == [(source, 4, "raise ValueError(x)")]
