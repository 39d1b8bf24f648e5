"""List the lines of ``src/stresswatch`` that a pytest run never executes.

    python3 tools/line_trace.py [PYTEST_ARG ...]

    python3 tools/line_trace.py | grep raise

Runs pytest in this process, by default with the tier-1 arguments
(``-q --continue-on-collection-errors``, so ``tests/`` and ``bench/tests``),
under ``sys.settrace`` and ``threading.settrace``, with the package's
``src/`` directory first on ``sys.path``. Only frames of the package's own
files get a line tracer: the tier-1 suite took 56 s under it against 35 s
without (2-vCPU x86-64 host, Python 3.11).
Then it prints one ``path:line: source`` per executable line (a line that
some code object of the compiled file maps an instruction to) that no
traced frame ran, and a closing count on stderr. Code that runs only in a
child process, such as ``tools/cold_run.py``'s children, is not seen.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import collections
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stresswatch"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from ``path`` maps
    an instruction to."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # an instruction without a source line maps to None or 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_lines(run, package: Path = PACKAGE):
    """Call ``run()`` under a line tracer. Return its result and, per file of
    ``package``, the set of lines that ran, in any thread started meanwhile
    too."""
    prefix = str(package) + os.sep
    ran: dict[str, set[int]] = collections.defaultdict(set)
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = name.startswith(prefix)
        return local if ours[name] else None

    # a tracer already installed (this tool running its own test) comes back
    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, ran


def untraced(ran: dict[str, set[int]], package: Path = PACKAGE) -> list[tuple[Path, int, str]]:
    """(file, line, source text) of every executable line of ``package``
    that ``ran`` does not hold, in file and line order."""
    missed = []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            missed.append((path, line, text[line - 1].strip()))
    return missed


def main(argv: list[str] | None = None) -> int:
    import pytest

    args = TIER1_ARGS if not argv else argv
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    status, ran = trace_lines(lambda: int(pytest.main(args)))
    missed = untraced(ran)
    for path, line, source in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missed)} lines never ran (pytest exit {status})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
