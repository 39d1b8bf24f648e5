"""In-memory span tracing of the stresswatch modules, from outside them.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each name that refers to one, in every stresswatch module: module
attributes, and also the names a module bound at import with ``from ...
import`` (cli binds ``infer_fixed``, ``quantize`` and ``dequantize_network``
that way; without the rebinding those calls would escape the trace).

A span is ``(name, start, end, parent, pass_id)``; ``parent`` is the index
of the enclosing span or -1. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "biosignal_features", "nn_core", "quantizer", "perf_model", "harvest_sim")


def span_name(module: str, func: str) -> str:
    """``cli.cmd_features`` is reported as ``cli.features``."""
    if module == "cli" and func.startswith("cmd_"):
        func = func[4:]
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.pass_id)
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self.counts, bound.arguments, result)
            return result

        return traced

    def install(self, package, hooks: dict | None = None) -> None:
        """Wrap the public functions of ``package``'s traced modules.
        ``hooks`` maps a span name to ``f(counts, arguments, result)``."""
        hooks = hooks or {}
        modules = [getattr(package, m) for m in LAYERS]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = span_name(short, attr)
                    wrapped[fn] = self.wrap(name, fn, hooks.get(name))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")


def aggregate(spans: list[tuple], pass_id: int) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total time ``s`` and ``self_s``, the time
    not covered by child spans. Calls run on one thread, so children never
    overlap and their union is their sum. A recursive name's ``s`` counts
    nested time once per level; none of the traced functions recurse."""
    child_time = defaultdict(float)
    for name, start, end, parent, p in spans:
        if p == pass_id and parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, p) in enumerate(spans):
        if p != pass_id:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child_time[i]
    return dict(out)
