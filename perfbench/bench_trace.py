"""Trace shim: spans around the public functions of octachain's modules.

The shim wraps functions from outside the program. Each wrapped function is
replaced at every import site, that is in every ``octachain`` module whose
namespace binds it (``oracles`` binds ``bareiss_det_int`` from
``exact_algebra`` by name, for example), so that calls across modules are
seen too. Spans stay in memory with a link to their parent span; self time
is a span's duration minus the durations of its children, computed once the
run is over.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "octachain"
LAYERS = (
    "graph_gen",
    "laplacian",
    "exact_algebra",
    "closed_forms",
    "oracles",
    "verification",
    "cli",
)


def _order_cubed(args) -> int:
    return len(args[0]) ** 3


# functions whose first argument is a square matrix; their "order3" count is
# the sum over calls of the matrix order cubed
WORK = {
    "exact_algebra.invert_fraction_matrix": _order_cubed,
    "exact_algebra.bareiss_det_int": _order_cubed,
    "oracles.eigenvalues_symmetric": _order_cubed,
}


def package_modules() -> list:
    """Every imported module of the package, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions(module) -> dict:
    """Public functions defined in `module`, lru_cache wrappers included."""
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "__wrapped__"):
            found[attr] = obj
    return found


class Tracer:
    """Collects spans ``[name, parent, start, end, work]`` in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            if work is not None:
                span[4] = work(args)
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every import site of every layer function while active."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        patched = []
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def aggregate(self, start: int, stop: int) -> dict:
        """Per-function ``self_s``, ``calls`` and ``order3`` for spans[start:stop].

        Spans of one pass form complete trees, so every parent of a span in
        the range lies in the range too.
        """
        spans = self.spans
        child = [0.0] * (stop - start)
        for span in spans[start:stop]:
            if span[1] >= 0:
                child[span[1] - start] += span[3] - span[2]
        totals: dict[str, dict] = {}
        for offset, span in enumerate(spans[start:stop]):
            entry = totals.setdefault(
                span[0], {"self_s": 0.0, "calls": 0, "order3": 0}
            )
            entry["self_s"] += (span[3] - span[2]) - child[offset]
            entry["calls"] += 1
            entry["order3"] += span[4]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON array per line: id, name, parent,
        start, end, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end, work) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, parent, start, end, work]) + "\n")
