"""Span tracer that times miscorr's layers from outside the package.

Each layer is one module of the package.  ``Tracer.install`` wraps every
public function of every layer and rebinds the wrapper at each ``miscorr.*``
module attribute that refers to the original, so a call made through
``from .estimators import ols_fit`` in another module is traced too.
``Tracer.uninstall`` restores the originals, so untraced runs execute the
unmodified functions.

A span is ``[name, layer, start, end, parent, thread, raised, rows]``; spans
are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
from time import perf_counter

LAYERS = (
    "cli",
    "categorical",
    "misclass",
    "moments",
    "estimators",
    "diagnostics",
    "simkit",
    "charts",
)

# rows handled by a call, taken from the argument at this position
ROW_ARGS = {
    "categorical.encode_dummy": (1, "categories"),
    "estimators.ols_fit": (0, "design_star"),
}

NAME, LAYER, START, END, PARENT, THREAD, RAISED, ROWS = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []  # (module, attribute, original)

    def install(self) -> None:
        from miscorr.errors import MiscorrError

        self._error_type = MiscorrError
        modules = [importlib.import_module("miscorr")] + [
            importlib.import_module(f"miscorr.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"miscorr.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, layer):
        local = self._local
        spans = self.spans
        error_type = self._error_type
        row_arg = ROW_ARGS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), False, 0]
            if row_arg is not None:
                pos, key = row_arg
                arg = args[pos] if len(args) > pos else kwargs[key]
                span[ROWS] = len(arg)
            stack.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except error_type:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def layer_stats(spans: list) -> dict:
    """Per-layer calls, self time and errors, plus the counters the
    benchmark's ratios are built from.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans, so each instant
    of a thread's time goes to the innermost traced call.  An error is
    counted where a MiscorrError leaves a layer: the span raised and its
    caller is untraced or in another layer.
    """
    child_time = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + s[END] - s[START]
    stats = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
    calls = {}
    rows = {}
    for s in spans:
        st = stats[s[LAYER]]
        st["calls"] += 1
        st["self_s"] += s[END] - s[START] - child_time.get(id(s), 0.0)
        parent = s[PARENT]
        if s[RAISED] and (parent is None or parent[LAYER] != s[LAYER]):
            st["errors"] += 1
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        rows[s[NAME]] = rows.get(s[NAME], 0) + s[ROWS]
    return {"layers": stats, "calls": calls, "rows": rows}


def dump(spans: list, path) -> None:
    """Write spans as JSON lines, with parents given as span indices."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for s in spans:
            parent = s[PARENT]
            fh.write(json.dumps({
                "name": s[NAME],
                "layer": s[LAYER],
                "start": s[START],
                "end": s[END],
                "parent": None if parent is None else index.get(id(parent)),
                "thread": s[THREAD],
                "raised": s[RAISED],
            }) + "\n")
