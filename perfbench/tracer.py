"""Spans around calls into torcrep's layers, installed from outside the package.

``install`` replaces every public module-level function of the layer
modules, and ``IntMatrix.det``, by a wrapper that records one span per
call: name, start, end and parent span.  The wrapper is set at every
module attribute that holds the function, so cross-module callers that
did ``from .intlinalg import hermite_normal_form`` see it too.  Generator
functions are left alone: their work runs in the caller's frame.

Spans stay in flat arrays until the pass ends; ``summary`` turns them into
per-function call counts and inclusive seconds and per-layer self seconds,
and ``write`` dumps them as gzipped JSON lines.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

# The modules of src/torcrep.  cli spans are the commands themselves,
# opened by the pass runner, so cli functions are not wrapped.
LAYERS = ("cli", "groups", "lattice", "hilbert", "fans", "resolve",
          "divisors", "exceptional", "intlinalg", "svg")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls and inclusive seconds per function, self seconds per layer.

        A call nested inside a call of the same function adds to the count
        but not to the inclusive time, which would otherwise count twice.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, inclusive, self_ns = Counter(), Counter(), Counter()
        for i in range(n):
            nid = self.name[i]
            name = self.names[nid]
            calls[name] += 1
            self_ns[name.split(".", 1)[0]] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                inclusive[name] += dur[i]
        return {
            "calls": dict(calls),
            "s": {k: v / 1e9 for k, v in inclusive.items()},
            "self_s": {layer: self_ns[layer] / 1e9 for layer in LAYERS},
            "spans": n,
        }

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({**header, "names": self.names,
                                "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for i in range(len(self.start)):
                f.write(f"[{self.name[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n")


def install(tracer: Tracer, package: str = "torcrep") -> None:
    """Wrap the public functions of every layer module, where callers find them."""
    mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        if layer == "cli":
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in [*mods.values(), importlib.import_module(package)]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    matrix = mods["intlinalg"].IntMatrix
    matrix.det = tracer.wrap("intlinalg.det", matrix.det)
