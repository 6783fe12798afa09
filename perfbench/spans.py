"""Span tracer that times calls into ngramcast's public functions from outside.

install() replaces every public function defined in the package with a
timing wrapper, in every module of the package that binds it, so internal
calls made through a module's globals are seen too, whatever module the
function moves to; uninstall() puts the originals back. A function that no
longer exists simply leaves no span.

Spans are kept in memory in flat arrays (name id, start, end, parent, op id)
and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.wrappers: dict[object, object] = {}  # original function -> its wrapper
        self.op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, e.g. around one op or one step."""
        i = self._open(self._id(name))
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def install(self, package: str = "ngramcast") -> None:
        """Wrap every public function of the package wherever it is bound.

        uninstall() undoes it.
        """
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{package}.{info.name}")
        prefix = package + "."
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if owner != package and not owner.startswith(prefix):
                    continue
                if obj not in self.wrappers:
                    layer = owner.rsplit(".", 1)[-1]
                    self.wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._restore.append((module, attr, obj))
                setattr(module, attr, self.wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in self._restore:
            setattr(module, attr, obj)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def self_times(tracer: Tracer, measured: set[str], roots: list[int]) -> dict:
    """Per root span: {name: [total time, self time]} of the measured spans below it.

    A measured span's self time is its duration minus the part covered by the
    outermost measured spans below it; its total counts only outermost spans
    of that name, so a function that calls itself is not counted twice.
    """
    names = tracer.names
    measured_ids = {i for i, n in enumerate(names) if n in measured}
    root_set = set(roots)
    count = len(tracer.start)
    # nearest measured-or-root ancestor, and the root each span falls under
    anchor = [-1] * count
    root_of = [-1] * count
    covered = [0.0] * count
    name, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
    for i in range(count):
        p = parent[i]
        if p >= 0:
            root_of[i] = p if p in root_set else root_of[p]
            anchor[i] = p if (p in root_set or name[p] in measured_ids) else anchor[p]
        if i in root_set:
            root_of[i] = i
        if name[i] in measured_ids and anchor[i] >= 0:
            covered[anchor[i]] += end[i] - start[i]
    out = {r: {} for r in roots}
    for i in range(count):
        if name[i] not in measured_ids or root_of[i] < 0 or i in root_set:
            continue
        a = anchor[i]
        outermost = a in root_set or name[a] != name[i]
        cell = out[root_of[i]].setdefault(names[name[i]], [0.0, 0.0])
        duration = end[i] - start[i]
        if outermost:
            cell[0] += duration
        cell[1] += duration - covered[i]
    return out
