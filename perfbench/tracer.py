"""Span tracer that instruments sekit from outside, with no edits under src/.

`Tracer.install()` wraps every public function of each sekit module, the
public methods of the classes each module defines, the `Dist` constructor,
scipy's `logsumexp` wherever a sekit module bound it, and the public
functions of `numpy.linalg`.  A wrapper replaces the original in every
namespace that holds it (a `from .x import y` binds the name in the
importing module too), and `uninstall()` puts every original back.

Each call records one span (name, start, end, parent) in flat arrays held in
memory; `save()` writes them out at the end.  A layer's self time is the
time inside its spans minus the time inside their child spans; time spent in
private helpers and unwrapped methods lands on the nearest wrapped caller.
"""
from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from time import perf_counter
from typing import Dict, List

import numpy as np

LAYERS = ("core", "models", "experience", "mdp", "divergence", "solver",
          "adversarial", "recipes", "oracles", "bundles")
EXTERNAL = ("scipy.logsumexp", "numpy.linalg")


class Tracer:
    def __init__(self):
        self.layers = LAYERS
        self.categories = LAYERS + EXTERNAL
        self.names: List[str] = []  # span name per name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.self_s = [0.0] * len(self.categories)
        self.calls = [0] * len(self.categories)
        self._open: List[int] = []  # indices of the spans now running
        self._child: List[float] = []  # child time of each open span
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, category: str):
        nid = len(self.names)
        self.names.append(name)
        cat = self.categories.index(category)
        open_, child = self._open, self._child
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                open_.pop()
                inner = child.pop()
                dur = t1 - t0
                self_s[cat] += dur - inner
                calls[cat] += 1
                if child:
                    child[-1] += dur

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import scipy.special
        import sekit  # noqa: F401  (imports every layer module)

        modules = [sys.modules[f"sekit.{m}"] for m in self.layers]
        namespaces = [sys.modules["sekit"]] + modules
        replace: Dict[int, object] = {}

        for layer, mod in zip(self.layers, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        self._wrap_method(sys.modules["sekit.core"].Dist, "__init__", "core")

        lse = scipy.special.logsumexp
        replace[id(lse)] = self._wrap(lse, "scipy.logsumexp", "scipy.logsumexp")

        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._set(ns, attr, wrapper)

        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                self._set(np.linalg, attr,
                          self._wrap(obj, f"numpy.linalg.{attr}", "numpy.linalg"))

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if not attr.startswith("_"):
                self._wrap_method(cls, attr, layer)

    def _wrap_method(self, cls: type, attr: str, layer: str) -> None:
        raw = vars(cls)[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, layer))
        elif isinstance(raw, types.FunctionType):
            wrapped = self._wrap(raw, name, layer)
        else:
            return  # properties, constants and nested types stay as they are
        self._set(cls, attr, wrapped, raw)

    def _set(self, owner, attr: str, value, original=None) -> None:
        if original is None:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cat, s, n in zip(self.categories, self.self_s, self.calls):
            out[f"{cat}.self_s"] = s
            out[f"{cat}.calls"] = n
        return out

    def save(self, path) -> None:
        """Write every span: name id, start, end, parent index (-1: root)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64))
