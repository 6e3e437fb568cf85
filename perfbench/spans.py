"""In-memory span tracer that wraps program functions from outside.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the traced process runs and written out once at the end.  Wrapping happens
at every binding a caller looks up: the attribute of each module that holds
the function object (``harness.prune`` as well as ``pruning.prune``), or
the class attribute for a method.  Functions called too often to time are
wrapped with a bare call counter instead of a span.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(tracer, index, args,
        kwargs, result)`` runs after a call that returned."""
        nid = self._nid(name)
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span with the given name, or -1."""
        nid = self._name_id.get(name)
        idx = self.parent[idx]
        while idx >= 0 and self.name[idx] != nid:
            idx = self.parent[idx]
        return idx

    # -- installing --------------------------------------------------------

    def install(self, owner, attr: str, name: str, hook=None,
                count_only: bool = False) -> None:
        """Wrap ``owner.attr`` (a class method, or a module function at
        every module of the package that binds it)."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        wrapped = (self.count_wrapper(name, orig) if count_only
                   else self.span_wrapper(name, orig, hook))
        if isinstance(owner, type):
            self._patch(owner, attr, orig, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def arrays(self):
        """(name ids, parent indices, start, end) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread's call stack, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered
