"""In-memory span recorder that wraps protofed's public functions from outside.

The program itself carries no tracing. A ``Tracer`` swaps chosen module
functions (and methods) for wrappers that record one span per call: name,
parent span, start and end on the ``perf_counter`` clock. Every binding of a
function across the ``protofed`` modules is replaced, so names imported with
``from .x import f`` are traced too. ``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children; because every span sits inside the root span, self times over all
spans add up to the root's duration.
"""
from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, probe: Optional[Callable]) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if probe is not None:
                probe(args, out)
            return out

        return traced

    def install(self, owner, attr: str, name: str, probe: Optional[Callable] = None) -> None:
        """Trace ``owner.attr`` under ``name``.

        For a module function, every protofed module that bound the same
        object is patched; for a class attribute only the class is.
        """
        fn = getattr(owner, attr)
        wrapper = self._wrap(fn, name, probe)
        if isinstance(owner, type):
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "protofed" or mod_name.startswith("protofed.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def intervals(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Starts and ends of every span with this name, in call order."""
        sp = self.spans()
        hit = sp["name_id"] == self._ids.get(name, -1)
        return sp["start"][hit], sp["end"][hit]

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=k)
        self_s = np.bincount(sp["name_id"], weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
