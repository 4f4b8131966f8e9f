"""In-memory span tracer that wraps functions from outside the program.

A target names an attribute on a module or class.  Installing replaces it
with a wrapper that records one span per call (name, start, end, parent
span, whether it raised); uninstalling puts the original object back.
Spans stay in compact arrays until the operation ends.  The whole process
is one operation, so the operation id is stored once with the spans
rather than on each one.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    owner: object              # module or class that holds the attribute
    attr: str
    name: str                  # span name
    observe: Callable | None = None   # (args, kwargs, result) -> note


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.notes: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, observe):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        raised = self.raised
        notes = self.notes.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            raised.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                notes.append(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets):
        """Wrap every target that exists; missing ones go to ``absent``."""
        for t in targets:
            # vars() so an inherited method counts as absent on a subclass
            original = vars(t.owner).get(t.attr)
            if original is None:
                self.absent.append(t.name)
                continue
            self._installed.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t.name, t.observe))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans as numpy arrays, one entry per span."""
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "raised": np.array(self.raised, dtype=bool)}


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent, and overlapping children count
    once, so the result is never negative.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    lo_all, hi_all = start.tolist(), end.tolist()
    covered = np.zeros(len(start))
    children: dict[int, list[int]] = {}
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = lo_all[p], hi_all[p]
        spans = sorted((max(lo_all[k], lo_p), min(hi_all[k], hi_p))
                       for k in kids)
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in spans:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[p] = total
    return (end - start) - covered
