"""Span tracing of the dimatch layers, done from outside the program.

`Tracer.install` replaces every public module-level function of the
dimatch modules, in every dimatch module namespace that binds it (for
example `propagate` in both `coloring` and `solver`), and the method
`ColoringState.clone`, by a wrapper that records one span per call:
name, start, end, parent span and operation id.  Spans stay in memory
until `write` dumps them; `uninstall` restores the original functions.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

MODULES = ("graph", "patterns", "coloring", "levels", "treedp", "oracle",
           "solver", "cli")


def _kind_label(kind) -> str:
    if kind.tag == "S_ijk":
        return "S" + "".join(map(str, kind.params))
    return kind.tag + "".join(map(str, kind.params))


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.kind: array = array("i")       # name id per span
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.op: array = array("l")
        self.true: array = array("b")       # call returned True
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, name: str, fn, by_kind: bool = False):
        kind, start, end, parent = self.kind, self.start, self.end, self.parent
        op, true, stack = self.op, self.true, self._stack
        fixed = self._name_id(name)
        name_id = self._name_id

        def traced(*args, **kwargs):
            idx = len(start)
            if by_kind:
                pattern = args[1] if len(args) > 1 else kwargs["kind"]
                kind.append(name_id(f"{name}[{_kind_label(pattern)}]"))
            else:
                kind.append(fixed)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            true.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if result is True:
                true[idx] = 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package: str = "dimatch") -> None:
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        namespaces = list(mods.values()) + [sys.modules[package]]
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{mname}.{attr}", fn,
                                     by_kind=(fn.__name__ == "find_induced"))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        cls = mods["coloring"].ColoringState
        clone = vars(cls)["clone"]
        self._patched.append((cls, "clone", clone))
        cls.clone = self._wrap("coloring.ColoringState.clone", clone)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def totals(self, scale=None):
        """Per span name: (calls, total seconds, self seconds, True returns).

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because calls nest.  `scale`, indexed
        by operation id, multiplies the durations of that operation's spans.
        """
        count = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(count)))
        if scale is not None:
            for i in range(count):
                dur[i] *= scale[self.op[i]]
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(count):
            row = out.setdefault(self.names[self.kind[i]], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += self.true[i]
        return out

    def write(self, path: str) -> None:
        """Gzipped, one tab-separated line per span: id, parent, op, name,
        start and end in nanoseconds after the first span's start."""
        origin = self.start[0] if self.start else 0.0
        names, kind = self.names, self.kind
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{names[kind[i]]}\t"
                         f"{round((self.start[i] - origin) * 1e9)}\t"
                         f"{round((self.end[i] - origin) * 1e9)}\n")
