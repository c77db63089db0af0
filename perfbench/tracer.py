"""Spans around the layers of `spinonchars`, recorded from outside the package.

`Tracer.install()` wraps every public module-level function of each layer
(module), the arithmetic operators of its series and polynomial types, and a
few hot methods, and rebinds each wrapper in every `spinonchars` namespace and
class that binds the original (`yangian` imports `energy`, `strip_schur`, ...
by name).  Each call becomes a span (name, parent, start, end) kept in memory;
a generator gets one span per resumption.  `dump()` writes the spans at the
end of the process and `summarize()` reduces a dump to per-name counts,
inclusive times and per-layer self times.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("partitions", "qseries", "symfunc", "strips", "affine", "yangian",
          "verify", "cli")

# Methods wrapped besides the public module-level functions.  Operators are
# wrapped so that series and polynomial arithmetic called from another layer
# is charged to the layer that implements it.
METHODS = {
    "partitions": {"Partition": ("conjugate",)},
    "qseries": {"QSeries": ("__add__", "__sub__", "__neg__", "__mul__",
                            "__pow__", "inverse"),
                "ZPolyQ": ("__mul__",)},
    "symfunc": {"SymPoly": ("__add__", "__sub__", "__neg__", "__mul__")},
    "affine": {"CharacterTable": ("add",)},
}

_ARRAYS = (("parent", "i"), ("name", "i"), ("start", "q"), ("end", "q"),
           ("outer", "b"))


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []  # values yielded, or len() of a returned list
        self.active: list[int] = []  # open spans per name, to mark the outermost
        self.originals: dict[str, object] = {}
        self.stack: list[int] = []
        for attr, code in _ARRAYS:
            setattr(self, attr, array(code))

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"spinonchars.{layer}")
            if mod is None:
                continue
            targets = [
                obj for attr, obj in vars(mod).items()
                if not attr.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                targets += [cls.__dict__[m] for m in methods
                            if cls is not None and m in cls.__dict__]
            for obj in targets:
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__qualname__}"
                    self.originals[name] = obj
                    wrappers[id(obj)] = self._wrap(obj, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spinonchars" and not mod_name.startswith("spinonchars."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod_name:
                    for cattr, cobj in list(vars(obj).items()):
                        if id(cobj) in wrappers:
                            setattr(obj, cattr, wrappers[id(cobj)])

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.items.append(0)
        self.active.append(0)
        calls, items, active, stack = self.calls, self.items, self.active, self.stack
        parent, names, start, end, outer = (
            self.parent, self.name, self.start, self.end, self.outer)
        now = time.perf_counter_ns

        def enter() -> int:
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            outer.append(active[nid] == 0)
            end.append(0)
            active[nid] += 1
            stack.append(i)
            start.append(now())
            return i

        def leave(i: int) -> None:
            end[i] = now()
            stack.pop()
            active[nid] -= 1

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(i)
                    items[nid] += 1
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            i = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(i)
            if type(result) is list:
                items[nid] += len(result)
            return result
        return wrapper

    def dump(self, path: str) -> None:
        """Write the header (names, counters) as one JSON line, then the spans."""
        misses = {}
        for name, fn in self.originals.items():
            info = getattr(fn, "cache_info", None)
            # a function without a cache computes on every call
            misses[name] = info().misses if info else self.calls[self.names.index(name)]
        header = {"names": self.names, "calls": self.calls, "items": self.items,
                  "misses": misses, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(fh)


def summarize(path: str) -> dict:
    """Counts, inclusive seconds (outermost spans of a name) and per-layer
    self seconds (span minus the part its child spans cover) of one dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        cols = {}
        for attr, code in _ARRAYS:
            cols[attr] = array(code)
            cols[attr].fromfile(fh, count)
    names = header["names"]
    layer_of = [n.split(".", 1)[0] for n in names]
    self_ns = Counter()
    incl_ns = Counter()
    edges = Counter()
    for p, nid, s, e, top in zip(cols["parent"], cols["name"], cols["start"],
                                 cols["end"], cols["outer"]):
        d = e - s
        self_ns[layer_of[nid]] += d
        if top:
            incl_ns[names[nid]] += d
        if p >= 0:
            pid = cols["name"][p]
            self_ns[layer_of[pid]] -= d  # spans nest: children lie inside the parent
            edges[f"{names[pid]}>{names[nid]}"] += 1
    return {
        "calls": dict(zip(names, header["calls"])),
        "items": dict(zip(names, header["items"])),
        "misses": header["misses"],
        "incl_s": {k: v / 1e9 for k, v in incl_ns.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "edges": dict(edges),
        "spans": count,
    }
