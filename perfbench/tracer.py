"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function and every public method of the
layers' modules in a timing wrapper, and rebinds each wrapped name in every
module that imported it (`fibers`, for example, is bound in `trees` and in
`two_operads`).  Properties and dunder methods are not wrapped: their time
counts as self time of the layer that called them.

A wrapper's self time is its duration minus the durations of the wrapped
calls nested in it.  The tracer keeps one running total per function and per
layer rather than one record per span: the hot paths make millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "colored_trees",
    "trees",
    "two_operads",
    "fincat",
    "finset",
    "kcat",
    "operads",
    "spans",
    "tamarkin",
    "center",
    "duoidal",
)
TOP = 40  # functions with the most self time, written to a traced run's record


class Tracer:
    def __init__(self):
        self.functions = {}  # qualified name -> [layer, calls, self seconds]
        self._stack = [0.0]  # per open wrapper: time spent in nested wrapped calls
        self._pools = {}  # id -> every colored_trees pool that interned a node
        self._interns = [0, 0]  # [calls, calls that created a node]
        self._lru = []  # the trees layer's lru_cache'd functions
        self._lru_start = (0, 0)

    def _wrap(self, layer, qualname, fn):
        row = self.functions.setdefault(qualname, [layer, 0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = stack.pop()
                stack[-1] += spent
                row[1] += 1
                row[2] += spent - nested

        return traced

    def _counted_intern(self, intern):
        pools, counts = self._pools, self._interns

        def counted(pool, color, children):
            before = len(pool.color)
            out = intern(pool, color, children)
            counts[0] += 1
            if len(pool.color) != before:
                counts[1] += 1
                pools[id(pool)] = pool
            return out

        return counted

    def install(self):
        """Wrap the layers; call before anything binds their names."""
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"duoidal_kit.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                    if layer == "trees":
                        self._lru.append(obj)
                    originals[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("duoidal_kit"):
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(value):
                if cls.__name__ == "TreePool" and name == "intern":
                    value = self._counted_intern(value)
                setattr(cls, name, self._wrap(layer, qualname, value))
            elif isinstance(value, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qualname, value.__func__)))

    def _lru_totals(self):
        infos = [f.cache_info() for f in self._lru]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def start(self):
        """Forget what set-up did; count from here."""
        for row in self.functions.values():
            row[1] = 0
            row[2] = 0.0
        self._pools.clear()
        self._interns[:] = [0, 0]
        self._lru_start = self._lru_totals()

    def layer_metrics(self):
        out = {}
        for layer in LAYERS:
            rows = [row for row in self.functions.values() if row[0] == layer]
            out[f"{layer}.calls"] = sum(row[1] for row in rows)
            out[f"{layer}.self_s"] = sum(row[2] for row in rows)
        calls, new = self._interns
        out["colored_trees.nodes"] = sum(len(pool.color) for pool in self._pools.values())
        out["colored_trees.intern_new_ratio"] = new / calls if calls else 0.0
        hits, misses = (now - then for now, then in zip(self._lru_totals(), self._lru_start))
        out["trees.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        # a function that is gone counts 0; split and join match by prefix, so
        # the count survives merging split0/split1 and join0/join1
        out["finset.canonicalizations"] = self.functions.get("finset.graph_of", (None, 0))[1]
        out["spans.split_join_calls"] = sum(
            row[1]
            for name, row in self.functions.items()
            if name.startswith(("spans.SpanDuoidal.split", "spans.SpanDuoidal.join"))
        )
        return out

    def top_functions(self):
        rows = sorted(self.functions.items(), key=lambda kv: -kv[1][2])
        return [
            {"function": name, "calls": calls, "self_s": spent}
            for name, (_, calls, spent) in rows[:TOP]
            if calls
        ]
