"""Span tracing of the package's layers from outside the package.

Every public function of each ``idcodes`` module, and ``Graph.__init__``,
is wrapped at every import site: each ``idcodes`` module namespace (and
the package namespace) that holds the function gets the wrapper, so calls
between modules and inside one module are both seen. A span records its
name, start, end and parent span. Spans
stay in memory, in flat arrays, until the benchmark writes them out.

A layer is the module that defines the function. A layer's self time is
the duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("construct", "graphs", "checks", "exact", "isomorph", "families",
          "refine", "cli")

# Results some spans report beside their timing: name -> counter keyed by
# the span name plus a suffix.
_OBSERVERS = {
    "is_identifying": lambda r: {"true": int(bool(r))},
    "find_isomorphism": lambda r: {"hit": int(r is not None)},
    "match_family": lambda r: {"hit": int(r is not None)},
    "gamma_id_exact": lambda r: {"nodes": r.nodes_explored},
    "min_xy_identifying_exact": lambda r: {"nodes": r.nodes_explored},
    "min_identifying_containing": lambda r: {"nodes": r.nodes_explored},
}


class Tracer:
    """Installs span wrappers on the loaded ``idcodes`` modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.observed: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        start, end, parent, names = self.start, self.end, self.parent, self.name
        stack = self._stack
        observe = _OBSERVERS.get(name)
        observed = self.observed

        def span(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(result).items():
                    observed[f"{name}.{key}"] += value
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        modules = {
            key: mod for key, mod in sys.modules.items()
            if mod is not None and (key == "idcodes" or key.startswith("idcodes."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"idcodes.{layer}"]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, attr, layer)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        graph_cls = modules["idcodes.graphs"].Graph
        init = graph_cls.__init__
        self._undo.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap(init, "Graph.__init__", "graphs")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and observations (wrappers stay installed)."""
        for arr in (self.start, self.end, self.parent, self.name):
            del arr[:]
        self.observed.clear()

    def summary(self) -> dict:
        """Per-layer self time, per-name span counts and inclusive time,
        and the count of spans whose parent is in another layer (calls
        into the layer), from the spans recorded since the last reset."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = Counter()
        count = Counter()
        inclusive = Counter()
        entries = Counter()
        for i in range(n):
            nid = self.name[i]
            name, layer = self.names[nid], self.layer_of[nid]
            self_s[layer] += dur[i] - child[i]
            count[name] += 1
            inclusive[name] += dur[i]
            p = self.parent[i]
            parent_name = self.names[self.name[p]] if p >= 0 else ""
            if p < 0 or self.layer_of[self.name[p]] != layer:
                entries[name] += 1
            if name == "delete" and parent_name == "induced_subgraph":
                count["delete.within_induced_subgraph"] += 1
        return {
            "spans": n,
            "self_s": self_s,
            "count": count,
            "inclusive_s": inclusive,
            "entries": entries,
            "observed": Counter(self.observed),
        }

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\n"
                )
