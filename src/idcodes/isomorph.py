"""Graph isomorphism for the small graphs this package deals in (n <= ~22).

Colour refinement supplies an isomorphism-invariant vertex partition; a
backtracking search seeded by those colour classes finds an explicit
mapping. Plenty fast at catalog scale; not meant for large or highly
regular inputs.
"""

from __future__ import annotations

from .graphs import Graph, _groups


def refine_colors(g: Graph) -> tuple[int, ...]:
    """Stable colouring by iterated neighbour-colour multisets.

    Colour ids are assigned canonically (sorted key order) each round, so
    the multiset of final colours is equal for isomorphic graphs. The
    colouring is computed once per Graph object and kept on it.
    """
    if g._colors is None:
        object.__setattr__(g, "_colors", _refine(g))
    return g._colors


def _refine(g: Graph) -> tuple[int, ...]:
    colors = [0] * g.n
    distinct = 1
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
            for v in range(g.n)
        ]
        relabel = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [relabel[k] for k in keys]
        if len(relabel) == distinct:
            return tuple(new)
        colors = new
        distinct = len(relabel)


def invariant_key(g: Graph) -> tuple:
    """A cheap isomorphism invariant: order, size, colour histogram."""
    colors = refine_colors(g)
    hist: dict[int, int] = {}
    for c in colors:
        hist[c] = hist.get(c, 0) + 1
    return (g.n, g.m, tuple(sorted(hist.items())))


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An isomorphism g -> h as a vertex map, or None.

    Deterministic: vertices are tried in a fixed order, candidates in
    ascending order, so the same pair of graphs always yields the same map.
    """
    if g.n != h.n or g.m != h.m:
        return None
    cg = refine_colors(g)
    ch = refine_colors(h)
    if sorted(cg) != sorted(ch):
        return None
    class_size: dict[int, int] = {}
    for c in cg:
        class_size[c] = class_size.get(c, 0) + 1
    # Rarest colour class first, high degree first: fail fast.
    order = sorted(
        range(g.n), key=lambda v: (class_size[cg[v]], -g.degree(v), v)
    )
    by_color = _groups(range(h.n), ch)
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_color.get(cg[v], ()):
            if used[w]:
                continue
            ok = True
            for pv, pw in mapping.items():
                if g.has_edge(v, pv) != h.has_edge(w, pw):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                del mapping[v]
                used[w] = False
        return False

    return dict(mapping) if extend(0) else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
