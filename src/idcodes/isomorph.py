"""Graph isomorphism for the small graphs this package deals in.

Colour refinement supplies an isomorphism-invariant vertex partition; a
backtracking search seeded by those colour classes finds an explicit
mapping. The search runs on an explicit stack, so its depth is not bounded
by Python's recursion limit, and it tests each candidate against all mapped
vertices at once by comparing bitmasks of images. Refinement starts from
degree ranks and stops once the colouring is discrete. Colours and maps
are the same as those of the plain round-by-round refinement and the
pair-by-pair search; highly regular inputs, which refinement cannot split,
can still make the search exponential.
"""

from __future__ import annotations

from .graphs import Graph, _groups, _mask_of


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
    adj = g.adj
    # Round 1 keys every vertex by its degree alone.
    degrees = list(map(len, adj))
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = list(map(rank.__getitem__, degrees))
    distinct = len(rank)
    while 1 < distinct < g.n:
        size = [0] * distinct
        for c in colors:
            size[c] += 1
        color_of = colors.__getitem__
        # A singleton class keeps its rank whatever its neighbours are.
        keys = [
            (c, tuple(sorted(map(color_of, a)))) if size[c] > 1 else (c, ())
            for c, a in zip(colors, adj)
        ]
        classes = set(keys)
        # Keys start with the old colour, so a round never merges classes;
        # one that adds none is stable and, keys sorting by old colour
        # first, renames nothing. Every round that goes on adds a class,
        # so the loop ends within n rounds.
        if len(classes) <= distinct:
            break
        relabel = {k: i for i, k in enumerate(sorted(classes))}
        colors = list(map(relabel.__getitem__, keys))
        distinct = len(relabel)
    return tuple(colors)


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
    by_color = _groups(range(h.n), ch)
    adj = g.adj
    # Rarest colour class first, high degree first: fail fast.
    order = sorted(
        range(g.n), key=lambda v: (len(by_color[cg[v]]), -len(adj[v]), v)
    )
    candidates = [by_color[cg[v]] for v in order]
    hmask = list(map(_mask_of, h.adj))
    # used: the images so far, as a mask (taken holds the same set, for a
    # membership test that costs no big-integer shift on large graphs).
    # expected[v]: the images of v's mapped neighbours. A free candidate w
    # fits v iff its neighbours among the images are exactly those.
    expected = [0] * g.n
    image = [0] * g.n
    next_try = [0] * g.n
    used = 0
    taken = [False] * h.n
    i = 0
    while i < g.n:
        v = order[i]
        cands = candidates[i]
        want = expected[v]
        j = next_try[i]
        while j < len(cands):
            w = cands[j]
            j += 1
            if not taken[w] and hmask[w] & used == want:
                next_try[i] = j
                image[v] = w
                bit = 1 << w
                used |= bit
                taken[w] = True
                for x in adj[v]:
                    expected[x] |= bit
                i += 1
                break
        else:
            # Every candidate failed: undo the previous vertex's image.
            next_try[i] = 0
            i -= 1
            if i < 0:
                return None
            u = order[i]
            w = image[u]
            taken[w] = False
            bit = 1 << w
            used ^= bit
            for x in adj[u]:
                expected[x] ^= bit
    return {v: image[v] for v in order}


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
