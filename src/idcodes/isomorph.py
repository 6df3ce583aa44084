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

Each Graph carries one isomorphism profile, computed once: a single
refinement gives its colours, colour classes and histogram, and its search
order (as a match source) and neighbour masks (as a target) are built on
first use. Matching one graph against many, as deduplication does, then
repeats no set-up. A Graph is immutable, so its profile cannot go stale.
"""

from __future__ import annotations

from .graphs import Graph, _mask_of


class _Profile:
    """What the isomorphism test reads of one graph, computed at most once.

    Refinement fills in the colours, the colour classes (ascending members,
    indexed by colour) and the histogram (colour, class size) at once. The
    search order, which the graph needs as a match source, and the neighbour
    masks, which it needs as a target, are filled in on first use.
    """

    __slots__ = ("colors", "classes", "histogram", "order", "masks")

    def __init__(self, g: Graph):
        colors = _refine(g)
        classes: list[list[int]] = [[] for _ in range(len(set(colors)))]
        for v, c in enumerate(colors):
            classes[c].append(v)
        self.colors = colors
        self.classes = classes
        self.histogram = tuple(enumerate(map(len, classes)))
        self.order: list[int] | None = None
        self.masks: list[int] | None = None


def refine_colors(g: Graph) -> tuple[int, ...]:
    """Stable colouring by iterated neighbour-colour multisets.

    Colour ids are assigned canonically (sorted key order) each round, so
    the multiset of final colours is equal for isomorphic graphs. The
    colouring is computed once per Graph object and kept on it, in the
    graph's isomorphism profile.
    """
    if g._iso is None:
        object.__setattr__(g, "_iso", _Profile(g))
    return g._iso.colors


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
    refine_colors(g)
    return (g.n, g.m, g._iso.histogram)


def _search_order(g: Graph, iso: _Profile) -> list[int]:
    """g's vertices as a match source: rarest colour class first, then high
    degree first, to fail fast. A target with g's histogram has g's class
    sizes, so the order depends on g alone."""
    size = list(map(len, iso.classes))
    colors, adj = iso.colors, g.adj
    return sorted(range(g.n), key=lambda v: (size[colors[v]], -len(adj[v]), v))


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An isomorphism g -> h as a vertex map, or None.

    Deterministic: vertices are tried in a fixed order, candidates in
    ascending order, so the same pair of graphs always yields the same map.
    """
    if g.n != h.n or g.m != h.m:
        return None
    # refine_colors fills in each graph's profile on first use.
    refine_colors(g)
    refine_colors(h)
    pg, ph = g._iso, h._iso
    # Equal histograms hold exactly when the sorted colourings are equal.
    if pg.histogram != ph.histogram:
        return None
    order = pg.order
    if order is None:
        order = pg.order = _search_order(g, pg)
    hmask = ph.masks
    if hmask is None:
        hmask = ph.masks = list(map(_mask_of, h.adj))
    colors_g, classes_h = pg.colors, ph.classes
    adj = g.adj
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
        cands = classes_h[colors_g[v]]
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
