"""Graph isomorphism for the small graphs this package deals in.

Colour refinement supplies an isomorphism-invariant vertex partition; a
backtracking search seeded by those colour classes finds an explicit
mapping. The search runs on an explicit stack, so its depth is not bounded
by Python's recursion limit, and it tests each candidate against all mapped
vertices at once by comparing bitmasks of images. Colours and maps are the
same as those of the plain round-by-round refinement and the pair-by-pair
search; highly regular inputs, which refinement cannot split, can still make
the search exponential.

Refinement starts from the degree classes and splits classes in place, in
the manner of partition refinement (Cardon and Crochemore 1982; McKay and
Piperno 2014). The classes are kept as ascending lists, in colour order. A
round keys each member of a class by its sorted neighbour colours, and a
class whose members' keys differ is replaced, where it stands, by its parts
in ascending key order. The plain kernel's keys start with the old colour,
so these are the classes its relabel of all keys in sorted order gives.
While refining, a class is named by its start, the number of vertices in
the classes before it, which ranks classes as their positions do; a split
then renames only the members of its later parts. After the first round
only a class with a member next to a renamed vertex is keyed again: any
other sees the keys it saw last round, which were equal. Refinement stops
once a round splits nothing or the colouring is discrete, and the final
colours are positions.

Each Graph carries one isomorphism profile, computed once: a single
refinement gives its colours and colour classes together, and with them
the histogram; its search order (as a match source) and neighbour masks
(as a target) are built on first use. Matching one graph against many, as
deduplication does, then repeats no set-up. A Graph is immutable, so its
profile cannot go stale.
"""

from __future__ import annotations

from .graphs import Graph, _mask_of


class _Profile:
    """What the isomorphism test reads of one graph, computed at most once.

    Refinement returns the colours and the colour classes (ascending
    members, indexed by colour) together, having split the classes in
    place; the histogram (colour, class size) is read off the classes. The
    search order, which the graph needs as a match source, and the neighbour
    masks, which it needs as a target, are filled in on first use.
    """

    __slots__ = ("colors", "classes", "histogram", "order", "masks")

    def __init__(self, g: Graph):
        self.colors, self.classes = _refine(g)
        self.histogram = tuple(enumerate(map(len, self.classes)))
        self.order: list[int] | None = None
        self.masks: list[int] | None = None


def refine_colors(g: Graph) -> tuple[int, ...]:
    """Stable colouring by iterated neighbour-colour multisets.

    Colour ids are assigned canonically (a split class's parts take its
    place in sorted key order, and a colour is a class's position), so the
    multiset of final colours is equal for isomorphic graphs. The colouring
    is computed once per Graph object and kept on it, in the graph's
    isomorphism profile.
    """
    if g._iso is None:
        object.__setattr__(g, "_iso", _Profile(g))
    return g._iso.colors


def _refine(g: Graph) -> tuple[tuple[int, ...], list[list[int]]]:
    """g's stable colouring and its colour classes (ascending members,
    indexed by colour), found by splitting the classes in place."""
    n, adj = g.n, g.adj
    # Round 1 keys every vertex by its degree alone. cells[s] is the class
    # that starts at s, and colors[v] the start of v's class.
    degrees = list(map(len, adj))
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(v)
    cells: list[list[int] | None] = [None] * n
    start: dict[int, int] = {}
    s = 0
    for d in sorted(by_degree):
        start[d] = s
        cells[s] = by_degree[d]
        s += len(by_degree[d])
    colors = list(map(start.__getitem__, degrees))
    distinct = len(start)
    # The next round keys every class that is not a singleton; a lone
    # class, all of one degree, is stable already.
    pending = [c for c in by_degree.values() if len(c) > 1] if distinct > 1 else []
    while pending and distinct < n:
        color_of = colors.__getitem__
        splits = []
        for cell in pending:
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                parts.setdefault(tuple(sorted(map(color_of, adj[v]))), []).append(v)
            if len(parts) > 1:
                splits.append((colors[cell[0]], [parts[k] for k in sorted(parts)]))
        # The parts of a split class take its place in ascending key order,
        # where a relabel of all (old colour, key) pairs in sorted order
        # would put them.
        renamed: list[int] = []
        for s, parts in splits:
            cells[s] = parts[0]
            for prev, part in zip(parts, parts[1:]):
                s += len(prev)
                cells[s] = part
                for v in part:
                    colors[v] = s
                renamed += part
            distinct += len(parts) - 1
        # A class none of whose members has a renamed neighbour sees the
        # same keys as in the round before, when they were all equal: it
        # cannot split. A round with no split leaves none to re-key, and
        # every other round adds a class, so the loop ends within n rounds.
        touched = {colors[w] for v in renamed for w in adj[v]}
        pending = [c for c in map(cells.__getitem__, touched) if len(c) > 1]
    classes = list(filter(None, cells))
    if distinct < n:
        # Name each class by its position. (In a discrete colouring every
        # class is a singleton, so its start is its position already.)
        for i, cell in enumerate(classes):
            for v in cell:
                colors[v] = i
    return tuple(colors), classes


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
