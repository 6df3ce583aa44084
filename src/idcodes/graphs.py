"""Immutable simple graphs and the structural operations the package builds on.

Vertices are always 0..n-1. Edges are unordered pairs stored as sorted
tuples. Every function that returns a collection returns it in sorted order
so downstream output is reproducible run to run. Neighbourhoods reach the
checkers as bitmasks (`closed_neighborhood_masks`); the closed twins,
N[u] = N[v], that no code can separate are found by the checks gate.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    EdgeAdditionError,
    EdgeError,
    GraphFormatError,
    NoCycleEdgeError,
    VertexRangeError,
)

if TYPE_CHECKING:  # pragma: no cover - read by type checkers only
    from .isomorph import _Profile

VertexSet = frozenset[int]

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _mask_of(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each given vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1.

    Attributes:
        n: number of vertices.
        edges: sorted tuple of edges, each a sorted pair.
        adj: per-vertex adjacency as a tuple of frozensets.
    """

    __slots__ = ("n", "edges", "adj", "_max_degree", "_iso")

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[VertexSet, ...]
    _max_degree: int
    _iso: _Profile | None

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise VertexRangeError(f"vertex count must be >= 0, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        pairs: list[Edge] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            if u == v:
                raise EdgeError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            nu = nbrs[u]
            if v in nu:
                raise EdgeError(f"duplicate edge {e}")
            nu.add(v)
            nbrs[v].add(u)
            pairs.append(e)
        pairs.sort()
        adj = tuple(map(frozenset, nbrs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(pairs))
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_max_degree", max(map(len, adj), default=0))
        # Isomorphism profile (stable colouring, colour classes, search
        # order, neighbour masks), filled in by isomorph.refine_colors on
        # first use. The graph is immutable, so the profile never goes stale.
        object.__setattr__(self, "_iso", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for an edgeless graph."""
        return self._max_degree

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class MutableGraph:
    """A working copy of a Graph whose edges are removed and restored in
    O(1), with the maximum degree kept current.

    edges keeps the sorted order of the source graph while edges are only
    removed; a restored edge goes to the end.

    It also keeps the state that makes pick_cycle_edge incremental across
    a run of deletions: a lazy max-heap of candidate edges and a spanning
    forest of the graph. The heap holds one int per edge,
    (top - degree sum) * size + position, where position is the edge's
    index in the edges order when the heap was built (kept in `_order`),
    size is the number of those edges and top is twice the maximum degree
    then, so a smaller key is a larger sum, then an earlier edge; divmod
    decodes it. Degrees only fall while edges are only removed, so a key is
    never above its edge's current one, and a top entry whose key is
    current is the maximum. Deleting edges never turns a bridge into a
    non-bridge, so an edge once found to be a bridge leaves the heap for
    good.

    The forest, adjacency sets in `_forest`, is built with the heap from
    its key list: every current edge in ascending degree sum (descending
    key), kept when union-find finds its ends apart. The high-sum edges
    the picker takes first are then mostly outside the forest, and an edge
    outside it lies on a cycle, since the forest joins its ends without
    it: such a pick needs no search. A forest edge is tested by
    `_replaced`, which swaps a replacement edge into the forest when there
    is one, so a pick is never a forest edge, and removing it keeps the
    forest spanning. Removing a forest edge outside a pick drops the heap
    and the forest, and so does add_edge, which can also turn a bridge
    back into a non-bridge; the next pick rebuilds both from the current
    edge order.

    The forest walk marks vertices in `_mark`, one entry per vertex, with
    a fresh pair of stamps per call from the rising counter `_stamp`, so a
    stamp left by an earlier call is below the current pair and reads as
    unmarked, and no call has to clear the list.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = [set(a) for a in g.adj]
        self._edges = dict.fromkeys(g.edges)
        self._per_degree = [0] * (g.n + 1)
        for a in self.adj:
            self._per_degree[len(a)] += 1
        self._max = g.max_degree()
        self._heap: list[int] | None = None
        self._forest: list[set[int]] | None = None
        self._order: list[Edge] = []
        self._top = 0
        self._mark = [0] * g.n
        self._stamp = 0

    @property
    def edges(self) -> Iterable[Edge]:
        return self._edges.keys()

    @property
    def m(self) -> int:
        return len(self._edges)

    def max_degree(self) -> int:
        return self._max

    def remove_edge(self, u: int, v: int) -> None:
        del self._edges[(u, v) if u < v else (v, u)]
        au, av = self.adj[u], self.adj[v]
        au.remove(v)
        av.remove(u)
        per = self._per_degree
        d = len(au)
        per[d + 1] -= 1
        per[d] += 1
        d = len(av)
        per[d + 1] -= 1
        per[d] += 1
        top = self._max
        while top and not per[top]:
            top -= 1
        self._max = top
        if self._forest is not None and v in self._forest[u]:
            self._heap = self._forest = None

    def add_edge(self, u: int, v: int) -> None:
        self._edges[(u, v) if u < v else (v, u)] = None
        au, av = self.adj[u], self.adj[v]
        au.add(v)
        av.add(u)
        per = self._per_degree
        du, dv = len(au), len(av)
        per[du - 1] -= 1
        per[du] += 1
        per[dv - 1] -= 1
        per[dv] += 1
        self._max = max(self._max, du, dv)
        self._heap = self._forest = None

    def graph(self) -> Graph:
        """The current edge set as an immutable Graph."""
        return Graph(self.n, self._edges)

    def _build_picker(self) -> None:
        """Build the heap and the forest of the current edges (see the
        class)."""
        adj = self.adj
        order = self._order = list(self._edges)
        top = self._top = 2 * self._max
        size = len(order)
        heap = self._heap = [
            (top - len(adj[u]) - len(adj[v])) * size + i
            for i, (u, v) in enumerate(order)
        ]
        heap.sort()  # a sorted list is a heap
        forest = self._forest = [set() for _ in range(self.n)]
        parent = list(range(self.n))
        for key in reversed(heap):
            u, v = order[key % size]
            ru, rv = u, v
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru != rv:
                parent[ru] = rv
                forest[u].add(v)
                forest[v].add(u)

    def _pick_cycle_edge(self) -> Edge:
        adj = self.adj
        if self._heap is None:
            self._build_picker()
        heap, forest = self._heap, self._forest
        order, top = self._order, self._top
        size = len(order)
        edges = self._edges
        while heap:
            drop, i = divmod(heap[0], size)
            e = order[i]
            u, v = e
            fresh = top - len(adj[u]) - len(adj[v])
            if e not in edges:
                heapq.heappop(heap)
            elif fresh > drop:
                heapq.heapreplace(heap, fresh * size + i)
            elif v not in forest[u] or self._replaced(u, v):
                return e
            else:
                heapq.heappop(heap)
        raise NoCycleEdgeError("every edge is a bridge")

    def _replaced(self, u: int, v: int) -> bool:
        """Whether the forest edge uv lies on a cycle; when it does, a graph
        edge across the cut it makes takes its place in the forest.

        forest - uv has two trees, one holding u and one holding v. They
        are walked in turns, one vertex each, until one runs out, so the
        walk costs about twice the smaller tree S. The forest spans the
        graph's components, so a graph edge other than uv that leaves S
        ends in the other tree and joins u and v without uv; S's vertices
        are scanned for one, and with none uv is a bridge and stays. The
        walk marks u's tree a and v's tree b = a + 1, the call's two
        stamps; any mark below a is unmarked. A forest edge whose trees
        are both large still costs a walk of the smaller, up to half of
        the component.
        """
        forest, mark = self._forest, self._mark
        a = self._stamp + 1
        b = self._stamp = a + 1
        mark[u] = a
        mark[v] = b
        qa, qb = [u], [v]
        ia = ib = 0
        while True:
            if ia == len(qa):
                side, s, r, o = qa, a, u, v
                break
            for w in forest[qa[ia]]:
                if mark[w] < a:
                    mark[w] = a
                    qa.append(w)
            ia += 1
            if ib == len(qb):
                side, s, r, o = qb, b, v, u
                break
            for w in forest[qb[ib]]:
                if mark[w] < a:
                    mark[w] = b
                    qb.append(w)
            ib += 1
        adj = self.adj
        for x in side:
            if len(adj[x]) == len(forest[x]):
                continue  # every edge of x is a forest edge of S, or uv
            for w in adj[x]:
                if mark[w] != s and (x != r or w != o):
                    forest[u].remove(v)
                    forest[v].remove(u)
                    forest[x].add(w)
                    forest[w].add(x)
                    return True
        return False


def closed_neighborhood_masks(g: Graph) -> list[int]:
    """Closed neighbourhoods as bitmasks, bit v set iff v is in N[u].

    Used by the checkers and the exact solver; quadratic-size total output
    is fine at the instance sizes this package targets.
    """
    return [_mask_of(a) | 1 << v for v, a in enumerate(g.adj)]


def _groups(xs: Iterable[int], sigs: Iterable[int]) -> dict[int, list[int]]:
    """Vertices grouped by signature, each group in the order of xs."""
    groups: dict[int, list[int]] = {}
    for v, sig in zip(xs, sigs):
        groups.setdefault(sig, []).append(v)
    return groups


def _pairs(groups: Iterable[list[int]]) -> tuple[tuple[int, int], ...]:
    """All pairs inside each ascending group, sorted lexicographically."""
    return tuple(sorted(
        (members[i], members[j])
        for members in groups
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ))


def _admissible_addition(g: Graph, e: tuple[int, int]) -> None:
    """Raise EdgeAdditionError, with reason "range", "exists", "triangle" or
    "degree" in that order, unless g + e is simple, triangle-free and of
    maximum degree 3 at most."""
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise EdgeAdditionError("range", f"edge {e} invalid for n={g.n}")
    if g.has_edge(u, v):
        raise EdgeAdditionError("exists", f"edge {e} already present")
    if g.adj[u] & g.adj[v]:
        w = min(g.adj[u] & g.adj[v])
        raise EdgeAdditionError(
            "triangle", f"edge {e} closes a triangle with vertex {w}"
        )
    if g.degree(u) >= 3 or g.degree(v) >= 3:
        raise EdgeAdditionError("degree", f"edge {e} would push a degree past 3")


def triangle_witness(g: Graph) -> tuple[int, int, int] | None:
    """Some triangle of g as a sorted triple, or None if g is triangle-free."""
    adj = g.adj
    for u, v in g.edges:
        if not adj[u].isdisjoint(adj[v]):
            w = min(adj[u] & adj[v])
            return tuple(sorted((u, v, w)))  # type: ignore[return-value]
    return None


def components(g: Graph | MutableGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by first vertex."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def is_connected(g: Graph | MutableGraph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def delete(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """g without the given edges, on the same vertices. Asking to delete a
    missing edge raises EdgeError, naming the first such edge."""
    present = set(g.edges)
    drop: set[Edge] = set()
    for u, v in edges:
        e = _norm_edge(u, v)
        if e not in present:
            raise EdgeError(f"deletion {e} is not an edge of the graph")
        drop.add(e)
    return Graph(g.n, [e for e in g.edges if e not in drop])


def induced_subgraph(
    g: Graph, vertices: Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices.

    Returns the subgraph (relabelled 0..k-1 in sorted original order) and the
    new-to-old id table. Only the kept vertices' neighbourhoods are read.
    """
    back = tuple(sorted(set(vertices)))
    for v in back:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    new = {v: i for i, v in enumerate(back)}
    edges = [
        (i, j) for i, v in enumerate(back) for w in g.adj[v]
        if (j := new.get(w, -1)) > i
    ]
    return Graph(len(back), edges), back


def pick_cycle_edge(g: Graph | MutableGraph) -> Edge:
    """A deterministic non-bridge edge: maximum degree sum, then first in
    edges order (the smallest pair for a Graph).

    Raises NoCycleEdgeError when the graph is a forest.

    On a MutableGraph the choice is incremental over a run of deletions
    (see MutableGraph): only the edge at the top of its integer-keyed
    candidate heap is tested, and bridges found on the way are never
    tested again. The MutableGraph also keeps a spanning forest. An edge
    outside it lies on a cycle, which the forest proves with no search, and
    most picks are such edges. A forest edge is tested by walking the two
    trees it splits the forest into, in turns, and scanning the smaller for
    another graph edge that leaves it: one found takes the picked edge's
    place in the forest (the replacement step of decremental connectivity,
    after Holm, de Lichtenberg and Thorup, without their levels), and with
    none the edge is a bridge. A Graph gets a fresh MutableGraph.
    In the typical case a pick costs a few heap operations and a membership
    test, not a pass over the whole graph. In the worst case, a forest edge
    that splits its tree into two large trees, the walk still covers the
    smaller, so a pick can cost a good share of a full bridge search; the
    levelled structure of Holm, de Lichtenberg and Thorup would bound it.

    The degree-sum rule is load-bearing: a picker that took the non-tree
    edges of a DFS spanning tree picked an edge with both ends of degree 2
    in a level of maximum degree 3 on random_triangle_free(10, 12, 19),
    whose G* hub, a 4-vertex path or cycle, then missed its bound.
    """
    state = g if isinstance(g, MutableGraph) else MutableGraph(g)
    return state._pick_cycle_edge()


def linear_order(g: Graph | MutableGraph) -> tuple[str, tuple[int, ...]] | None:
    """Recognise paths and cycles; only g.n and g.adj are read.

    Returns ("path", order) or ("cycle", order) with a deterministic vertex
    order along the graph, or None when g is not a connected graph of
    maximum degree <= 2 (the single vertex counts as a path).
    """
    adj = g.adj
    if g.n == 0 or any(len(a) > 2 for a in adj) or not is_connected(g):
        return None
    if g.n == 1:
        return ("path", (0,))
    ends = [v for v in range(g.n) if len(adj[v]) <= 1]
    if ends:
        start = min(ends)
        kind = "path"
    else:
        start = 0
        kind = "cycle"
    order = [start]
    prev = -1
    cur = start
    while len(order) < g.n:
        nxt = min(w for w in adj[cur] if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return (kind, tuple(order))


@dataclass(frozen=True)
class BoundaryDecomposition:
    """The two-sided neighbourhood split around an edge (u, v).

    near_u / near_v are the other neighbours of u and v; boundary is their
    union, closed additionally holds u and v, far is everything else.
    The components of the subgraph induced on far are split by order into
    isolated vertices, pairs and large components, each in original ids.
    """

    u: int
    v: int
    near_u: tuple[int, ...]
    near_v: tuple[int, ...]
    boundary: tuple[int, ...]
    closed: tuple[int, ...]
    far: tuple[int, ...]
    isolated: tuple[int, ...]
    pair_components: tuple[tuple[int, int], ...]
    large_components: tuple[tuple[int, ...], ...]


def boundary_decomposition(g: Graph, u: int, v: int) -> BoundaryDecomposition:
    """Decompose g around the edge (u, v). Requires uv to be an edge.

    In a triangle-free graph near_u and near_v are disjoint and each is an
    independent set; the function itself does not require triangle-freeness.
    """
    if not g.has_edge(u, v):
        raise EdgeError(f"({u}, {v}) is not an edge")
    near_u = sorted(g.adj[u] - {v})
    near_v = sorted(g.adj[v] - {u})
    boundary = sorted(set(near_u) | set(near_v))
    closed_set = set(boundary) | {u, v}
    far = [w for w in range(g.n) if w not in closed_set]
    far_graph, far_verts = induced_subgraph(g, far)
    isolated: list[int] = []
    pairs: list[tuple[int, int]] = []
    large: list[tuple[int, ...]] = []
    for comp in components(far_graph):
        orig = tuple(far_verts[x] for x in comp)
        if len(orig) == 1:
            isolated.append(orig[0])
        elif len(orig) == 2:
            pairs.append(orig)  # type: ignore[arg-type]
        else:
            large.append(orig)
    return BoundaryDecomposition(
        u=min(u, v),
        v=max(u, v),
        near_u=tuple(near_u) if u < v else tuple(near_v),
        near_v=tuple(near_v) if u < v else tuple(near_u),
        boundary=tuple(boundary),
        closed=tuple(sorted(closed_set)),
        far=tuple(far),
        isolated=tuple(isolated),
        pair_components=tuple(pairs),
        large_components=tuple(large),
    )


def serialize_graph(g: Graph) -> str:
    """Stable text form: an "n m" header line, then one sorted "u v" per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_hash(g: Graph) -> str:
    """sha256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_graph(g).encode("ascii")).hexdigest()


def _int_pairs(text: str) -> Iterator[tuple[int, int, int]]:
    """(line number, a, b) for each line of text holding two integers a b.

    '#' starts a comment and blank lines are skipped; any other line raises
    GraphFormatError with its 1-based line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            a, b = map(int, fields)
        except ValueError:
            raise GraphFormatError(
                f"expected two integers, got {raw.strip()!r}", lineno
            ) from None
        yield lineno, a, b


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format written by serialize_graph.

    '#' starts a comment, blank lines are ignored. Errors carry 1-based line
    numbers; Graph checks each edge, and its error gets the edge's line.
    """
    rows = _int_pairs(text)
    header = next(rows, None)
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    line, n, m = header
    if n < 0 or m < 0:
        raise GraphFormatError(
            f"header must be 'n m' with n, m >= 0, got {n} {m}", line
        )

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal line
        for line, a, b in rows:
            yield a, b

    try:
        g = Graph(n, edges())
    except (VertexRangeError, EdgeError) as e:
        raise GraphFormatError(str(e), line) from None
    if g.m != m:
        raise GraphFormatError(f"header promises {m} edges, found {g.m}")
    return g


def _read_text(path: str, what: str) -> str:
    """The text of an input file, decoded as ASCII. A file that cannot be
    read or decoded raises GraphFormatError naming the path."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise GraphFormatError(f"cannot read {what} file {path}: {e}") from e


def load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path, "graph"))
