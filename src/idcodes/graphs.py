"""Immutable simple graphs and the structural operations the package builds on.

Vertices are always 0..n-1. Edges are unordered pairs stored as sorted
tuples. Every function that returns a collection returns it in sorted order
so downstream output is reproducible run to run. Neighbourhoods reach the
checkers as bitmasks (`closed_neighborhood_masks`), and the only twins
looked for are closed twins, N[u] = N[v], which no code can separate.
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

if TYPE_CHECKING:
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

    bridges reads it like a Graph, through n, adj and edges. edges keeps
    the sorted order of the source graph while edges are only removed; a
    restored edge goes to the end.

    It also keeps the state that makes pick_cycle_edge incremental across
    a run of deletions: a lazy max-heap of candidate edges. The heap holds
    one int per edge, (top - degree sum) * size + position, where position
    is the edge's index in the edges order when the heap was built (kept
    in `_order`), size is the number of those edges and top is twice the
    maximum degree then, so a smaller key is a larger sum, then an earlier
    edge; divmod decodes it. Degrees only fall while edges are only
    removed, so a key is never above its edge's current one, and a top
    entry whose key is current is the maximum. Deleting edges never turns a
    bridge into a non-bridge, so an edge once found to be a bridge leaves
    the heap for good. add_edge can undo both facts, so it drops the heap,
    which the next pick rebuilds from the current edge order.

    The cycle test marks vertices in `_mark`, one entry per vertex, with a
    fresh pair of stamps per call from the rising counter `_stamp`, so a
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
        self._heap = None

    def graph(self) -> Graph:
        """The current edge set as an immutable Graph."""
        return Graph(self.n, self._edges)

    def _pick_cycle_edge(self) -> Edge:
        adj = self.adj
        heap = self._heap
        if heap is None:
            order = self._order = list(self._edges)
            top = self._top = 2 * self._max
            size = len(order)
            heap = self._heap = [
                (top - len(adj[u]) - len(adj[v])) * size + i
                for i, (u, v) in enumerate(order)
            ]
            heapq.heapify(heap)
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
            elif self._joined_without(u, v):
                return e
            else:
                heapq.heappop(heap)
        raise NoCycleEdgeError("every edge is a bridge")

    def _joined_without(self, u: int, v: int) -> bool:
        """Whether u and v stay connected once their edge uv is ignored.

        Two breadth-first searches, one from each end, take turns expanding
        one vertex each. They stop when one reaches a vertex of the other
        (the edge lies on a cycle) or when either runs out of vertices (a
        bridge), so a bridge costs about twice the smaller side it
        separates. Each side's queue is a list read through a head index.
        A vertex reached from u is marked a and one reached from v is
        marked b = a + 1, the call's two stamps; any mark below a is
        unmarked.
        """
        adj, mark = self.adj, self._mark
        a = self._stamp + 1
        b = self._stamp = a + 1
        adj[u].remove(v)
        adj[v].remove(u)
        try:
            mark[u] = a
            mark[v] = b
            qa, qb = [u], [v]
            ia = ib = 0
            while True:
                if ia == len(qa):
                    return False
                for w in adj[qa[ia]]:
                    t = mark[w]
                    if t < a:
                        mark[w] = a
                        qa.append(w)
                    elif t == b:
                        return True
                ia += 1
                if ib == len(qb):
                    return False
                for w in adj[qb[ib]]:
                    t = mark[w]
                    if t < a:
                        mark[w] = b
                        qb.append(w)
                    elif t == a:
                        return True
                ib += 1
        finally:
            adj[u].add(v)
            adj[v].add(u)


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


def find_closed_twins(g: Graph) -> tuple[tuple[int, int], ...]:
    """All pairs u < v with N[u] = N[v], sorted. Empty iff g is identifiable."""
    return _pairs(_groups(range(g.n), closed_neighborhood_masks(g)).values())


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
    for u, v in g.edges:
        common = g.adj[u] & g.adj[v]
        if common:
            return tuple(sorted((u, v, min(common))))  # type: ignore[return-value]
    return None


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
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


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def delete(
    g: Graph,
    vertices: Iterable[int] = (),
    edges: Iterable[tuple[int, int]] = (),
) -> tuple[Graph, dict[int, int]]:
    """Remove vertices and/or edges; returns the new graph and the old-to-new
    vertex id map (surviving vertices only, order preserved).

    Deleting a vertex drops its incident edges. Asking to delete a missing
    vertex or edge raises.
    """
    vs = set(vertices)
    for v in vs:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    present = set(g.edges)
    drop: set[Edge] = set()
    for u, v in edges:
        e = _norm_edge(u, v)
        if e not in present:
            raise EdgeError(f"edge {e} not in graph")
        drop.add(e)
    keep = [v for v in range(g.n) if v not in vs]
    old_to_new = {v: i for i, v in enumerate(keep)}
    new_edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges
        if u not in vs and v not in vs and (u, v) not in drop
    ]
    return Graph(len(keep), new_edges), old_to_new


def induced_subgraph(
    g: Graph, vertices: Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices.

    Returns the subgraph (relabelled 0..k-1 in sorted original order) and the
    new-to-old id table.
    """
    kept = set(vertices)
    keep = sorted(kept)
    for v in keep:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    drop = [v for v in range(g.n) if v not in kept]
    sub, old_to_new = delete(g, vertices=drop)
    del old_to_new  # identical to enumerate(keep)
    return sub, tuple(keep)


def bridges(g: Graph | MutableGraph) -> tuple[Edge, ...]:
    """All bridge edges (edges whose removal disconnects their component).

    Iterative depth-first search with low points: the tree edge (p, v) is
    a bridge when no edge from the subtree of v other than (p, v) itself
    reaches p or above.
    """
    n, adj = g.n, g.adj
    disc = [-1] * n
    low = [0] * n
    out: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # Each frame is (vertex, tree parent, iterator over its neighbours).
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            lv = low[v]
            for w in it:
                dw = disc[w]
                if dw == -1:
                    low[v] = lv
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if dw < lv and w != p:
                    lv = dw
            else:
                stack.pop()
                low[v] = lv
                if p != -1:
                    if lv < low[p]:
                        low[p] = lv
                    elif lv > disc[p]:
                        out.append(_norm_edge(p, v))
    return tuple(sorted(out))


def pick_cycle_edge(g: Graph | MutableGraph) -> Edge:
    """A deterministic non-bridge edge: maximum degree sum, then first in
    edges order (the smallest pair for a Graph).

    Raises NoCycleEdgeError when the graph is a forest.

    On a MutableGraph the choice is incremental over a run of deletions
    (see MutableGraph): only the edge at the top of its integer-keyed
    candidate heap is tested, by a two-sided search that ignores the edge
    and marks vertices with the call's own stamps in a list the
    MutableGraph keeps, and bridges found on the way are never tested
    again. A Graph gets a fresh MutableGraph.
    In the typical case a pick costs a few heap operations and a short
    search, not a pass over the whole graph. In the worst case, an edge on
    only one long cycle, the search still explores its whole 2-edge-connected
    component, so a pick can cost as much as a full bridge search.

    The degree-sum rule is load-bearing: a picker that took the non-tree
    edges of a DFS spanning tree picked an edge with both ends of degree 2
    in a level of maximum degree 3 on random_triangle_free(10, 12, 19),
    whose G* hub, a 4-vertex path or cycle, then missed its bound.
    """
    state = g if isinstance(g, MutableGraph) else MutableGraph(g)
    return state._pick_cycle_edge()


def linear_order(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Recognise paths and cycles.

    Returns ("path", order) or ("cycle", order) with a deterministic vertex
    order along the graph, or None when g is not a connected graph of
    maximum degree <= 2 (the single vertex counts as a path).
    """
    if g.n == 0 or not is_connected(g) or g.max_degree() > 2:
        return None
    if g.n == 1:
        return ("path", (0,))
    ends = [v for v in range(g.n) if g.degree(v) <= 1]
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
        nxt = min(w for w in g.adj[cur] if w != prev)
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
    numbers.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, a, b in _int_pairs(text):
        if header is None:
            if a < 0 or b < 0:
                raise GraphFormatError(
                    f"header must be 'n m' with n, m >= 0, got {a} {b}", lineno
                )
            header = (a, b)
            continue
        n = header[0]
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(
                f"edge ({a}, {b}) out of range for n={n}", lineno
            )
        if a == b:
            raise GraphFormatError(f"loop at vertex {a}", lineno)
        e = _norm_edge(a, b)
        if e in seen:
            raise GraphFormatError(f"duplicate edge {e}", lineno)
        seen.add(e)
        edges.append(e)
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header promises {header[1]} edges, found {len(edges)}"
        )
    return Graph(header[0], edges)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())
