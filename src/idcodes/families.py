"""The exceptional families: the twelve maximum-degree-3 trees, the three
small extras (P4, C4, C7), and the stars.

These are exactly the connected triangle-free graphs whose minimum
identifying code meets delta * gamma = (delta - 1) * n + 1; everything else
in the class stays strictly below (delta - 1) * n / delta * delta. The
catalog stores one concrete labelling of each member together with an
optimal code in that labelling; a vertex map onto an arbitrary labelling
transfers the code. The map comes from isomorphism matching at delta 3 and
from the degree sequence for the delta-star, the only member past it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .checks import is_identifying
from .errors import GuaranteeError, UnknownFamilyError
from .graphs import Graph, MutableGraph, _admissible_addition
from .isomorph import find_isomorphism


@dataclass(frozen=True)
class FamilyId:
    """Tag of a catalog family: one of T0..T11, P4, C4, C7, or STAR with a
    degree parameter."""

    kind: str
    delta: int | None = None

    def __str__(self) -> str:
        if self.kind == "STAR":
            return f"Star({self.delta})"
        return self.kind

    @staticmethod
    def parse(text: str) -> "FamilyId":
        tag = text.strip()
        upper = tag.upper()
        if upper in _FIXED_KINDS:
            return FamilyId(upper)
        m = re.fullmatch(r"STAR\((\d+)\)", upper)
        if m:
            return star(int(m.group(1)))
        raise UnknownFamilyError(
            f"unknown family tag {tag!r}; expected T0..T11, P4, C4, C7, or Star(d)"
        )


_TREE_KINDS = tuple(f"T{i}" for i in range(12))
_FIXED_KINDS = frozenset(_TREE_KINDS) | {"P4", "C4", "C7"}

T0, T1, T2, T3, T4, T5, T6, T7, T8, T9, T10, T11 = (
    FamilyId(k) for k in _TREE_KINDS
)
P4 = FamilyId("P4")
C4 = FamilyId("C4")
C7 = FamilyId("C7")


def star(delta: int) -> FamilyId:
    """The star with delta leaves. Requires delta >= 3; Star(3) is T0 and
    resolves to it at catalog lookup."""
    if delta < 3:
        raise UnknownFamilyError(f"stars need delta >= 3, got {delta}")
    return FamilyId("STAR", delta)


@dataclass(frozen=True)
class CatalogEntry:
    """A family member in its catalog labelling with an optimal code."""

    family: FamilyId
    graph: Graph
    code: tuple[int, ...]
    gamma: int


# Catalog labellings. Codes are optimal identifying codes (sizes re-derived
# by exact search in the test suite). Each tree: gamma = (2n + 1) / 3.
_TREE_DATA: dict[str, tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]] = {
    "T0": (4, ((0, 1), (1, 2), (1, 3)), (0, 2, 3)),
    "T1": (7, ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)), (0, 2, 3, 5, 6)),
    "T2": (7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)), (1, 2, 3, 4, 5)),
    "T3": (
        10,
        ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (3, 7), (7, 8), (8, 9)),
        (1, 2, 5, 6, 7, 8, 9),
    ),
    "T4": (
        10,
        ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9)),
        (0, 2, 3, 5, 6, 8, 9),
    ),
    "T5": (
        10,
        ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9)),
        (0, 2, 3, 5, 6, 8, 9),
    ),
    "T6": (
        13,
        ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (3, 7), (7, 8), (7, 9),
         (0, 10), (10, 11), (10, 12)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12),
    ),
    "T7": (
        13,
        ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12), (0, 4), (4, 5),
         (4, 6), (0, 7), (7, 8), (7, 9)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12),
    ),
    "T8": (
        16,
        ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (3, 7), (7, 8), (7, 9),
         (0, 10), (10, 11), (10, 12), (0, 13), (13, 14), (13, 15)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15),
    ),
    "T9": (
        16,
        ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12), (2, 13), (13, 14),
         (13, 15), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15),
    ),
    "T10": (
        19,
        ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12), (2, 13), (13, 14),
         (13, 15), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9), (3, 16),
         (16, 17), (16, 18)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18),
    ),
    "T11": (
        22,
        ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12), (2, 13), (13, 14),
         (13, 15), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9), (3, 16),
         (16, 17), (16, 18), (3, 19), (19, 20), (19, 21)),
        (0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21),
    ),
}


def make_standard(kind: str, *params: int) -> Graph:
    """Named constructions: path n, cycle n, star d, complete_bipartite a b."""
    if kind == "path":
        (n,) = params
        if n < 1:
            raise ValueError(f"path order must be >= 1, got {n}")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError(f"cycle order must be >= 3, got {n}")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        (d,) = params
        if d < 1:
            raise ValueError(f"star needs >= 1 leaves, got {d}")
        return Graph(d + 1, [(0, i) for i in range(1, d + 1)])
    if kind == "complete_bipartite":
        a, b = params
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite needs positive part sizes")
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    raise ValueError(f"unknown construction kind {kind!r}")


def all_family_ids() -> tuple[FamilyId, ...]:
    """The fifteen fixed catalog members, trees first. Stars are
    parameterised and not listed."""
    return tuple(FamilyId(k) for k in _TREE_KINDS) + (P4, C4, C7)


def _fixed_entry(kind: str) -> CatalogEntry:
    if kind in _TREE_DATA:
        n, edges, code = _TREE_DATA[kind]
        return CatalogEntry(FamilyId(kind), Graph(n, edges), code, (2 * n + 1) // 3)
    if kind == "P4":
        return CatalogEntry(P4, make_standard("path", 4), (0, 1, 2), 3)
    if kind == "C4":
        return CatalogEntry(C4, make_standard("cycle", 4), (0, 1, 2), 3)
    return CatalogEntry(C7, make_standard("cycle", 7), (0, 1, 2, 4, 6), 5)


# The fifteen fixed members, built once; entries are immutable.
_FIXED_ENTRIES = {fid.kind: _fixed_entry(fid.kind) for fid in all_family_ids()}
# The fixed members by (order, size), each list in catalog order.
_FIXED_BY_SHAPE: dict[tuple[int, int], list[CatalogEntry]] = {}
for _entry in _FIXED_ENTRIES.values():
    _FIXED_BY_SHAPE.setdefault((_entry.graph.n, _entry.graph.m), []).append(_entry)


def make_family(family: FamilyId) -> CatalogEntry:
    """The catalog entry for a family tag. Star(3) resolves to T0; a tag
    that names no member raises UnknownFamilyError."""
    if family.kind == "STAR":
        d = family.delta
        if d is None or d < 3:
            raise UnknownFamilyError(f"stars need delta >= 3, got {d}")
        if d == 3:
            return _FIXED_ENTRIES["T0"]
        g = make_standard("star", d)
        return CatalogEntry(family, g, tuple(range(1, d + 1)), d)
    entry = _FIXED_ENTRIES.get(family.kind)
    if entry is None:
        raise UnknownFamilyError(f"unknown family tag {family}")
    return entry


def match_family(
    g: Graph | MutableGraph, delta: int
) -> tuple[FamilyId, dict[int, int]] | None:
    """Membership of g in the exceptional family for maximum degree `delta`,
    together with a catalog-to-g vertex map.

    delta is the degree of the AMBIENT graph: membership of a subgraph
    component is always judged against the whole graph's maximum degree.
    Requires delta >= 3 (the family is defined from there up). g may be
    the descent's MutableGraph: order, size and degrees rule out almost
    every graph, and a Graph is built only for the isomorphism search
    against a fixed member of g's order and size.
    """
    if delta < 3:
        raise ValueError(f"the exceptional family needs delta >= 3, got {delta}")
    if delta >= 4:
        # Only the star survives past delta 3. With n = delta + 1 and
        # m = delta, a vertex of degree delta meets every edge, so g is the
        # star exactly when it has one. Its centre 0 maps there and the
        # leaves 1..delta to the other vertices, ascending.
        if g.n != delta + 1 or g.m != delta or g.max_degree() != delta:
            return None
        centre = next(v for v in range(g.n) if len(g.adj[v]) == delta)
        order = [centre] + [v for v in range(g.n) if v != centre]
        return (star(delta), dict(enumerate(order)))
    entries = _FIXED_BY_SHAPE.get((g.n, g.m), [])
    if entries and isinstance(g, MutableGraph):
        g = g.graph()
    for entry in entries:
        mapping = find_isomorphism(entry.graph, g)
        if mapping is not None:
            return (entry.family, mapping)
    return None


def in_f_delta(g: Graph, delta: int) -> FamilyId | None:
    """Family tag of g within the delta-exceptional family, or None."""
    hit = match_family(g, delta)
    return None if hit is None else hit[0]


def tree_plus_edge_code(family: FamilyId, e: tuple[int, int]) -> tuple[int, ...]:
    """An identifying code of T + e of size strictly below 2n/3, in the
    catalog labelling of the tree T.

    The addition must keep maximum degree 3 and triangle-freeness (T0 has no
    admissible addition at all: its non-edges all join leaves at distance
    two). The code drops one vertex from the catalog code when that
    identifies T + e, and otherwise swaps two of its vertices for one
    outside it; size is always gamma(T) - 1, the largest value below 2n/3.
    Over all admissible additions one of the two succeeds, so a miss
    raises GuaranteeError. A family that is no catalog tree raises
    UnknownFamilyError.
    """
    if family.kind == "STAR" and family.delta == 3:
        family = T0
    if family.kind not in _TREE_KINDS:
        raise UnknownFamilyError(f"{family} is not one of the catalog trees")
    entry = make_family(family)
    _admissible_addition(entry.graph, e)
    g = Graph(entry.graph.n, list(entry.graph.edges) + [tuple(e)])
    for drop in entry.code:
        cand = tuple(c for c in entry.code if c != drop)
        if is_identifying(g, cand):
            return cand
    # One deletion plus one swap, still cheap at catalog sizes.
    outside = [w for w in range(g.n) if w not in set(entry.code)]
    for d1 in entry.code:
        for d2 in entry.code:
            if d2 <= d1:
                continue
            base = tuple(c for c in entry.code if c not in (d1, d2))
            for w in outside:
                cand = tuple(sorted(base + (w,)))
                if is_identifying(g, cand):
                    return cand
    raise GuaranteeError(
        f"no code of size {entry.gamma - 1} within one swap of the catalog "
        f"code for {family} plus {e}"
    )


def random_triangle_free(n: int, target_edges: int, seed: int) -> Graph:
    """A random connected triangle-free graph: a random attachment spanning
    tree, then one shuffled pass over the non-edges accepting whatever keeps
    the graph triangle-free until the edge target is met.

    May return fewer than target_edges when the pass saturates.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if target_edges < n - 1:
        raise ValueError(
            f"target_edges {target_edges} cannot keep n={n} vertices connected"
        )
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        edges.append((u, v) if u < v else (v, u))

    for v in range(1, n):
        add(rng.randrange(v), v)
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in adj[u]
    ]
    rng.shuffle(pool)
    for u, v in pool:
        if len(edges) >= target_edges:
            break
        if not adj[u] & adj[v]:
            add(u, v)
    return Graph(n, edges)
