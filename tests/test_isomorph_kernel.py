"""The isomorphism kernel: colour refinement and the matching search.

Colours, invariant keys and maps of a seeded corpus are pinned by digest.
The digests were recorded from the kernel that re-sorted every vertex's
neighbour colours each round and searched recursively, checking each
candidate against every mapped pair; the bitmask kernel must return the
same tuples and the same maps. Hypothesis properties compare the package
with a naive copy of that kernel, and check that the final colouring is
equitable.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Graph, all_family_ids, find_isomorphism, make_family
from idcodes.isomorph import invariant_key, refine_colors


def _naive_refine(g: Graph) -> tuple[int, ...]:
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


def _naive_find(g: Graph, h: Graph) -> dict[int, int] | None:
    if g.n != h.n or g.m != h.m:
        return None
    cg = _naive_refine(g)
    ch = _naive_refine(h)
    if sorted(cg) != sorted(ch):
        return None
    class_size: dict[int, int] = {}
    for c in cg:
        class_size[c] = class_size.get(c, 0) + 1
    order = sorted(
        range(g.n), key=lambda v: (class_size[cg[v]], -g.degree(v), v)
    )
    by_color: dict[int, list[int]] = {}
    for w in range(h.n):
        by_color.setdefault(ch[w], []).append(w)
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in by_color.get(cg[v], ()):
            if used[w]:
                continue
            if all(g.has_edge(v, pv) == h.has_edge(w, pw)
                   for pv, pw in mapping.items()):
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                del mapping[v]
                used[w] = False
        return False

    return dict(mapping) if extend(0) else None


def _random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = list(combinations(range(n), 2))
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def _relabeled(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _cubic(n: int, seed: int) -> Graph:
    """A random 3-regular simple graph by rejection-sampled pairings."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph(n, edges)


def _corpus() -> list[Graph]:
    """Catalog members, seeded random graphs with n <= 14, cubic graphs
    (which refinement cannot split), and a relabelled copy of each."""
    rng = random.Random(20261018)
    base = [make_family(fid).graph for fid in all_family_ids()]
    for _ in range(240):
        n = rng.randint(0, 14)
        m = rng.randint(0, n * (n - 1) // 2)
        base.append(_random_graph(n, m, rng.randrange(10**9)))
    base += [_cubic(rng.choice((8, 10, 12)), rng.randrange(10**9))
             for _ in range(24)]
    return base + [_relabeled(g, i) for i, g in enumerate(base)]


def _fresh(g: Graph) -> Graph:
    return Graph(g.n, g.edges)


def _colors() -> list[str]:
    return [f"{refine_colors(_fresh(g))}\n" for g in _corpus()]


def _keys() -> list[str]:
    return [f"{invariant_key(_fresh(g))}\n" for g in _corpus()]


def _maps() -> list[str]:
    graphs = _corpus()
    half = len(graphs) // 2
    pairs = [(graphs[i], graphs[half + i]) for i in range(half)]
    pairs += [(graphs[half + i], graphs[i]) for i in range(half)]
    # Every pair of graphs with one invariant key, isomorphic or not.
    buckets: dict[tuple, list[Graph]] = {}
    for g in graphs:
        buckets.setdefault(invariant_key(_fresh(g)), []).append(g)
    pairs += [p for b in buckets.values() for p in combinations(b, 2)]
    out = []
    for g, h in pairs:
        mapping = find_isomorphism(_fresh(g), _fresh(h))
        items = None if mapping is None else sorted(mapping.items())
        out.append(f"{items}\n")
    return out


# record kind: (records, sha256 of the concatenated records)
PINNED = {
    "colors": (
        _colors,
        "20f1ba4c9de74c9171ff3ed89bceebe7803de9f55fde60701bc232bf0e9cd8cf",
    ),
    "keys": (
        _keys,
        "f77405efc142f098360c93a2da4acb03f2dc621957d932c357898730d362ce21",
    ),
    "maps": (
        _maps,
        "7a9285e90f223e54563a33bdd9b2ff3ebecd8d99e58606b3fb29574970345d49",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_kernel_outputs_match_pinned_digests(kind):
    records, expected = PINNED[kind]
    digest = hashlib.sha256("".join(records()).encode("ascii")).hexdigest()
    assert digest == expected


@st.composite
def graphs(draw, max_n: int = 11):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, [p for p, b in zip(pairs, bits) if b])


@st.composite
def graph_pairs(draw):
    """A graph and either a relabelled copy, a copy with one edge moved,
    or an unrelated graph of the same order."""
    g = draw(graphs())
    h = _relabeled(g, draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(("copy", "moved", "other")))
    if kind == "moved" and 0 < h.m < h.n * (h.n - 1) // 2:
        absent = [p for p in combinations(range(h.n), 2) if p not in h.edges]
        edges = list(h.edges)
        edges[draw(st.integers(0, len(edges) - 1))] = draw(
            st.sampled_from(absent))
        h = Graph(h.n, edges)
    elif kind == "other":
        h = _random_graph(g.n, draw(st.integers(0, g.n * (g.n - 1) // 2)),
                          draw(st.integers(0, 10**9)))
    return g, h


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_kernel_matches_naive_kernel(pair):
    g, h = pair
    assert refine_colors(g) == _naive_refine(g)
    assert refine_colors(h) == _naive_refine(h)
    assert find_isomorphism(g, h) == _naive_find(g, h)
    assert find_isomorphism(h, g) == _naive_find(h, g)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=14))
def test_final_colouring_is_equitable(g):
    colors = refine_colors(g)
    profile: dict[int, set] = {}
    for v in range(g.n):
        counts: dict[int, int] = {}
        for w in g.adj[v]:
            counts[colors[w]] = counts.get(colors[w], 0) + 1
        profile.setdefault(colors[v], set()).add(tuple(sorted(counts.items())))
    assert all(len(p) == 1 for p in profile.values())
    assert sorted(set(colors)) == list(range(len(set(colors))))


def test_large_star_matches_without_recursion():
    # A search that recursed once per mapped vertex would pass the default
    # recursion limit of 1,000 here.
    n = 1500
    g = Graph(n, [(0, v) for v in range(1, n)])
    h = _relabeled(g, 1500)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert sorted(mapping) == list(range(n))
    assert sorted(mapping.values()) == list(range(n))
    for u, v in g.edges:
        assert h.has_edge(mapping[u], mapping[v])
