"""Isomorphism backtracking on small graphs."""

from __future__ import annotations

import random
from itertools import combinations

import oracles
from idcodes import (
    Graph,
    all_family_ids,
    find_isomorphism,
    is_isomorphic,
    make_family,
)
import idcodes.isomorph
from idcodes.isomorph import invariant_key, refine_colors


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def permuted(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabeled_graphs_match_with_valid_mapping():
    for seed in range(40):
        g = random_graph(2 + seed % 8, seed % 14, 6000 + seed)
        h = permuted(g, seed)
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert sorted(mapping) == list(range(g.n))
        assert sorted(mapping.values()) == list(range(g.n))
        for u, v in combinations(range(g.n), 2):
            assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
        assert invariant_key(g) == invariant_key(h)


def test_same_degree_sequence_not_isomorphic():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(c6, two_triangles)
    # Two distinct trees with degree sequence (1,1,1,2,2,2,3): legs of
    # lengths 2,2,2 versus 1,2,3 around the one degree-3 vertex.
    even_spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    lopsided = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert sorted(even_spider.degree(v) for v in range(7)) == sorted(
        lopsided.degree(v) for v in range(7)
    )
    assert not is_isomorphic(even_spider, lopsided)


def test_size_mismatches_rejected_fast():
    assert not is_isomorphic(random_graph(5, 4, 1), random_graph(6, 4, 1))
    assert not is_isomorphic(random_graph(5, 4, 2), random_graph(5, 5, 2))


def test_refine_colors_distinguishes_by_role():
    p3 = Graph(3, [(0, 1), (1, 2)])
    colors = refine_colors(p3)
    assert colors[0] == colors[2] != colors[1]
    # Color multiset is a relabeling invariant.
    g = random_graph(7, 9, 11)
    h = permuted(g, 3)
    assert sorted(refine_colors(g)) == sorted(refine_colors(h))


def test_colouring_is_computed_once_per_graph(monkeypatch):
    bases = [random_graph(9, 12, seed) for seed in range(3)]
    graphs = bases + [permuted(g, 7) for g in bases]
    pairs = [(g, h) for g in graphs for h in graphs]
    # Colours and mappings of fresh copies, which have never been refined.
    def copy(g):
        return Graph(g.n, g.edges)

    colors = [refine_colors(copy(g)) for g in graphs]
    mappings = [find_isomorphism(copy(g), copy(h)) for g, h in pairs]
    refined = []
    refine = idcodes.isomorph._refine
    monkeypatch.setattr(
        idcodes.isomorph, "_refine", lambda g: refined.append(id(g)) or refine(g)
    )
    for _ in range(2):
        assert [find_isomorphism(g, h) for g, h in pairs] == mappings
        assert [refine_colors(g) for g in graphs] == colors
    assert sorted(refined) == sorted(id(g) for g in graphs)


def test_nonisomorphic_verdict_matches_bruteforce():
    # Exhaustive cross-check on all graphs of order 4.
    pairs = list(combinations(range(4), 2))
    graphs = []
    for mask in range(1 << 6):
        graphs.append(
            Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
        )
    for i in range(0, len(graphs), 7):
        for j in range(0, len(graphs), 5):
            g, h = graphs[i], graphs[j]
            naive = False
            if g.m == h.m:
                from itertools import permutations

                for perm in permutations(range(4)):
                    if all(
                        h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
                        for u, v in pairs
                    ):
                        naive = True
                        break
            assert is_isomorphic(g, h) == naive


def test_catalog_members_pairwise_distinct():
    entries = [make_family(fid) for fid in all_family_ids()]
    for a, b in combinations(entries, 2):
        assert not is_isomorphic(a.graph, b.graph)


def test_automorphism_count_sanity():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert oracles.automorphism_count(5, c5.edges) == 10  # dihedral
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert oracles.automorphism_count(4, star.edges) == 6
