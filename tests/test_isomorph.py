"""Isomorphism backtracking on small graphs."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from idcodes import (
    Graph,
    all_family_ids,
    find_isomorphism,
    make_family,
)
import idcodes.isomorph
from idcodes.isomorph import invariant_key, refine_colors
from test_isomorph_kernel import _cubic, _naive_find, _naive_refine, graphs


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
    assert find_isomorphism(c6, two_triangles) is None
    # Two distinct trees with degree sequence (1,1,1,2,2,2,3): legs of
    # lengths 2,2,2 versus 1,2,3 around the one degree-3 vertex.
    even_spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    lopsided = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert sorted(even_spider.degree(v) for v in range(7)) == sorted(
        lopsided.degree(v) for v in range(7)
    )
    assert find_isomorphism(even_spider, lopsided) is None


def test_size_mismatches_rejected_fast():
    assert find_isomorphism(random_graph(5, 4, 1), random_graph(6, 4, 1)) is None
    assert find_isomorphism(random_graph(5, 4, 2), random_graph(5, 5, 2)) is None


def test_refine_colors_distinguishes_by_role():
    p3 = Graph(3, [(0, 1), (1, 2)])
    colors = refine_colors(p3)
    assert colors[0] == colors[2] != colors[1]
    # Color multiset is a relabeling invariant.
    g = random_graph(7, 9, 11)
    h = permuted(g, 3)
    assert sorted(refine_colors(g)) == sorted(refine_colors(h))


def _copy(g: Graph) -> Graph:
    """A fresh copy, which has never been refined."""
    return Graph(g.n, g.edges)


def _dedup(graphs: list[Graph]) -> list[tuple[Graph, Graph, dict | None]]:
    """Deduplicate as the benchmark does: bucket each graph by
    invariant_key, then match each bucket representative against it with
    find_isomorphism until one maps. Returns every (source, target, map)."""
    buckets: dict[tuple, list[Graph]] = {}
    calls = []
    for g in graphs:
        reps = buckets.setdefault(invariant_key(g), [])
        for rep in reps:
            mapping = find_isomorphism(rep, g)
            calls.append((rep, g, mapping))
            if mapping is not None:
                break
        else:
            reps.append(g)
    return calls


def test_colouring_is_computed_once_per_graph(monkeypatch):
    # C6 and two triangles share every invariant, so their bucket holds
    # two representatives and a copy of either meets both.
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    bases = [random_graph(9, 12, seed) for seed in range(3)]
    bases += [c6, two_triangles]
    graphs = bases + [permuted(g, seed) for g in bases for seed in (7, 8, 9)]
    random.Random(15).shuffle(graphs)
    colors = [refine_colors(_copy(g)) for g in graphs]
    refined, ordered = [], []
    iso = idcodes.isomorph
    refine, search_order = iso._refine, iso._search_order
    monkeypatch.setattr(
        iso, "_refine", lambda g: refined.append(id(g)) or refine(g))
    monkeypatch.setattr(
        iso, "_search_order",
        lambda g, p: ordered.append(id(g)) or search_order(g, p))
    calls = _dedup(graphs) + _dedup(graphs)
    assert [refine_colors(g) for g in graphs] == colors
    monkeypatch.undo()
    assert sorted(refined) == sorted(id(g) for g in graphs)
    sources = {id(g) for g, _, _ in calls}
    assert sorted(ordered) == sorted(sources)
    # Every source met at least three targets in each run.
    assert len(sources) == len(bases)
    assert min(Counter(id(g) for g, _, _ in calls).values()) >= 6
    for g, h, mapping in calls:
        assert mapping == find_isomorphism(_copy(g), _copy(h))
    # Every graph but the first of its class maps, in each run, and
    # graphs with one key that are not isomorphic do not.
    misses = sum(m is None for _, _, m in calls)
    assert len(calls) - misses == 2 * (len(graphs) - len(bases))
    assert misses > 0


def test_degenerate_inputs_keep_their_keys_and_maps():
    empty, single, edgeless = Graph(0, []), Graph(1, []), Graph(3, [])
    split = Graph(7, [(0, 1), (1, 2), (4, 5)])
    split_relabelled = Graph(7, [(6, 3), (3, 0), (2, 5)])
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert invariant_key(empty) == (0, 0, ())
    assert invariant_key(single) == (1, 0, ((0, 1),))
    assert invariant_key(edgeless) == (3, 0, ((0, 3),))
    assert invariant_key(split) == invariant_key(split_relabelled) == (
        7, 3, ((0, 2), (1, 2), (2, 2), (3, 1)))
    assert invariant_key(c6) == invariant_key(two_triangles) == (
        6, 6, ((0, 6),))
    assert find_isomorphism(empty, Graph(0, [])) == {}
    assert find_isomorphism(single, Graph(1, [])) == {0: 0}
    assert find_isomorphism(edgeless, Graph(3, [])) == {0: 0, 1: 1, 2: 2}
    assert find_isomorphism(empty, single) is None
    assert find_isomorphism(split, split_relabelled) == {
        0: 0, 1: 3, 2: 6, 3: 1, 4: 2, 5: 5, 6: 4}
    assert find_isomorphism(split_relabelled, split) == {
        0: 0, 1: 3, 2: 4, 3: 1, 4: 6, 5: 5, 6: 2}
    assert find_isomorphism(c6, two_triangles) is None
    assert find_isomorphism(two_triangles, c6) is None
    assert find_isomorphism(c6, c6) == {v: v for v in range(6)}


def _check_profile(g: Graph) -> None:
    """The profile's colours are the naive kernel's, its classes list each
    colour's vertices in ascending order, and its histogram counts them."""
    colors = refine_colors(g)
    profile = g._iso
    assert colors == _naive_refine(g)
    assert len(profile.classes) == len(set(colors))
    assert profile.classes == [
        [v for v in range(g.n) if colors[v] == c]
        for c in range(len(profile.classes))
    ]
    assert profile.histogram == tuple(enumerate(map(len, profile.classes)))


# Refinements that run for many rounds, so that most classes are skipped in
# most rounds: a 40-vertex path splits one class per round, next to the
# class split the round before, for 18 rounds; a caterpillar (one leg per
# spine vertex, a second leg at one end) splits along its spine from both
# ends for 10 rounds; in a spider with legs of 5, 6 and 7 edges the part a
# split renames is not always the part whose neighbours split next.
_PATH40 = Graph(40, [(i, i + 1) for i in range(39)])
_CATERPILLAR = Graph(41, [(i, i + 1) for i in range(19)]
                     + [(i, 20 + i) for i in range(20)] + [(0, 40)])
_SPIDER = Graph(19, [(0, 1), (0, 6), (0, 12)] + [
    (v, v + 1) for v in (*range(1, 5), *range(6, 11), *range(12, 18))])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=14))
@example(_PATH40)
@example(_CATERPILLAR)
@example(_SPIDER)
def test_profile_classes_are_the_colour_classes(g):
    _check_profile(g)
    h = permuted(g, g.n)
    _check_profile(h)
    assert find_isomorphism(g, h) == _naive_find(g, h)


def test_search_starts_from_the_rarest_colour_class():
    # Two degree classes, of sizes 2 and 4. Mapping the pair of degree-3
    # vertices first finds this map; ordering by degree alone finds another.
    g = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3),
                  (2, 4), (3, 4), (3, 5), (4, 5)])
    h = Graph(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5),
                  (2, 3), (2, 5), (3, 4), (3, 5)])
    assert find_isomorphism(g, h) == {0: 2, 1: 3, 2: 4, 3: 0, 4: 1, 5: 5}


@st.composite
def _warm_cases(draw):
    """A graph, a relabelled copy and a few other graphs of its order."""
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))

    def graph():
        return Graph(n, [p for p in pairs if draw(st.booleans())])

    g = graph()
    others = [graph() for _ in range(draw(st.integers(1, 3)))]
    others.append(permuted(g, draw(st.integers(0, 10**9))))
    return g, permuted(g, draw(st.integers(0, 10**9))), others


@settings(max_examples=200, deadline=None)
@given(_warm_cases())
def test_warm_profile_maps_like_a_cold_one(case):
    g, h, others = case
    for other in others:
        find_isomorphism(g, other)
        find_isomorphism(other, g)
    find_isomorphism(h, g)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert mapping == find_isomorphism(_copy(g), _copy(h)) == _naive_find(g, h)


def test_verdicts_and_maps_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261019)
    graphs = []
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(10**9))
        graphs += [g, permuted(g, rng.randrange(10**9))]
    # Cubic graphs: refinement leaves each one colour class.
    graphs += [_cubic(rng.choice((8, 10)), rng.randrange(10**9))
               for _ in range(16)]
    buckets: dict[tuple, list[Graph]] = {}
    for g in graphs:
        buckets.setdefault(invariant_key(g), []).append(g)
    pairs = [p for b in buckets.values() for p in combinations(b, 2)]
    pairs += [(graphs[i], graphs[i + 2]) for i in range(0, 158, 2)]

    def to_nx(g: Graph):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    same_key_apart = 0
    for g, h in pairs:
        mapping = find_isomorphism(g, h)
        assert nx.is_isomorphic(to_nx(g), to_nx(h)) == (mapping is not None)
        if mapping is None:
            same_key_apart += invariant_key(g) == invariant_key(h)
            continue
        assert sorted(mapping) == sorted(mapping.values()) == list(range(g.n))
        assert sorted(
            tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges
        ) == list(h.edges)
    assert same_key_apart >= 20


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
            assert (find_isomorphism(g, h) is not None) == naive


def test_catalog_members_pairwise_distinct():
    entries = [make_family(fid) for fid in all_family_ids()]
    for a, b in combinations(entries, 2):
        assert find_isomorphism(a.graph, b.graph) is None


def test_automorphism_count_sanity():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert oracles.automorphism_count(5, c5.edges) == 10  # dihedral
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert oracles.automorphism_count(4, star.edges) == 6
