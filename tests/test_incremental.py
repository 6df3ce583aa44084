"""The iterative construction and its signature table.

Certificates are pinned by digest, so a change to any certificate byte
shows here. The sha256 values below were recorded for certificate v7.
Its exact search branches on the smallest open resolver set, so a path
plus a chord of at most 16 vertices may get another minimum of the same
size; every pinned certificate with no such step is byte-identical to its
v6 text apart from the version line. v6 codes every tree base of at most 16 vertices with the tree dynamic
program in place of the exact search, roots that program at the highest
label (so an ExactFallback step may pick another minimum), and codes a
path plus a chord above 16 vertices as a path whose restored edge is
patched; every pinned certificate with none of these steps is
byte-identical to its v5 text apart from the version line. v5's
ExactFallback step codes a tree over its bound with the tree dynamic
program instead of a capped search; every pinned certificate with no such
step is byte-identical to its v4 text apart from the version line.
v4's CorollaryPatch summary is "deleted t edges" for every t, with no
"(minimum m)" clause and no "already triangle-free" form; every pinned v4
certificate is byte-identical to its v3 text apart from the version line
and that summary. v3's near-triangle-free patch completes the base code on
the damaged vertices, and its certificates are byte-identical to their v2
text apart from the version line and the CorollaryPatch summary, which no
longer says "brute-force". v2 coded trees above the exact size by pruning
the whole vertex set; every certificate with no such tree step is
byte-identical to the v1 certificate of the recursive construction that
the iterative descent replaced. The signature table with its in-place
additions, the incremental prune, the cycle-edge picker with its spanning
forest and stamped forest-edge test, and the mask kernel are checked
against plain reference versions with hypothesis.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from idcodes import (
    Graph,
    NoCycleEdgeError,
    components,
    construct_near_triangle_free,
    construct_triangle_free,
    delete,
    is_identifying,
    pick_cycle_edge,
    random_triangle_free,
    serialize_certificate,
    unseparated_pairs,
)
from idcodes.checks import SignatureTable
from idcodes.construct import _prune
from idcodes.graphs import MutableGraph, _bits, closed_neighborhood_masks


def _sparse() -> list[Graph]:
    return [random_triangle_free(n, (3 * n) // 2, n) for n in (40, 80, 120, 160, 200)]


def _dense() -> list[Graph]:
    return [random_triangle_free(n, 5 * n, n + 1) for n in (40, 60, 80)]


def _repairs() -> list[Graph]:
    # Inputs whose traces reach GStar / ComponentAssembly, the tree DP
    # rescue, and the even chorded cycle.
    args = [(16, 24, 33), (16, 32, 10), (16, 48, 12), (24, 48, 25),
            (32, 64, 31), (32, 128, 13), (16, 32, 1)]
    return [random_triangle_free(*a) for a in args]


def _small() -> list[Graph]:
    # Catalog-sized inputs: FamilyHit, ClaimC, paths and cycles.
    out = []
    for n in range(7, 13):
        for m in range(n - 1, n + 6):
            for seed in range(3):
                g = random_triangle_free(n, m, seed)
                if g.max_degree() >= 2:
                    out.append(g)
    return out


def _planted(n: int, k: int, seed: int) -> Graph | None:
    """A sparse triangle-free graph plus k edges that each close a triangle."""
    rng = random.Random(seed)
    g = random_triangle_free(n, (3 * n) // 2, seed)
    edges = set(g.edges)
    adj = [set(a) for a in g.adj]
    while len(edges) < g.m + k:
        w = rng.randrange(n)
        if len(adj[w]) < 2:
            continue
        u, x = rng.sample(sorted(adj[w]), 2)
        e = (min(u, x), max(u, x))
        if e not in edges:
            edges.add(e)
            adj[u].add(x)
            adj[x].add(u)
    h = Graph(n, sorted(edges))
    return None if oracles.closed_twins(n, h.edges) else h


def _near() -> list[Graph]:
    gs = [_planted(n, k, 500 + n + k) for n in (30, 50, 70) for k in (1, 3)]
    return [g for g in gs if g is not None]


# group: (inputs, constructor, sha256 of the concatenated certificates)
PINNED = {
    "sparse": (
        _sparse,
        construct_triangle_free,
        "e609e75ce6ee216ce35cd9f7d001db607136149dab398b417e9af6cde0cbe2c7",
    ),
    "dense": (
        _dense,
        construct_triangle_free,
        "78817a1d11b2ba5568bc3ee63f8102c61640dc33baa748c7e56c0dc1b694a45f",
    ),
    "repairs": (
        _repairs,
        construct_triangle_free,
        "ca6645bf576577ab4b1bfd5e41e5f3e30b460e024274e0faa0ac12ab76d12b01",
    ),
    "small": (
        _small,
        construct_triangle_free,
        "f707c748aa0cc42c8d662eabf5016a895f3429caec71ad54292544397c00bef3",
    ),
    "near": (
        _near,
        construct_near_triangle_free,
        "c210cb23bd5787be45ba4c01458471192332060114a1b4ba40c336d2c59f9a57",
    ),
}


def _digest(graphs, build) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(serialize_certificate(build(g)).encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(PINNED))
def test_certificates_match_pinned_digests(group):
    graphs, build, expected = PINNED[group]
    assert _digest(graphs(), build) == expected


def test_high_cycle_rank_needs_no_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"recursion limit changed to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = random_triangle_free(120, 1200, 0)
    assert g.m - g.n + 1 > sys.getrecursionlimit()
    cert = construct_triangle_free(g)
    assert cert.verified and is_identifying(g, cert.code)


@st.composite
def graph_and_code(draw, max_n=14):
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(n - 1, 3 * n))
    g = random_triangle_free(n, m, draw(st.integers(0, 10**6)))
    code = draw(st.sets(st.integers(0, n - 1)))
    return g, code


@settings(max_examples=200, deadline=None)
@given(graph_and_code(), st.data())
def test_restore_reports_exactly_the_newly_unseparated_pairs(gc, data):
    g, code = gc
    e = data.draw(st.sampled_from(g.edges))
    g1 = delete(g, edges=[e])
    table = SignatureTable(g1.adj, code)
    identifying = table.identifies()
    assert identifying == is_identifying(g1, code)
    fresh = table.restore_edge(*e)
    before = set(unseparated_pairs(g1, code))
    assert fresh == tuple(sorted(set(unseparated_pairs(g, code)) - before))
    if identifying:
        # The ClaimB step: from an identifying code, the new pairs are all.
        assert fresh == unseparated_pairs(g, code)
        assert table.identifies() == (not fresh)


def _naive_prune(g: Graph, code: set[int]) -> set[int]:
    out = set(code)
    for c in sorted(code):
        if is_identifying(g, out - {c}):
            out.discard(c)
    return out


@settings(max_examples=200, deadline=None)
@given(graph_and_code(), st.booleans())
def test_incremental_prune_matches_naive_rule(gc, pad):
    g, code = gc
    if pad:
        # Mostly identifying starting codes, where vertices do get dropped.
        code = code | set(range(0, g.n, 2)) | {x for x in range(g.n) if g.degree(x) <= 1}
    table = _prune(g.adj, set(code))
    pruned = set(_bits(table.code_mask))
    assert pruned == _naive_prune(g, set(code))
    # The table is the pruned code's own, as a fresh build would give it.
    fresh = SignatureTable(g.adj, pruned)
    assert (table.sig, table.groups) == (fresh.sig, fresh.groups)


@settings(max_examples=100, deadline=None)
@given(graph_and_code())
def test_drops_leave_the_table_of_the_smaller_code(gc):
    g, code = gc
    # All of V identifies a connected triangle-free graph with n >= 3.
    table = SignatureTable(g.adj, set(range(g.n)))
    kept = {c for c in range(g.n) if c in code or not table.try_drop(c)}
    fresh = SignatureTable(g.adj, kept)
    assert table.identifies() and fresh.identifies()
    assert (table.code_mask, table.sig, table.groups) == (
        fresh.code_mask, fresh.sig, fresh.groups
    )


@settings(max_examples=200, deadline=None)
@given(graph_and_code(), st.data())
def test_add_leaves_the_table_of_the_larger_code(gc, data):
    g, code = gc
    outside = sorted(set(range(g.n)) - code)
    if not outside:
        return
    c = data.draw(st.sampled_from(outside))
    table = SignatureTable(g.adj, code)
    table.add(c)
    fresh = SignatureTable(g.adj, code | {c})
    # A group's members are compared as a set: their order is not kept.
    assert (table.code_mask, table.sig) == (fresh.code_mask, fresh.sig)
    assert {s: sorted(xs) for s, xs in table.groups.items()} == fresh.groups
    assert table.identifies() == fresh.identifies()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1])
                .map(tuple),
                max_size=3 * n,
            ),
        )
    ),
    st.data(),
)
def test_mutable_graph_tracks_edge_edits(ne, data):
    n, edges = ne
    state = MutableGraph(Graph(n, edges))
    current = sorted(edges)
    for _ in range(data.draw(st.integers(0, 2 * len(edges) + 1))):
        if current and data.draw(st.booleans()):
            e = data.draw(st.sampled_from(current))
            state.remove_edge(*e)
            current.remove(e)
        else:
            missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if (a, b) not in current]
            if not missing:
                continue
            e = data.draw(st.sampled_from(missing))
            state.add_edge(*e)
            current.append(e)
        g = Graph(n, current)
        assert state.graph() == g
        assert state.m == g.m and state.max_degree() == g.max_degree()
        # Removals keep the source order and a restored edge goes last.
        assert list(state.edges) == current


def _graph_strategy(min_n=2, max_n=12):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1])
                .map(tuple),
                max_size=3 * n,
            ),
        )
    )


def _oracle_pick(state: MutableGraph) -> tuple[int, int]:
    """The picker's rule from a brute-force bridge test of every edge:
    largest degree sum among non-bridges, first in edges order."""
    edges = list(state.edges)
    best, best_sum = None, -1
    for u, v in edges:
        s = len(state.adj[u]) + len(state.adj[v])
        if s > best_sum and not oracles.is_bridge(state.n, edges, (u, v)):
            best, best_sum = (u, v), s
    if best is None:
        raise NoCycleEdgeError("forest")
    return best


@settings(max_examples=200, deadline=None)
@given(_graph_strategy(), st.data())
def test_incremental_pick_matches_full_bridge_search(ne, data):
    n, edges = ne
    state = MutableGraph(Graph(n, edges))
    for _ in range(data.draw(st.integers(1, 2 * len(edges) + 2))):
        try:
            expected = _oracle_pick(state)
        except NoCycleEdgeError:
            expected = None
        if expected is None:
            with pytest.raises(NoCycleEdgeError):
                pick_cycle_edge(state)
        else:
            assert pick_cycle_edge(state) == expected
        op = data.draw(st.sampled_from(["descend", "remove", "add", "again"]))
        current = list(state.edges)
        if op == "descend" and expected is not None:
            state.remove_edge(*expected)
        elif op == "remove" and current:
            state.remove_edge(*data.draw(st.sampled_from(current)))
        elif op == "add":
            missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if b not in state.adj[a]]
            if missing:
                state.add_edge(*data.draw(st.sampled_from(missing)))


def _random_graph(n: int, m: int, seed: int) -> Graph:
    """m distinct random edges on n vertices, triangles allowed."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return Graph(n, edges)


@pytest.mark.parametrize("n", [40, 50, 60])
def test_incremental_pick_matches_full_bridge_search_on_long_descents(n):
    # A full descent to a spanning forest, far longer than the graphs the
    # hypothesis strategy draws, checked at every pick.
    for g in (
        random_triangle_free(n, (3 * n) // 2, n),
        random_triangle_free(n, 3 * n, n + 1),
        _random_graph(n, 2 * n, n + 2),
    ):
        state = MutableGraph(g)
        while True:
            try:
                expected = _oracle_pick(state)
            except NoCycleEdgeError:
                break
            assert pick_cycle_edge(state) == expected
            state.remove_edge(*expected)
        with pytest.raises(NoCycleEdgeError):
            pick_cycle_edge(state)
        assert state.m == g.n - len(components(g))


def _forest_edges(state: MutableGraph) -> list[tuple[int, int]]:
    forest = state._forest
    assert forest is not None
    assert all(a in forest[b] for a in range(state.n) for b in forest[a])
    return sorted((a, b) for a in range(state.n) for b in forest[a] if a < b)


def _assert_spanning_forest(state: MutableGraph) -> None:
    """The picker's forest holds only graph edges, has no cycle and joins
    the ends of every graph edge outside it."""
    if state._forest is None:
        return
    root = list(range(state.n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    forest = _forest_edges(state)
    assert set(forest) <= set(state.edges)
    for a, b in forest:
        ra, rb = find(a), find(b)
        assert ra != rb
        root[ra] = rb
    assert all(find(a) == find(b) for a, b in state.edges)


@settings(max_examples=200, deadline=None)
@given(_graph_strategy(), st.data())
def test_picker_keeps_a_spanning_forest(ne, data):
    n, edges = ne
    state = MutableGraph(Graph(n, edges))
    for _ in range(data.draw(st.integers(1, 3 * len(edges) + 3))):
        op = data.draw(st.sampled_from(["descend", "pick", "remove", "add"]))
        current = list(state.edges)
        if op in ("descend", "pick"):
            try:
                e = pick_cycle_edge(state)
            except NoCycleEdgeError:
                # Every edge is a bridge, so every edge is in the forest.
                assert _forest_edges(state) == sorted(current)
                continue
            assert e not in _forest_edges(state)
            if op == "descend":
                state.remove_edge(*e)
        elif op == "remove" and current:
            state.remove_edge(*data.draw(st.sampled_from(current)))
        elif op == "add":
            missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if b not in state.adj[a]]
            if missing:
                state.add_edge(*data.draw(st.sampled_from(missing)))
        _assert_spanning_forest(state)


def test_forest_goes_with_a_forest_edge_removal_or_any_addition():
    # A 4-cycle 0-1-2-3 with the pendant edge (3, 4). (0, 3) and (2, 3)
    # have the top degree sum, and the forest takes the later one, (2, 3),
    # so the pick (0, 3) is outside it and needs no test.
    state = MutableGraph(Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]))
    assert pick_cycle_edge(state) == (0, 3)
    assert state._stamp == 0  # no forest-edge test took stamps
    assert _forest_edges(state) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    state.remove_edge(0, 3)
    assert state._forest is not None
    # A path is all forest edges, each tested and found a bridge.
    with pytest.raises(NoCycleEdgeError):
        pick_cycle_edge(state)
    assert state._stamp == 2 * 4
    state.add_edge(0, 4)
    assert state._forest is None and state._heap is None
    assert pick_cycle_edge(state) == (0, 1)
    _assert_spanning_forest(state)
    # Removing a forest edge outside a pick drops the heap and the forest,
    # and the next pick rebuilds both.
    state.remove_edge(2, 3)
    assert state._forest is None and state._heap is None
    with pytest.raises(NoCycleEdgeError):
        pick_cycle_edge(state)
    assert _forest_edges(state) == sorted(state.edges)


@settings(max_examples=100, deadline=None)
@given(_graph_strategy(), st.data())
def test_cycle_test_on_a_reused_state_matches_a_plain_search(ne, data):
    # One MutableGraph answers many forest-edge tests in a row, between
    # edge removals (bridges included) and additions, so a mark left by an
    # earlier call must never read as a mark of the current one.
    n, edges = ne
    state = MutableGraph(Graph(n, edges))
    for _ in range(data.draw(st.integers(1, 4 * len(edges) + 4))):
        current = list(state.edges)
        op = data.draw(st.sampled_from(["ask", "ask", "remove", "add"]))
        if op == "ask" and current:
            if state._forest is None:
                state._build_picker()
            u, v = data.draw(st.sampled_from(_forest_edges(state)))
            if data.draw(st.booleans()):
                u, v = v, u
            expected = not oracles.is_bridge(n, current, (u, v))
            assert state._replaced(u, v) == expected
            # A non-bridge hands its place in the forest to another edge.
            assert ((min(u, v), max(u, v)) in _forest_edges(state)) != expected
            assert state.graph() == Graph(n, current)
            _assert_spanning_forest(state)
        elif op == "remove" and current:
            state.remove_edge(*data.draw(st.sampled_from(current)))
        elif op == "add":
            missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if b not in state.adj[a]]
            if missing:
                state.add_edge(*data.draw(st.sampled_from(missing)))


@settings(max_examples=100, deadline=None)
@given(_graph_strategy(1, 20), st.data())
def test_mask_kernel_matches_per_neighbour_loops(ne, data):
    n, edges = ne
    g = Graph(n, edges)
    code = data.draw(st.sets(st.integers(0, n - 1)))
    closed = []
    for v in range(n):
        m = 1 << v
        for w in g.adj[v]:
            m |= 1 << w
        closed.append(m)
    assert closed_neighborhood_masks(g) == closed
    code_mask = 0
    for c in code:
        code_mask |= 1 << c
    sig = []
    for v in range(n):
        s = code_mask & 1 << v
        for w in g.adj[v]:
            if code_mask >> w & 1:
                s |= 1 << w
        sig.append(s)
    assert SignatureTable(g.adj, code).sig == sig
    assert SignatureTable(MutableGraph(g).adj, code).sig == sig


def test_construction_runs_without_a_full_bridge_search(monkeypatch):
    # A pick outside the forest needs no test. A forest-edge test finds
    # either the level's pick or a bridge, which leaves the picker's heap
    # for good. The descent picks at most m - n + 1 edges and keeps n - 1,
    # so it makes at most m tests in all, where a bridge search per level
    # would make about m per level.
    tests = []
    replaced = MutableGraph._replaced

    def counted(self, u, v):
        tests.append((u, v))
        return replaced(self, u, v)

    monkeypatch.setattr(MutableGraph, "_replaced", counted)
    g = random_triangle_free(120, 1200, 0)
    for build in (construct_triangle_free, construct_near_triangle_free):
        tests.clear()
        cert = build(g)
        assert cert.verified and is_identifying(g, cert.code)
        assert 0 < len(tests) <= g.m
