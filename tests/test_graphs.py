"""Graph container, structural predicates, decompositions, file format."""

from __future__ import annotations

import random
import time

import pytest

import oracles
from idcodes import (
    EdgeError,
    Graph,
    GraphFormatError,
    NoCycleEdgeError,
    NotIdentifiableError,
    VertexRangeError,
    boundary_decomposition,
    components,
    delete,
    graph_hash,
    induced_subgraph,
    is_connected,
    linear_order,
    load_graph,
    parse_graph,
    pick_cycle_edge,
    serialize_graph,
    triangle_witness,
)
from idcodes.checks import _identifiable
from idcodes.graphs import MutableGraph


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def test_graph_rejects_bad_input():
    with pytest.raises(VertexRangeError,
                       match=r"^edge \(0, 3\) out of range for n=3$"):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError,
                       match=r"^edge \(-1, 2\) out of range for n=3$"):
        Graph(3, [(-1, 2)])
    with pytest.raises(VertexRangeError,
                       match=r"^vertex count must be >= 0, got -1$"):
        Graph(-1, [])
    with pytest.raises(EdgeError, match=r"^loop at vertex 1$"):
        Graph(3, [(1, 1)])
    with pytest.raises(EdgeError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, [(0, 1), (1, 0)])
    # Each edge is checked for range before it is checked for a loop, and
    # edges are checked in the order given.
    with pytest.raises(VertexRangeError, match=r"^edge \(3, 3\)"):
        Graph(3, [(3, 3)])
    with pytest.raises(EdgeError, match=r"^loop at vertex 2$"):
        Graph(3, [(0, 1), (2, 2), (1, 0)])


def test_graph_accessors():
    g = cycle(4)
    assert g.n == 4 and g.m == 4
    assert g.degree(0) == 2 and g.max_degree() == 2
    assert Graph(0, []).max_degree() == 0 and Graph(3, []).max_degree() == 0
    assert Graph(5, [(2, v) for v in (0, 1, 3, 4)]).max_degree() == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g == Graph(4, [(3, 0), (2, 3), (1, 2), (0, 1)])
    assert hash(g) == hash(cycle(4))


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_twins_match_bruteforce():
    # The checks gate raises the smallest closed twin pair exactly when the
    # brute-force oracle lists one.
    for seed in range(40):
        n = 2 + seed % 8
        g = random_graph(n, seed % 12, seed)
        twins = oracles.closed_twins(n, g.edges)
        if twins:
            with pytest.raises(NotIdentifiableError) as err:
                _identifiable(g)
            assert err.value.twins == twins[0]
        else:
            _identifiable(g)


def test_triangle_witness():
    assert triangle_witness(Graph(3, [(0, 1), (1, 2), (0, 2)])) == (0, 1, 2)
    assert triangle_witness(cycle(5)) is None
    for seed in range(60):
        g = random_graph(3 + seed % 7, 2 + seed % 14, 100 + seed)
        found = triangle_witness(g)
        assert (found is not None) == oracles.has_triangle(g.n, g.edges)
        if found is not None:
            a, b, c = found
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)


def test_components_and_connectivity():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert components(g) == ((0, 1, 2), (3, 4), (5,))
    assert not is_connected(g)
    assert is_connected(path(4))
    for seed in range(30):
        g = random_graph(1 + seed % 9, seed % 10, 200 + seed)
        assert is_connected(g) == oracles.connected(g.n, g.edges)


def test_delete_vertices_and_edges():
    # Vertices go through induced_subgraph, which relabels the survivors in
    # order; delete removes edges only and keeps the labels.
    g = cycle(5)
    sub, back = induced_subgraph(g, [4, 0, 3, 1])
    h = delete(sub, edges=[(0, 1)])
    assert h.n == 4
    assert back == (0, 1, 3, 4)
    assert set(h.edges) == {(2, 3), (0, 3)}
    assert delete(g, edges=[(1, 0)]) == Graph(5, [(1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(EdgeError):
        delete(g, edges=[(0, 2)])
    with pytest.raises(VertexRangeError):
        induced_subgraph(g, [7])


def test_induced_subgraph_adjacency():
    for seed in range(25):
        g = random_graph(8, 14, 300 + seed)
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(8), 5))
        sub, back = induced_subgraph(g, keep)
        assert list(back) == keep
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])


def test_induced_subgraph_is_linear():
    # The kept set is built once: dropping one end of a path of 6,000
    # vertices took over a second when it was rebuilt per vertex.
    g = path(6000)
    start = time.perf_counter()
    sub, back = induced_subgraph(g, range(1, 6000))
    elapsed = time.perf_counter() - start
    assert (sub.n, sub.m) == (5999, 5998) and back[0] == 1
    assert elapsed < 0.25


def test_subgraphs_and_connectivity_match_networkx():
    # networkx shares no code with the package: a second oracle for the
    # induced subgraph, components, connectivity and the picker's rule
    # (largest degree sum among non-bridges, first in edge order).
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261019)
    for _ in range(150):
        n = rng.randint(0, 14)
        g = random_graph(n, rng.randint(0, 2 * n), rng.randrange(10**9))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        keep = rng.sample(range(n), rng.randint(0, n))
        sub, back = induced_subgraph(g, keep)
        assert back == tuple(sorted(keep))
        assert sorted(
            tuple(sorted((back[a], back[b]))) for a, b in sub.edges
        ) == sorted(tuple(sorted(e)) for e in h.subgraph(keep).edges)
        assert components(g) == tuple(
            sorted(tuple(sorted(c)) for c in nx.connected_components(h))
        )
        if n:
            assert is_connected(g) == nx.is_connected(h)
        bridge_set = {tuple(sorted(e)) for e in nx.bridges(h)}
        on_cycles = [e for e in g.edges if e not in bridge_set]
        if not on_cycles:
            with pytest.raises(NoCycleEdgeError):
                pick_cycle_edge(g)
            continue
        best = max(on_cycles, key=lambda e: g.degree(e[0]) + g.degree(e[1]))
        assert pick_cycle_edge(g) == best


def test_pick_cycle_edge():
    with pytest.raises(NoCycleEdgeError):
        pick_cycle_edge(path(4))
    # Cycle with a pendant: the two cycle edges at the degree-3 vertex tie
    # on degree sum; lexicographic order settles it.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    assert pick_cycle_edge(g) == (0, 1)
    for seed in range(25):
        g = random_graph(8, 12, 500 + seed)
        if not is_connected(g) or g.m == g.n - 1:
            continue
        e = pick_cycle_edge(g)
        assert not oracles.is_bridge(g.n, g.edges, e)


def test_linear_order_recognition():
    kind, order = linear_order(path(6))
    assert kind == "path" and order == (0, 1, 2, 3, 4, 5)
    kind, order = linear_order(cycle(5))
    assert kind == "cycle" and order[0] == 0
    for i in range(5):
        a, b = order[i], order[(i + 1) % 5]
        assert cycle(5).has_edge(a, b)
    assert linear_order(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None
    assert linear_order(Graph(1, [])) == ("path", (0,))
    # Relabeled path still recognised, order respects adjacency.
    g = Graph(5, [(3, 1), (1, 4), (4, 0), (0, 2)])
    kind, order = linear_order(g)
    assert kind == "path" and order[0] == min(order[0], order[-1])
    for a, b in zip(order, order[1:]):
        assert g.has_edge(a, b)


def test_linear_order_reads_a_mutable_graph():
    # The descent recognises its paths and cycles on the MutableGraph, with
    # no Graph built, and must get the Graph's answer.
    shapes = [path(6), cycle(7), Graph(5, [(3, 1), (1, 4), (4, 0), (0, 2)]),
              Graph(4, [(0, 1), (0, 2), (0, 3)]), Graph(4, [(0, 1), (2, 3)])]
    for g in shapes:
        assert linear_order(MutableGraph(g)) == linear_order(g)
    state = MutableGraph(cycle(8))
    state.remove_edge(2, 3)
    assert linear_order(state) == ("path", (2, 1, 0, 7, 6, 5, 4, 3))


def test_serialize_parse_roundtrip():
    for seed in range(20):
        g = random_graph(2 + seed % 9, seed, 600 + seed)
        assert parse_graph(serialize_graph(g)) == g
    assert serialize_graph(path(3)) == "3 2\n0 1\n1 2\n"


def test_graph_hash_distinguishes():
    assert graph_hash(path(4)) == graph_hash(path(4))
    assert graph_hash(path(4)) != graph_hash(cycle(4))
    assert len(graph_hash(path(4))) == 64


def test_parse_accepts_comments_and_blank_lines():
    g = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g == path(3)


def test_parse_error_line_numbers():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("3 2\n0 1\nbroken\n")
    assert ei.value.line == 3
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("3 2\n0 1\n1 7\n")
    assert ei.value.line == 3
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("3 2\n0 1\n1 1\n")
    assert ei.value.line == 3
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("3 3\n0 1\n1 2\n0 1\n")
    assert ei.value.line == 4
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("# no graph\n-1 0\n")
    assert ei.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n0 1\n")  # header promises two edges


def test_load_graph(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(serialize_graph(cycle(6)))
    assert load_graph(str(p)) == cycle(6)


def test_boundary_decomposition_partition():
    # 6-cycle with a pendant on each of the two ends of edge (0, 1).
    g = Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (1, 7)],
    )
    bd = boundary_decomposition(g, 0, 1)
    assert bd.u == 0 and bd.v == 1
    assert bd.near_u == (5, 6) and bd.near_v == (2, 7)
    assert bd.boundary == (2, 5, 6, 7)
    assert set(bd.closed) == {0, 1, 2, 5, 6, 7}
    assert bd.far == (3, 4)
    assert bd.pair_components == ((3, 4),)
    assert bd.isolated == () and bd.large_components == ()
    with pytest.raises(EdgeError):
        boundary_decomposition(g, 0, 3)


def test_boundary_decomposition_sides_disjoint():
    for seed in range(30):
        g = random_graph(9, 12, 700 + seed)
        if triangle_witness(g) is not None or not g.edges:
            continue
        u, v = g.edges[seed % g.m]
        bd = boundary_decomposition(g, u, v)
        near_u, near_v = set(bd.near_u), set(bd.near_v)
        assert not (near_u & near_v)
        assert set(bd.closed) == {u, v} | near_u | near_v
        assert set(bd.far) == set(range(9)) - set(bd.closed)
        small = {x for p in bd.pair_components for x in p} | set(bd.isolated)
        large = {x for c in bd.large_components for x in c}
        assert small | large == set(bd.far) and not (small & large)
