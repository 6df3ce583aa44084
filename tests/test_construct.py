"""Certified construction pipeline and the triangle-deletion patch."""

from __future__ import annotations

import hashlib
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from idcodes import (
    BoundMissedError,
    Certificate,
    EdgeError,
    Graph,
    GuaranteeError,
    InvalidDeletionSetError,
    NotConnectedError,
    NotIdentifiableError,
    NotTriangleFreeError,
    certified_bound,
    construct_near_triangle_free,
    construct_triangle_free,
    gamma_id_exact,
    graph_hash,
    in_f_delta,
    is_identifying,
    FamilyId,
    make_family,
    path_identifying_code,
    random_triangle_free,
    serialize_certificate,
    triangle_deletion_set,
    triangle_witness,
)
import idcodes.construct
import idcodes.exact
import idcodes.families
from idcodes.checks import SignatureTable
from idcodes.construct import (
    CaseStep,
    STEP_COROLLARY_PATCH,
    STEP_DELTA2_CYCLE,
    STEP_DELTA2_PATH,
    STEP_FAMILY_HIT,
    _catalog_match,
    _hub_code,
    _repair,
    _tree_code,
)
from idcodes.graphs import MutableGraph, _bits

KNOWN_LABELS = {
    "Delta2Path",
    "Delta2Cycle",
    "TreeBase",
    "FamilyHit",
    "ClaimA",
    "ClaimB",
    "ClaimC",
    "GStar",
    "ComponentAssembly",
    "ExactFallback",
    "CorollaryPatch",
}


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def check_certificate(g: Graph, cert: Certificate) -> None:
    assert cert.verified
    assert cert.n == g.n and cert.delta == g.max_degree()
    assert cert.input_hash == graph_hash(g)
    assert cert.code == tuple(sorted(set(cert.code)))
    assert is_identifying(g, cert.code)
    assert cert.bound_den * len(cert.code) <= cert.bound_num
    assert {s.label for s in cert.trace} <= KNOWN_LABELS


def test_input_validation():
    with pytest.raises(ValueError):
        construct_triangle_free(Graph(2, [(0, 1)]))
    with pytest.raises(NotTriangleFreeError):
        construct_triangle_free(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotConnectedError):
        construct_triangle_free(Graph(4, [(0, 1), (2, 3)]))


def test_paths_and_cycles():
    for n in range(3, 16):
        cert = construct_triangle_free(path(n))
        check_certificate(path(n), cert)
        assert len(cert.code) == n // 2 + 1
        assert cert.trace[0].label == STEP_DELTA2_PATH
        if n == 4:  # P4 is a family member and carries the family bound
            assert cert.bound_num == 9 and cert.bound_den == 3
        else:
            assert cert.bound_num == n + 3 and cert.bound_den == 2
    for n in range(6, 16):
        cert = construct_triangle_free(cycle(n))
        check_certificate(cycle(n), cert)
        assert len(cert.code) == (n // 2 if n % 2 == 0 else (n + 3) // 2)
        if n != 7:  # C7 likewise
            assert cert.trace[0].label == STEP_DELTA2_CYCLE


def test_family_members_get_tight_certificates():
    from idcodes import all_family_ids

    for fid in all_family_ids():
        entry = make_family(fid)
        cert = construct_triangle_free(entry.graph)
        check_certificate(entry.graph, cert)
        assert cert.family == entry.family
        assert len(cert.code) == entry.gamma
        d = max(entry.graph.max_degree(), 3)
        assert cert.bound_num == (d - 1) * entry.graph.n + 1
        assert cert.bound_den == d
        # Tight: the family members sit exactly on their bound. Members of
        # maximum degree two (P4, C4, C7) go through the path/cycle branch.
        assert cert.bound_den * len(cert.code) == cert.bound_num
        if entry.graph.max_degree() >= 3:
            assert cert.trace[0].label == STEP_FAMILY_HIT


def test_chorded_cycles_avoid_fallback():
    for n in range(7, 18):
        for j in range(3, n - 2):
            edges = [(i, (i + 1) % n) for i in range(n)] + [(0, j)]
            g = Graph(n, edges)
            if triangle_witness(g) is not None:
                continue
            cert = construct_triangle_free(g)
            check_certificate(g, cert)
            assert all(s.label != "ExactFallback" for s in cert.trace)


def test_nonfamily_bound_is_delta_minus_one_over_delta():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (3, 7)])
    cert = construct_triangle_free(g)
    check_certificate(g, cert)
    assert cert.family is None
    assert cert.bound_num == 2 * 8 and cert.bound_den == 3


def test_exhaustive_small_graphs():
    # Scaled-down sweep; the acceptance suite runs the full one with dedup.
    for n in (4, 5, 6):
        for edges in oracles.connected_triangle_free_graphs(n):
            g = Graph(n, edges)
            cert = construct_triangle_free(g)
            check_certificate(g, cert)
            if g.max_degree() >= 3:
                extra = 1 if in_f_delta(g, g.max_degree()) else 0
                assert (
                    cert.bound_den * len(cert.code)
                    <= (g.max_degree() - 1) * n + extra
                )


def test_random_stress_small():
    for i in range(30):
        rng = random.Random(7000 + i)
        n = rng.randrange(8, 26)
        g = random_triangle_free(n, n - 1 + rng.randrange(0, n), seed=7100 + i)
        cert = construct_triangle_free(g)
        check_certificate(g, cert)
        if n <= 14:
            assert gamma_id_exact(g).size <= len(cert.code)


def test_certificates_are_deterministic():
    g = random_triangle_free(22, 30, seed=99)
    a = serialize_certificate(construct_triangle_free(g))
    b = serialize_certificate(construct_triangle_free(Graph(g.n, list(g.edges))))
    assert a == b
    assert a.startswith("idcodes-certificate v7\n")
    assert "verified yes" in a


def test_serialized_certificate_shape():
    cert = construct_triangle_free(cycle(6))
    text = serialize_certificate(cert)
    lines = text.splitlines()
    assert lines[1].startswith("input-hash ")
    assert lines[2] == "n 6"
    assert lines[3] == "delta 2"
    assert lines[4] == "family -"
    assert lines[5] == "bound 9/2"
    assert lines[6] == "code-size 3"
    assert lines[8] == "verified yes"
    assert text.endswith("\n")


# --- triangle deletion ------------------------------------------------------


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def test_triangle_deletion_set_properties():
    g = bowtie()
    dels = triangle_deletion_set(g)
    h = Graph(g.n, [e for e in g.edges if e not in set(dels)])
    assert triangle_witness(h) is None
    assert oracles.connected(h.n, h.edges)
    assert len(dels) == 2  # the two triangles share no edge
    assert triangle_deletion_set(path(5)) == ()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1]),
                max_size=16,
            ),
        )
    ),
)
def test_triangle_deletion_set_against_brute_force(ne):
    # The greedy set leaves no triangle, is no smaller than the fewest
    # deletions that do, and keeps a connected graph connected.
    n, edges = ne
    edges = sorted(edges)
    dels = set(triangle_deletion_set(Graph(n, edges)))
    rest = [e for e in edges if e not in dels]
    assert not oracles.has_triangle(n, rest)
    fewest = oracles.min_triangle_deletion_size(n, edges, len(dels))
    assert fewest is not None and fewest <= len(dels)
    if oracles.connected(n, edges):
        assert oracles.connected(n, rest)


def book_chain(books: int, pages: int) -> Graph:
    """books copies of an edge uv with pages common neighbours, a pendant
    on u and one on v; each book's v-pendant is joined to the next book's
    u-pendant. Every triangle of a book holds its uv."""
    size = pages + 4
    edges = []
    for i in range(books):
        u, v, pu, pv = range(i * size, i * size + 4)
        edges += [(u, v), (u, pu), (v, pv)]
        edges += [(x, w) for w in range(pv + 1, pv + 1 + pages) for x in (u, v)]
        if i:
            edges.append((pu - size + 3, pu))
    return Graph(books * size, edges)


def test_near_construct_on_a_chain_of_books_within_a_second():
    g = book_chain(4, 16)
    assert g.n == 80
    t0 = time.perf_counter()
    cert = construct_near_triangle_free(g)
    elapsed = time.perf_counter() - t0
    check_certificate(g, cert)
    assert CaseStep(STEP_COROLLARY_PATCH, "deleted 4 edges") in cert.trace
    # Four pairwise edge-disjoint triangles, one per book (u, v and its
    # first page), need four deletions.
    tris = [{(u, u + 1), (u, u + 4), (u + 1, u + 4)} for u in range(0, 80, 20)]
    assert all(tri <= set(g.edges) for tri in tris)
    assert len(set().union(*tris)) == 12
    assert elapsed < 1.0


def net() -> Graph:
    """Triangle with a pendant on each corner: one triangle, no twins."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def two_chord_hexagon() -> Graph:
    """6-cycle plus two chords: two edge-disjoint triangles, no twins."""
    return Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (3, 5)])


def test_near_construct_validation():
    with pytest.raises(NotTriangleFreeError):
        construct_triangle_free(net())
    with pytest.raises(ValueError):
        construct_near_triangle_free(path(6))  # max degree 2
    twins = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(NotIdentifiableError):
        construct_near_triangle_free(twins)
    with pytest.raises(InvalidDeletionSetError):
        construct_near_triangle_free(
            two_chord_hexagon(), deletions=[(0, 2)]
        )
    with pytest.raises(ValueError, match="at least 3 vertices"):
        construct_near_triangle_free(Graph(2, [(0, 1)]))
    with pytest.raises(NotConnectedError):
        construct_near_triangle_free(
            Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (5, 7)])
        )
    with pytest.raises(EdgeError, match=r"deletion \(3, 4\) is not an edge"):
        construct_near_triangle_free(net(), deletions=[(0, 1), (4, 3)])
    # (0, 1) breaks the triangle, but (0, 3) is the bridge to a pendant.
    with pytest.raises(InvalidDeletionSetError, match="disconnects"):
        construct_near_triangle_free(net(), deletions=[(0, 1), (0, 3)])


def test_near_construct_certificate():
    g = net()
    cert = construct_near_triangle_free(g)
    assert cert.verified
    assert is_identifying(g, cert.code)
    t = len(triangle_deletion_set(g))
    assert t == 1
    d = g.max_degree()
    assert cert.bound_num == (d - 1) * g.n + 4 * t * d + 1
    assert cert.bound_den == d
    assert cert.family is None
    assert cert.input_hash == graph_hash(g)
    patch_steps = [s for s in cert.trace if s.label == STEP_COROLLARY_PATCH]
    # One summary with the deletion count, then one step per restored edge.
    assert patch_steps[0] == CaseStep(STEP_COROLLARY_PATCH, "deleted 1 edges")
    assert patch_steps[1].detail.startswith("restored (")


def test_near_construct_per_edge_damage_at_most_four():
    for i in range(25):
        g = planted_triangles(seed=8000 + i)
        if g is None:
            continue
        cert = construct_near_triangle_free(g)
        assert cert.verified
        for s in cert.trace:
            if s.label == STEP_COROLLARY_PATCH and "new vertices" in s.detail:
                inside = re.search(r"new vertices \[(.*)\]", s.detail).group(1)
                fresh = [int(x) for x in inside.split(",") if x.strip()]
                assert len(fresh) <= 4


def planted_triangles(seed: int) -> Graph | None:
    rng = random.Random(seed)
    n = rng.randrange(7, 14)
    base = random_triangle_free(n, n - 1 + rng.randrange(0, n // 2), seed=seed)
    edges = set(base.edges)
    for _ in range(3):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v or e in edges:
            continue
        cand = Graph(n, sorted(edges | {e}))
        if triangle_witness(cand) is not None:
            edges.add(e)
    g = Graph(n, sorted(edges))
    if (
        triangle_witness(g) is None
        or g.max_degree() < 3
        or oracles.closed_twins(n, g.edges)
        or not oracles.connected(n, g.edges)
    ):
        return None
    return g


def test_near_construct_explicit_deletions():
    g = two_chord_hexagon()
    cert = construct_near_triangle_free(g, deletions=[(0, 2), (3, 5)])
    assert cert.verified
    d = g.max_degree()
    assert cert.bound_num == (d - 1) * g.n + 4 * 2 * d + 1
    with pytest.raises(InvalidDeletionSetError):
        # Deleting a whole triangle disconnects nothing here but leaves the
        # other triangle in place.
        construct_near_triangle_free(g, deletions=[(0, 1), (1, 2), (0, 2)])


# The wheel with hub 10 on the rim 0-9: the greedy deletion takes every
# other spoke, five edges.
WHEEL10 = Graph(
    11, [(i, (i + 1) % 10) for i in range(10)] + [(i, 10) for i in range(10)]
)
WHEEL10_SHA256 = "ce2d07c9534051960c4323a07846c9b3662d59ce2234fab06e0bba043a38c302"


def test_near_construct_with_more_than_four_deletions():
    cert = construct_near_triangle_free(WHEEL10)
    assert cert.verified and is_identifying(WHEEL10, cert.code)
    assert CaseStep(STEP_COROLLARY_PATCH, "deleted 5 edges") in cert.trace
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == WHEEL10_SHA256


def test_near_construct_on_triangle_free_input():
    g = random_triangle_free(10, 13, seed=5)
    assert g.max_degree() >= 3
    cert = construct_near_triangle_free(g)
    assert cert.verified
    assert cert.bound_num == (g.max_degree() - 1) * g.n + 1
    assert CaseStep(STEP_COROLLARY_PATCH, "deleted 0 edges") in cert.trace


def test_per_edge_damage_above_four_raises(monkeypatch):
    # The triangle 0-1-2 with one pendant on each corner; deleting (0, 1)
    # leaves a tree. A restore that damages five vertices breaks the
    # paper's guarantee, which must raise even under python -O.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    monkeypatch.setattr(
        SignatureTable, "restore_edge", lambda self, u, v: ((0, 1), (2, 3), (3, 4))
    )
    with pytest.raises(GuaranteeError, match="damaged 5 new vertices"):
        construct_near_triangle_free(g, deletions=[(0, 1)])


# Restoring (4, 5) at level 0 leaves 4 and 5 unseparated, and a far
# component is a P4 whose ends see no boundary vertex, so the repair cuts
# off its far half, codes the rest and puts back its third vertex.
P4_REJOIN = random_triangle_free(10, 10, 33)
P4_REJOIN_SHA256 = (
    "7e4190c60f87f510b8af8d5f12002a427c48443c91fc62ecd976774fe4d9bb8a"
)


def test_split_path_component_is_rejoined():
    cert = construct_triangle_free(P4_REJOIN)
    check_certificate(P4_REJOIN, cert)
    assert cert.code == (0, 1, 3, 4, 5, 6)
    assert cert.trace[-1] == CaseStep("ClaimC", "d0: split path component rejoined")
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == P4_REJOIN_SHA256


# Restoring (0, 4) at level 0 leaves 4 and 9 unseparated, and a far
# component is a P4 whose ends see no boundary vertex; here the code of the
# rest leaves out the P4's second vertex, so the first is swapped for it.
P4_SWAP = random_triangle_free(10, 11, 139)
P4_SWAP_SHA256 = "7e0b0bb6ad40623b7dde5ed0de121bebc03af1cd6f0543ec3b6ed99b3cc9637c"


def test_split_path_component_swaps_its_first_vertex():
    cert = construct_triangle_free(P4_SWAP)
    check_certificate(P4_SWAP, cert)
    assert cert.code == (1, 2, 4, 5, 6, 9)
    assert cert.trace[-1] == CaseStep("ClaimC", "d0: split path component rejoined")
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == P4_SWAP_SHA256


# Restoring (2, 7) at level 2 leaves 2 and 7 unseparated, and a far
# component is a star of degree 3, so the repair rebuilds it through the
# degree-3 candidates of the star template.
STAR3_MERGE = random_triangle_free(10, 12, 248)
STAR3_MERGE_SHA256 = (
    "1b98e16a1299ffc681177a3da4a9530a7954ef8ab9136b17087bec915d809254"
)


def test_star_component_merged_at_delta_three():
    cert = construct_triangle_free(STAR3_MERGE)
    check_certificate(STAR3_MERGE, cert)
    assert cert.delta == 3
    assert cert.code == (0, 1, 2, 6, 7, 8)
    assert CaseStep("ClaimC", "d2: star component rebuilt around leaf 3") in cert.trace
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == STAR3_MERGE_SHA256


# Restoring (3, 4) at level 5 leaves 4 and 9 unseparated, and a far
# component is a star there, with the level at maximum degree 4 or more, so
# the repair rebuilds it through the delta >= 4 candidates of
# _merge_family_component.
STAR4_MERGE = random_triangle_free(18, 24, 7934)
STAR4_MERGE_SHA256 = (
    "ddf53224a77750d87ce4d7d2b6d091d45aff95cca31cd1c4e0f082eec9e9aeec"
)


def test_star_component_merged_at_delta_four():
    cert = construct_triangle_free(STAR4_MERGE)
    check_certificate(STAR4_MERGE, cert)
    assert cert.delta == 7
    assert cert.code == (0, 2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 17)
    assert CaseStep(
        "ClaimC", "d5: star component rebuilt around leaf 15"
    ) in cert.trace
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == STAR4_MERGE_SHA256


# Four catalog trees glued by edges between vertices of degree at most 2:
# the whole vertex set prunes to 39 vertices against a cap of 38, so
# _tree_code recodes it with the tree dynamic program, at its minimum of 37.
GLUED_TREE = Graph(
    58,
    [(0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (2, 10), (2, 13), (3, 16),
     (4, 5), (4, 6), (7, 8), (7, 9), (10, 11), (10, 12), (11, 25), (12, 43),
     (13, 14), (13, 15), (16, 17), (16, 18), (19, 20), (19, 29), (20, 21),
     (20, 22), (21, 23), (22, 26), (22, 50), (23, 24), (23, 25), (26, 27),
     (26, 28), (29, 30), (29, 31), (32, 33), (32, 36), (32, 39), (33, 34),
     (33, 35), (34, 42), (34, 45), (36, 37), (36, 38), (39, 40), (39, 41),
     (42, 43), (42, 44), (45, 46), (45, 47), (48, 49), (48, 52), (48, 55),
     (49, 50), (49, 51), (52, 53), (52, 54), (55, 56), (55, 57)],
)
GLUED_TREE_SHA256 = (
    "9792c5979629adc5e84ddeba83cdad13322d209ffce31559938e022a0ced12dd"
)


def test_glued_tree_coded_by_the_tree_dp():
    t0 = time.perf_counter()
    cert = construct_triangle_free(GLUED_TREE)
    elapsed = time.perf_counter() - t0
    check_certificate(GLUED_TREE, cert)
    assert len(cert.code) == 37
    assert cert.trace[-1] == CaseStep(
        "ExactFallback", "d0: tree DP shrank tree code to 37"
    )
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == GLUED_TREE_SHA256
    assert elapsed < 0.1


# T10, T1, T10, T6 and T3 glued and relabelled: the whole vertex set
# prunes to 46 vertices against a cap of 45, and the tree dynamic program
# codes it with 44, the optimum that HiGHS finds.
GLUED_TREE_68 = Graph(
    68,
    [(0, 54), (1, 9), (2, 25), (2, 33), (2, 66), (3, 27), (3, 44), (3, 46),
     (4, 12), (5, 32), (5, 60), (5, 63), (6, 10), (7, 13), (7, 20), (7, 40),
     (8, 37), (9, 23), (9, 32), (10, 40), (10, 49), (11, 19), (11, 22),
     (11, 57), (12, 31), (12, 58), (14, 15), (14, 30), (14, 36), (15, 16),
     (15, 62), (16, 52), (16, 58), (17, 42), (17, 48), (17, 60), (18, 53),
     (21, 50), (22, 36), (24, 55), (26, 29), (26, 50), (27, 54), (28, 38),
     (29, 65), (29, 66), (30, 61), (34, 54), (35, 41), (36, 66), (37, 46),
     (37, 59), (38, 45), (38, 65), (39, 55), (40, 57), (41, 43), (41, 44),
     (44, 55), (46, 64), (47, 50), (51, 53), (53, 65), (56, 64), (61, 63),
     (61, 67), (62, 64)],
)


def test_glued_tree_68_coded_at_its_optimum():
    t0 = time.perf_counter()
    cert = construct_triangle_free(GLUED_TREE_68)
    elapsed = time.perf_counter() - t0
    check_certificate(GLUED_TREE_68, cert)
    assert cert.trace == (
        CaseStep("TreeBase", "d0: tree of 68, all vertices pruned to 46"),
        CaseStep("ExactFallback", "d0: tree DP shrank tree code to 44"),
    )
    assert elapsed < 0.1


def test_tree_dp_over_the_bound_raises(monkeypatch):
    # By the companion theorem for trees, a tree outside the catalog has a
    # minimum code within the bound, so a tree DP code over it is a fault.
    monkeypatch.setattr(
        idcodes.construct, "_tree_minimum", lambda adj: list(range(len(adj)))
    )
    with pytest.raises(
        GuaranteeError, match="d0: the tree's minimum code of 58 is over the bound"
    ):
        construct_triangle_free(GLUED_TREE)


def _counted_inits(monkeypatch, cls) -> list[None]:
    """A list that gains one entry per instance of cls built from now on."""
    calls: list[None] = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


def test_tree_base_prunes_the_descent_in_place(monkeypatch):
    # The descent deletes 101 edges down to a tree of 200 vertices, which is
    # pruned on the descent's own adjacency; its table starts the restores,
    # and each quick patch adds its vertices to that table in place.
    g = random_triangle_free(200, 300, 0)
    graphs = _counted_inits(monkeypatch, Graph)
    tables = _counted_inits(monkeypatch, SignatureTable)
    cert = construct_triangle_free(g)
    built = (len(graphs), len(tables))
    monkeypatch.undo()
    assert {s.label for s in cert.trace} == {"TreeBase", "ClaimB"}
    assert any("patched with" in s.detail for s in cert.trace)
    assert built == (0, 1)
    check_certificate(g, cert)


def test_tree_dp_rescue_builds_no_graph(monkeypatch):
    # The glued tree is pruned in place, and the tree DP codes the same
    # adjacency.
    graphs = _counted_inits(monkeypatch, Graph)
    cert = construct_triangle_free(GLUED_TREE)
    assert len(graphs) == 0
    assert cert.trace[-1].label == "ExactFallback"


# Five catalog trees (T0, T0, T8, T4, T0) glued by edges between vertices
# of degree at most 2, then relabelled at random. Its whole vertex set
# prunes to 24 vertices, within the cap of 25, so the tree DP never runs.
GLUED_TREE_38 = Graph(
    38,
    [(0, 1), (0, 14), (0, 27), (2, 19), (3, 15), (4, 22), (5, 23), (5, 25),
     (6, 31), (7, 15), (8, 11), (8, 13), (8, 32), (9, 23), (9, 28), (10, 22),
     (10, 32), (12, 20), (12, 23), (12, 34), (13, 28), (14, 16), (15, 17),
     (16, 17), (16, 36), (17, 22), (18, 34), (19, 26), (19, 28), (20, 21),
     (20, 35), (24, 37), (25, 37), (29, 37), (30, 34), (31, 33), (31, 36)],
)


def test_glued_tree_pruned_within_the_bound_needs_no_search():
    cert = construct_triangle_free(GLUED_TREE_38)
    check_certificate(GLUED_TREE_38, cert)
    assert cert.trace == (
        CaseStep("TreeBase", "d0: tree of 38, all vertices pruned to 24"),
    )


@st.composite
def prufer_trees(draw, min_n=17, max_n=60):
    """A tree decoded from a drawn Pruefer sequence."""
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(prufer_trees(min_n=4))
def test_tree_code_is_a_minimal_identifying_code(g):
    assume(g.max_degree() >= 3 and _catalog_match(g) is None)
    steps: list[CaseStep] = []
    table = _tree_code(MutableGraph(g), steps, 0)
    code = set(_bits(table.code_mask))
    assert table.identifies()
    assert oracles.is_id_code(g.n, g.edges, code)
    num, den = certified_bound(g)
    assert den * len(code) <= num
    # The pruned whole vertex set is minimal, and so is the tree DP's
    # minimum code.
    assert not any(oracles.is_id_code(g.n, g.edges, code - {c}) for c in code)


def _refuse_search(*args):
    raise AssertionError("the exact search ran")


@pytest.mark.parametrize("g", [GLUED_TREE, GLUED_TREE_68], ids=["n58", "n68"])
@pytest.mark.parametrize(
    "build", [construct_triangle_free, construct_near_triangle_free]
)
def test_witnesses_certify_without_a_search(monkeypatch, build, g):
    monkeypatch.setattr(idcodes.exact, "_Search", _refuse_search)
    cert = build(g)
    assert cert.verified and is_identifying(g, cert.code)
    assert cert.bound_den * len(cert.code) <= cert.bound_num


@settings(max_examples=100, deadline=None)
@given(prufer_trees(min_n=4))
def test_trees_of_every_size_certify_without_a_search(g):
    # No tree base searches, and none builds a Graph: up to 16 vertices the
    # tree DP codes it on the descent's own adjacency, and above that it is
    # pruned there.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idcodes.exact, "_Search", _refuse_search)
        graphs = _counted_inits(mp, Graph)
        cert = construct_triangle_free(g)
    check_certificate(g, cert)
    if cert.trace[0].label == "TreeBase":
        assert len(graphs) == 0


def test_catalog_member_is_matched_once(monkeypatch):
    # The level-0 match also gives the certificate its family field.
    entry = make_family(FamilyId("T6"))
    perm = list(range(entry.graph.n))
    random.Random(3).shuffle(perm)
    g = Graph(entry.graph.n, [(perm[u], perm[v]) for u, v in entry.graph.edges])
    calls = []
    match = idcodes.families.match_family

    def counting(h, delta):
        calls.append((h.n, delta))
        return match(h, delta)

    monkeypatch.setattr(idcodes.families, "match_family", counting)
    monkeypatch.setattr(idcodes.construct, "match_family", counting)
    cert = construct_triangle_free(g)
    check_certificate(g, cert)
    assert cert.family == FamilyId("T6")
    assert calls == [(13, 3)]


def test_near_construct_checks_the_remainder_once(monkeypatch):
    # The triangle-free remainder of the net (6 vertices, 5 edges) is
    # checked by construct_near_triangle_free alone, not again inside.
    calls = {"triangle_witness": [], "is_connected": []}
    for name, seen in calls.items():
        real = getattr(idcodes.construct, name)

        def counting(h, real=real, seen=seen):
            seen.append((h.n, len(h.edges)))
            return real(h)

        monkeypatch.setattr(idcodes.construct, name, counting)
    g = net()
    check_certificate(g, construct_near_triangle_free(g))
    assert calls["triangle_witness"].count((6, 5)) == 1
    assert calls["is_connected"].count((6, 5)) == 1


def _repair_raises(monkeypatch, g: Graph, e: tuple[int, int], match: str) -> None:
    """Repair g around e with every code of g itself failing the check, so
    that the case's own template is rejected; subgraphs coded on the way
    are checked as usual."""
    real = idcodes.construct.is_identifying
    monkeypatch.setattr(
        idcodes.construct, "is_identifying", lambda h, c: h is not g and real(h, c)
    )
    with pytest.raises(GuaranteeError, match=match):
        _repair(g, e, [], 0)


def test_claim_a_case_raises_when_its_template_fails(monkeypatch):
    # K_{3,3} around (0, 3): every vertex is a neighbour of 0 or 3.
    g = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    _repair_raises(
        monkeypatch, g, (0, 3), "d0: the ClaimA template does not identify"
    )


# Around (1, 5) a far component is the star of degree 4 around 8, attached
# to the boundary by its leaf 9.
STAR4_FAR = Graph(
    13,
    [(0, 1), (0, 7), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (3, 9),
     (4, 7), (5, 6), (5, 7), (8, 9), (8, 10), (8, 11), (8, 12)],
)


def test_claim_c_star_case_raises_when_its_templates_fail(monkeypatch):
    _repair_raises(
        monkeypatch, STAR4_FAR, (1, 5), "d0: no ClaimC star template around leaf 9"
    )


# Around (0, 1) the far component is the path 4-5-6-7, joined to the
# boundary at 5 only (PATH4_INNER), or at its end 4 as well (PATH4_END).
PATH4_INNER = Graph(
    8, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 5), (4, 5), (5, 6), (6, 7)]
)
PATH4_END = Graph(
    8, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7)]
)


def test_claim_c_path_case_raises_when_its_template_fails(monkeypatch):
    _repair_raises(
        monkeypatch,
        PATH4_INNER,
        (0, 1),
        "d0: the ClaimC path template does not identify",
    )


def test_claim_c_absorption_raises_when_no_path_fits(monkeypatch):
    _repair_raises(
        monkeypatch,
        PATH4_END,
        (0, 1),
        r"d0: no ClaimC path of the far component \[4, 5, 6, 7\] can be absorbed",
    )


# Around (0, 1): the far vertices 5 and 6 are isolated, and 8-7-9 is a path
# of three, not a catalog member; the hub is the closed neighbourhood plus
# 5 and 6.
HUB_AND_PATH = Graph(
    10,
    [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (3, 6), (3, 7), (4, 5), (4, 8),
     (7, 8), (7, 9)],
)


def test_g_star_case_raises_when_its_union_fails(monkeypatch):
    _repair_raises(
        monkeypatch, HUB_AND_PATH, (0, 1), "d0: the GStar template does not identify"
    )


def test_hub_without_a_template_raises(monkeypatch):
    monkeypatch.setattr(idcodes.construct, "is_identifying", lambda h, c: False)
    with pytest.raises(GuaranteeError, match=r"no hub template .* around \(0,1\)"):
        _repair(HUB_AND_PATH, (0, 1), [], 0)


def test_hub_groups_that_the_decomposition_never_forms_raise():
    # Hubs around (0, 1) with A = {2}. 3 and 4 both hang on 2 and on each
    # other, which only a triangle allows; a lone 3 has no neighbour at all;
    # the pair 3-4 has no neighbour in A.
    hub = Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(GuaranteeError, match=r"no unpartnered member in \[3, 4\]"):
        _hub_code(hub, 0, 1, 3)
    with pytest.raises(GuaranteeError, match="hub vertex 3 has no anchor"):
        _hub_code(Graph(4, [(0, 1), (0, 2)]), 0, 1, 3)
    with pytest.raises(GuaranteeError, match=r"unanchored .* in \[3, 4\]"):
        _hub_code(Graph(5, [(0, 1), (0, 2), (3, 4)]), 0, 1, 3)


def test_level_code_that_does_not_identify_raises(monkeypatch):
    monkeypatch.setattr(idcodes.construct, "path_identifying_code", lambda n: ())
    with pytest.raises(GuaranteeError, match="d0: the level's code does not"):
        construct_triangle_free(path(6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_long_path_plus_chord_has_the_first_completion_size(data):
    # Above 16 vertices the descent codes the path left by the edge it
    # deletes and patches that edge's restore. The code is as small as the
    # reference rule's: the path pattern along that path, plus the lowest
    # single vertex that completes it when one is needed.
    n = data.draw(st.integers(17, 40))
    a = data.draw(st.integers(0, n - 4))
    b = data.draw(st.integers(a + 3, n - 1 if a else n - 2))
    perm = data.draw(st.permutations(range(n)))
    edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
    g = Graph(n, edges + [(perm[a], perm[b])])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idcodes.exact, "_Search", _refuse_search)
        cert = construct_triangle_free(g)
    check_certificate(g, cert)
    assert cert.trace[0] == CaseStep(STEP_DELTA2_PATH, f"d1: path of {n}")
    (u, v), = re.findall(r"restored \((\d+),(\d+)\)", cert.trace[1].detail)
    adj = [c - {x} for x, c in enumerate(oracles.neighborhoods(n, g.edges))]
    adj[int(u)].discard(int(v))
    adj[int(v)].discard(int(u))
    order = [min(x for x in range(n) if len(adj[x]) == 1)]
    while len(order) < n:
        order.append(min(adj[order[-1]] - set(order[-2:])))
    base = {order[i] for i in path_identifying_code(n)}
    expected = oracles.first_completion(n, g.edges, base)
    assert expected is not None and len(cert.code) == len(expected)


def test_near_construct_with_a_stuck_completion_raises(monkeypatch):
    monkeypatch.setattr(idcodes.construct, "_complete", lambda *args: None)
    with pytest.raises(GuaranteeError, match="stuck on the damaged vertices"):
        construct_near_triangle_free(net())


def test_bound_miss_raises_directly(monkeypatch):
    # A code of every vertex identifies a twin-free graph but misses every
    # bound; it is reported, not replaced by a search.
    monkeypatch.setattr(
        idcodes.construct, "_build", lambda g, *a: frozenset(range(g.n))
    )
    g = path(6)
    with pytest.raises(BoundMissedError) as ei:
        construct_triangle_free(g)
    assert ei.value.code == tuple(range(6))
    assert (ei.value.bound_num, ei.value.bound_den) == (9, 2)


def test_final_check_failure_raises(monkeypatch):
    # A code that does not identify the input never becomes a certificate.
    monkeypatch.setattr(idcodes.construct, "_build", lambda g, *a: frozenset({0}))
    with pytest.raises(GuaranteeError, match="does not identify"):
        construct_triangle_free(path(6))


def test_certified_bound_forms():
    t1 = make_family(FamilyId("T1"))
    assert certified_bound(t1.graph, t1.family) == (15, 3)
    p4 = make_family(FamilyId("P4"))
    assert certified_bound(p4.graph, p4.family) == (9, 3)  # degree-3 form
    assert certified_bound(cycle(6)) == (9, 2)
    assert certified_bound(t1.graph) == (14, 3)  # not passed as a member
    prism = Graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert certified_bound(prism, t=2) == (37, 3)
    assert certified_bound(t1.graph, t=0) == (15, 3)
