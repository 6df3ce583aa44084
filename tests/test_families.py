"""Exceptional-family catalog: membership, special codes, edge additions."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import idcodes
import oracles
from idcodes import (
    EdgeAdditionError,
    FamilyId,
    Graph,
    GuaranteeError,
    UnknownFamilyError,
    UnsupportedCodeFormError,
    all_family_ids,
    gamma_id_exact,
    in_f_delta,
    is_identifying,
    make_family,
    make_standard,
    match_family,
    random_triangle_free,
    star,
    tree_plus_edge_code,
    triangle_witness,
)
from idcodes.families import T0, T2, T3

TREE_GAMMAS = {
    "T0": 3,
    "T1": 5,
    "T2": 5,
    "T3": 7,
    "T4": 7,
    "T5": 7,
    "T6": 9,
    "T7": 9,
    "T8": 11,
    "T9": 11,
    "T10": 13,
    "T11": 15,
}


def permuted(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_family_id_parsing_and_str():
    assert FamilyId.parse("t3") == T3
    assert FamilyId.parse("P4").kind == "P4"
    assert str(FamilyId.parse("star(5)")) == "Star(5)"
    assert FamilyId.parse(str(T2)) == T2
    with pytest.raises(UnknownFamilyError):
        FamilyId.parse("T12")
    with pytest.raises(UnknownFamilyError):
        star(2)


def test_catalog_has_fifteen_members_trees_first():
    fids = all_family_ids()
    assert len(fids) == 15
    assert [f.kind for f in fids[:12]] == [f"T{i}" for i in range(12)]
    assert {f.kind for f in fids[12:]} == {"P4", "C4", "C7"}


def test_catalog_codes_verify_and_sizes_match():
    for fid in all_family_ids():
        entry = make_family(fid)
        g = entry.graph
        assert triangle_witness(g) is None
        assert is_identifying(g, entry.code)
        assert len(entry.code) == entry.gamma
        if fid.kind.startswith("T"):
            assert entry.gamma == TREE_GAMMAS[fid.kind]
            assert g.m == g.n - 1 and g.max_degree() == 3
            assert g.n % 3 == 1
        # The family equality: delta * gamma = (delta - 1) * n + 1.
        d = max(g.max_degree(), 3)
        assert d * entry.gamma == (d - 1) * g.n + 1


def test_catalog_gammas_exact_small():
    for fid in all_family_ids():
        entry = make_family(fid)
        if entry.graph.n <= 13:
            assert gamma_id_exact(entry.graph).size == entry.gamma


def test_star_members():
    for d in (4, 5, 6):
        entry = make_family(star(d))
        assert entry.graph.n == d + 1
        assert is_identifying(entry.graph, entry.code)
        assert entry.gamma == d
        assert gamma_id_exact(entry.graph).size == d
    assert make_family(star(3)).family == T0
    for fid in (FamilyId("STAR"), FamilyId("STAR", 2), FamilyId("T12")):
        with pytest.raises(UnknownFamilyError):
            make_family(fid)


def test_make_standard():
    assert make_standard("path", 4).m == 3
    assert make_standard("cycle", 5).m == 5
    assert make_standard("star", 4).max_degree() == 4
    kb = make_standard("complete_bipartite", 3, 3)
    assert kb.n == 6 and kb.m == 9
    for kind, params, message in [
        ("path", (0,), "path order must be >= 1"),
        ("cycle", (2,), "cycle order must be >= 3"),
        ("star", (0,), "star needs >= 1 leaves"),
        ("complete_bipartite", (3, 0), "positive part sizes"),
        ("hypercube", (3,), "unknown construction kind"),
    ]:
        with pytest.raises(ValueError, match=message):
            make_standard(kind, *params)


def test_match_family_under_relabeling():
    for fid in all_family_ids():
        entry = make_family(fid)
        g = permuted(entry.graph, sum(map(ord, fid.kind)))
        hit = match_family(g, 3)
        assert hit is not None
        mfid, mapping = hit
        assert mfid == entry.family
        for u, v in entry.graph.edges:
            assert g.has_edge(mapping[u], mapping[v])


def test_match_family_rejects_lookalikes():
    p5 = make_standard("path", 5)
    assert match_family(p5, 3) is None
    assert match_family(p5, 4) is None  # a star's order and size at delta 4
    c6 = make_standard("cycle", 6)
    assert match_family(c6, 3) is None
    # T1 with a leaf moved becomes a (1,2,3)-spider, not in the catalog.
    t1 = make_family(FamilyId.parse("T1")).graph
    edges = [e for e in t1.edges if e != (4, 6)] + [(2, 6)]
    assert match_family(Graph(7, edges), 3) is None
    with pytest.raises(ValueError):
        match_family(p5, 2)


def test_star_degree_sequence_without_a_star_map_raises(monkeypatch):
    monkeypatch.setattr(idcodes.families, "find_isomorphism", lambda a, b: None)
    with pytest.raises(GuaranteeError, match="star degree sequence without"):
        match_family(make_standard("star", 4), 4)


def test_in_f_delta_is_relative_to_ambient_degree():
    c7 = make_standard("cycle", 7)
    assert in_f_delta(c7, 3) is not None
    assert in_f_delta(c7, 4) is None
    s4 = make_standard("star", 4)
    assert in_f_delta(s4, 4) is not None
    assert in_f_delta(s4, 5) is None
    assert in_f_delta(s4, 3) is None


def test_tree_plus_edge_samples():
    t1 = make_family(FamilyId.parse("T1"))
    code = tree_plus_edge_code(t1.family, (2, 5))
    g = Graph(7, list(t1.graph.edges) + [(2, 5)])
    assert is_identifying(g, code)
    assert 3 * len(code) < 2 * g.n
    assert len(code) == t1.gamma - 1


def test_tree_plus_edge_rejections():
    t0 = make_family(T0)
    nonedges = [
        (u, v)
        for u, v in combinations(range(4), 2)
        if not t0.graph.has_edge(u, v)
    ]
    assert nonedges
    for e in nonedges:  # every addition closes a triangle at the centre
        for tag in (T0, star(3)):
            with pytest.raises(EdgeAdditionError) as ei:
                tree_plus_edge_code(tag, e)
            assert ei.value.reason == "triangle"
    t1 = FamilyId.parse("T1")
    with pytest.raises(EdgeAdditionError) as ei:
        tree_plus_edge_code(t1, (0, 1))
    assert ei.value.reason == "exists"
    with pytest.raises(EdgeAdditionError) as ei:
        tree_plus_edge_code(t1, (1, 5))  # endpoint 1 is already degree 3
    assert ei.value.reason == "degree"
    with pytest.raises(EdgeAdditionError) as ei:
        tree_plus_edge_code(t1, (5, 5))
    assert ei.value.reason == "range"
    with pytest.raises(UnsupportedCodeFormError):
        tree_plus_edge_code(FamilyId.parse("C7"), (0, 3))


def test_tree_plus_edge_without_a_code_raises(monkeypatch):
    monkeypatch.setattr(idcodes.families, "is_identifying", lambda g, c: False)
    with pytest.raises(GuaranteeError, match="no code of size 4 within one swap"):
        tree_plus_edge_code(FamilyId.parse("T1"), (2, 5))


def test_random_triangle_free_properties():
    for seed in range(25):
        n = 5 + seed
        target = n - 1 + seed % n
        g = random_triangle_free(n, target, seed=seed)
        assert g.n == n
        assert triangle_witness(g) is None
        assert oracles.connected(g.n, g.edges)
        assert g.m <= target
    with pytest.raises(ValueError, match="cannot keep n=5 vertices connected"):
        random_triangle_free(5, 3, seed=0)
    with pytest.raises(ValueError, match="need n >= 1"):
        random_triangle_free(0, 0, seed=0)


def test_random_triangle_free_deterministic():
    a = random_triangle_free(14, 20, seed=42)
    b = random_triangle_free(14, 20, seed=42)
    c = random_triangle_free(14, 20, seed=43)
    assert a == b
    assert a != c


def test_random_triangle_free_hits_target_at_moderate_density():
    g = random_triangle_free(20, 28, seed=7)
    assert g.m == 28


def test_bad_star_tags_raise_under_optimize():
    # Star(2) would be P3 with a code that does not identify it, and a star
    # tag without a degree names nothing; both must raise even when python
    # -O strips asserts.
    script = (
        "from idcodes import FamilyId, UnknownFamilyError, make_family\n"
        "assert False, 'asserts are live'\n"
        "for fid in (FamilyId('STAR', 2), FamilyId('STAR')):\n"
        "    try:\n"
        "        make_family(fid)\n"
        "    except UnknownFamilyError:\n"
        "        print('raised', fid)\n"
    )
    src = str(Path(idcodes.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised Star(2)\nraised Star(None)\n"
