"""Exact branch-and-bound solver against brute force, and the closed forms."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

import idcodes.exact
import idcodes.graphs
import oracles
from idcodes import (
    EdgeAdditionError,
    Graph,
    GuaranteeError,
    NotIdentifiableError,
    cycle_identifying_code,
    gamma_id_exact,
    is_identifying,
    odd_cycle_plus_chord_code,
    path_identifying_code,
    random_triangle_free,
)
from idcodes.checks import _identifiable
from idcodes.exact import _Search, _tree_minimum
from test_construct import GLUED_TREE, GLUED_TREE_68, _refuse_search, prufer_trees


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_exact_matches_bruteforce_exhaustively():
    for n in (2, 3, 4):
        for g in all_graphs(n):
            expected = oracles.min_id_code(g.n, g.edges)
            if expected is None:
                with pytest.raises(NotIdentifiableError):
                    gamma_id_exact(g)
                continue
            res = gamma_id_exact(g)
            assert res.optimal
            assert res.size == expected[0]
            assert is_identifying(g, res.code)


def test_exact_matches_bruteforce_random():
    for seed in range(80):
        n = 5 + seed % 3
        g = random_graph(n, 3 + seed % 12, 4000 + seed)
        expected = oracles.min_id_code(g.n, g.edges)
        if expected is None:
            with pytest.raises(NotIdentifiableError):
                gamma_id_exact(g)
            continue
        res = gamma_id_exact(g)
        assert res.size == expected[0] and res.optimal
        assert is_identifying(g, res.code)
        assert res.code == tuple(sorted(res.code))


def test_exact_reports_search_effort():
    res = gamma_id_exact(cycle(8))
    assert res.nodes_explored >= 1
    assert res.size == 4


def test_exact_budget_exhaustion_keeps_best_code():
    res = gamma_id_exact(cycle(12), node_budget=2)
    assert not res.optimal
    assert is_identifying(cycle(12), res.code)  # greedy incumbent survives


def test_p3_full_xy_minimum_is_two():
    # X = Y = V on the 3-path: {0, 2} gives signatures {0}, {0,2}, {2}.
    g = path(3)
    res = gamma_id_exact(g)
    assert res.size == 2
    assert oracles.min_xy_code(3, g.edges, range(3), range(3))[0] == 2


def path_gamma(n: int) -> int:
    return 1 if n == 1 else n // 2 + 1


def cycle_gamma(n: int) -> int:
    return 3 if n in (4, 5) else n // 2 if n % 2 == 0 else (n + 3) // 2


def test_closed_form_matches_exact_paths_and_cycles():
    for n in (1, *range(3, 11)):
        assert gamma_id_exact(path(n)).size == path_gamma(n)
    for n in range(4, 11):
        assert gamma_id_exact(cycle(n)).size == cycle_gamma(n)


def test_closed_form_rejections():
    # P2 and C3 have closed twins, and the patterns name the twin pair
    # that the exact solver's gate names.
    for pattern, g in (
        (path_identifying_code, path(2)),
        (cycle_identifying_code, cycle(3)),
    ):
        with pytest.raises(NotIdentifiableError) as ei:
            pattern(g.n)
        with pytest.raises(NotIdentifiableError) as ej:
            gamma_id_exact(g)
        assert ei.value.twins == ej.value.twins == (0, 1)


def test_pattern_codes_verify_and_hit_the_minimum():
    assert path_identifying_code(1) == (0,)
    for n in range(3, 14):
        code = path_identifying_code(n)
        assert is_identifying(path(n), code)
        assert len(code) == path_gamma(n)
    for n in range(4, 14):
        code = cycle_identifying_code(n)
        assert is_identifying(cycle(n), code)
        assert len(code) == cycle_gamma(n)
    with pytest.raises(ValueError, match="path order must be >= 1, got 0"):
        path_identifying_code(0)
    with pytest.raises(ValueError, match="cycle order must be >= 3, got 2"):
        cycle_identifying_code(2)


def test_odd_cycle_plus_chord_code():
    for n in (7, 9, 11, 13):
        for j in range(3, n - 2, 2):
            code = odd_cycle_plus_chord_code(n, (0, j))
            g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, j)])
            assert is_identifying(g, code)
            assert len(code) == (n + 1) // 2
    # Anchored away from zero: rotation handled internally.
    code = odd_cycle_plus_chord_code(9, (2, 7))
    g = Graph(9, [(i, (i + 1) % 9) for i in range(9)] + [(2, 7)])
    assert is_identifying(g, code)


def test_odd_cycle_plus_chord_rejections():
    with pytest.raises(ValueError):
        odd_cycle_plus_chord_code(8, (0, 3))  # even length
    with pytest.raises(EdgeAdditionError) as ei:
        odd_cycle_plus_chord_code(9, (0, 1))
    assert ei.value.reason == "exists"
    with pytest.raises(EdgeAdditionError) as ei:
        odd_cycle_plus_chord_code(9, (0, 2))
    assert ei.value.reason == "triangle"


def test_odd_cycle_plus_chord_pattern_that_fails_raises(monkeypatch):
    monkeypatch.setattr(idcodes.exact, "is_identifying", lambda g, c: False)
    with pytest.raises(GuaranteeError, match="chorded odd cycle pattern failed"):
        odd_cycle_plus_chord_code(9, (0, 3))


def test_entry_points_build_the_masks_once(monkeypatch):
    calls = []
    real = idcodes.graphs.closed_neighborhood_masks

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(idcodes.graphs, "closed_neighborhood_masks", counting)
    monkeypatch.setattr(idcodes.checks, "closed_neighborhood_masks", counting)
    # Closed twins {1, 2} and {0, 5}: the witness is the smallest pair, not
    # the first repeat a scan in vertex order meets.
    twins = Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (0, 4), (0, 5), (4, 5)])
    gamma_id_exact(path(7))
    assert calls == [7]
    calls.clear()
    with pytest.raises(NotIdentifiableError) as err:
        gamma_id_exact(twins)
    assert err.value.twins == (0, 5)
    assert calls == [6]


@pytest.mark.parametrize("n", [7, 9])
def test_chord_outcomes_on_every_pair(n):
    # Equal or out-of-range ends are "range", a cycle edge "exists", a chord
    # across one vertex "triangle"; every other chord gets a verified code
    # of size (n + 1) / 2.
    outcome = {0: "range", 1: "exists", 2: "triangle"}
    chords = [(a, b) for a in range(n) for b in range(n)] + [(0, n), (-1, 3)]
    for a, b in chords:
        if 0 <= a < n and 0 <= b < n:
            dist = min((b - a) % n, (a - b) % n)
        else:
            dist = 0
        if dist in outcome:
            with pytest.raises(EdgeAdditionError) as ei:
                odd_cycle_plus_chord_code(n, (a, b))
            assert ei.value.reason == outcome[dist]
            continue
        code = odd_cycle_plus_chord_code(n, (a, b))
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(a, b)])
        assert is_identifying(g, code)
        assert len(code) == (n + 1) // 2


@settings(max_examples=200, deadline=None)
@given(prufer_trees(min_n=3, max_n=18))
def test_tree_minimum_matches_the_exact_search(g):
    # gamma_id_exact hands a tree to _tree_minimum, so the search runs
    # directly.
    code = _tree_minimum(g.adj)
    assert code == sorted(set(code))
    assert is_identifying(g, code)
    best, done = _Search(*_identifiable(g)).run(0, 10**7)
    assert done and len(code) == best.bit_count()


@settings(max_examples=100, deadline=None)
@given(prufer_trees(min_n=3, max_n=300))
def test_gamma_id_exact_codes_every_tree_without_a_search(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idcodes.exact, "_Search", _refuse_search)
        res = gamma_id_exact(g)
    assert (res.optimal, res.nodes_explored) == (True, 0)
    assert res.size == len(res.code)
    assert oracles.is_id_code(g.n, g.edges, res.code)


def test_glued_tree_gamma_without_a_search():
    # The search took 579,403 nodes (6.75 s) to prove this tree's minimum.
    t0 = time.perf_counter()
    res = gamma_id_exact(GLUED_TREE)
    elapsed = time.perf_counter() - t0
    assert (res.size, res.nodes_explored, res.optimal) == (37, 0, True)
    assert is_identifying(GLUED_TREE, res.code)
    assert elapsed < 0.01


def _highs_minimum(g: Graph) -> int:
    """The minimum identifying code size of the twin-free graph g, by
    HiGHS: one row per N[v] and one per N[x] ^ N[y] of two vertices in one
    N[w], the pairs whose closed neighbourhoods meet."""
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    closed = [set(a) | {v} for v, a in enumerate(g.adj)]
    rows = [sorted(s) for s in closed]
    for s in closed:
        for x, y in combinations(sorted(s), 2):
            rows.append(sorted(closed[x] ^ closed[y]))
    cols = [w for row in rows for w in row]
    row_ids = [i for i, row in enumerate(rows) for _ in row]
    a = csr_array((np.ones(len(cols)), (row_ids, cols)), shape=(len(rows), g.n))
    res = milp(
        c=np.ones(g.n),
        constraints=[LinearConstraint(a, lb=1, ub=np.inf)],
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0
    return round(res.fun)


def test_tree_minimum_matches_highs_up_to_300_vertices():
    rng = random.Random(7)
    trees = [GLUED_TREE_68]
    for _ in range(10):
        n = rng.randint(100, 300)
        trees.append(Graph(n, [(rng.randrange(v), v) for v in range(1, n)]))
    for g in trees:
        code = _tree_minimum(g.adj)
        assert is_identifying(g, code)
        assert len(code) == _highs_minimum(g)
    assert len(_tree_minimum(GLUED_TREE_68.adj)) == 44


@pytest.mark.slow
def test_exact_matches_highs_on_sparse_graphs_up_to_60_vertices():
    # The exact-backends rows of ROADMAP.md: twin-free sparse triangle-free
    # graphs, n = 40 to 60, twelve seeds each; about 10 s in all.
    pytest.importorskip("scipy")
    for n in (40, 44, 48, 56, 60):
        for seed in range(12):
            g = random_triangle_free(n, round(1.3 * n), seed)
            res = gamma_id_exact(g)
            assert res.optimal and is_identifying(g, res.code)
            assert res.size == _highs_minimum(g)


def test_tree_minimum_on_a_long_path_does_not_recurse():
    g = path(2300)
    code = _tree_minimum(g.adj)
    assert len(code) == path_gamma(g.n)
    assert is_identifying(g, code)
