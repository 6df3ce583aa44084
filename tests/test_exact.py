"""Exact branch-and-bound solver against brute force, and the closed forms."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import idcodes.exact
import idcodes.graphs
import oracles
from idcodes import (
    EdgeAdditionError,
    Graph,
    GuaranteeError,
    NotIdentifiableError,
    NotYIdentifiableError,
    SearchBudgetError,
    VertexRangeError,
    cycle_identifying_code,
    gamma_id_closed_form,
    gamma_id_exact,
    identifying_code_at_most,
    is_identifying,
    min_identifying_containing,
    min_xy_identifying_exact,
    odd_cycle_plus_chord_code,
    path_identifying_code,
)


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


def test_at_most_decides_both_ways():
    g = cycle(10)  # gamma is 5
    assert identifying_code_at_most(g, 4) is None
    code = identifying_code_at_most(g, 5)
    assert code is not None and len(code) <= 5
    assert is_identifying(g, code)
    with pytest.raises(SearchBudgetError):
        identifying_code_at_most(cycle(14), 6, node_budget=2)
    with pytest.raises(NotIdentifiableError):
        identifying_code_at_most(Graph(2, [(0, 1)]), 2)


def test_min_identifying_containing():
    g = path(6)
    res = min_identifying_containing(g, (5,))
    assert 5 in res.code
    assert is_identifying(g, res.code)
    assert res.size >= gamma_id_exact(g).size
    # Brute-force the same constrained minimum.
    best = None
    for k in range(1, 7):
        for combo in combinations(range(6), k):
            if 5 in combo and oracles.is_id_code(6, g.edges, combo):
                best = k
                break
        if best:
            break
    assert res.size == best


def test_min_xy_exact_matches_bruteforce():
    rng = random.Random(12)
    for seed in range(60):
        n = 4 + seed % 5
        g = random_graph(n, 3 + seed % 9, 5000 + seed)
        xs = sorted(rng.sample(range(n), 2 + seed % (n - 1)))
        ys = sorted(rng.sample(range(n), 2 + (seed + 2) % (n - 1)))
        expected = oracles.min_xy_code(n, g.edges, xs, ys)
        if expected is None:
            with pytest.raises(NotYIdentifiableError):
                min_xy_identifying_exact(g, xs, ys)
            continue
        res = min_xy_identifying_exact(g, xs, ys)
        assert res.size == expected[0]
        assert set(res.code) <= set(ys)


def test_min_xy_witnesses():
    g = path(3)
    with pytest.raises(NotYIdentifiableError) as ei:
        min_xy_identifying_exact(g, (0,), (2,))
    assert ei.value.witness == 0
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotYIdentifiableError) as ei:
        min_xy_identifying_exact(star, (1, 2, 3), (0,))
    assert ei.value.witness == (1, 2)


def test_p3_full_xy_minimum_is_two():
    # X = Y = V on the 3-path: {0, 2} gives signatures {0}, {0,2}, {2}.
    g = path(3)
    res = min_xy_identifying_exact(g, range(3), range(3))
    assert res.size == 2
    assert oracles.min_xy_code(3, g.edges, range(3), range(3))[0] == 2


def test_closed_form_matches_exact_paths_and_cycles():
    assert gamma_id_closed_form(path(1)) == 1
    for n in range(3, 11):
        assert gamma_id_closed_form(path(n)) == n // 2 + 1
        assert gamma_id_exact(path(n)).size == n // 2 + 1
    for n in range(4, 11):
        expected = (
            3 if n in (4, 5) else (n // 2 if n % 2 == 0 else (n + 3) // 2)
        )
        assert gamma_id_closed_form(cycle(n)) == expected
        assert gamma_id_exact(cycle(n)).size == expected


def test_closed_form_rejections():
    with pytest.raises(NotIdentifiableError):
        gamma_id_closed_form(path(2))
    with pytest.raises(NotIdentifiableError):
        gamma_id_closed_form(cycle(3))
    with pytest.raises(ValueError):
        gamma_id_closed_form(Graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_pattern_codes_verify_and_hit_the_minimum():
    assert path_identifying_code(1) == (0,)
    for n in range(3, 14):
        code = path_identifying_code(n)
        assert is_identifying(path(n), code)
        assert len(code) == gamma_id_closed_form(path(n))
    for n in range(4, 14):
        code = cycle_identifying_code(n)
        assert is_identifying(cycle(n), code)
        assert len(code) == gamma_id_closed_form(cycle(n))
    with pytest.raises(NotIdentifiableError):
        path_identifying_code(2)
    with pytest.raises(NotIdentifiableError):
        cycle_identifying_code(3)
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
    entries = (
        gamma_id_exact,
        lambda g: min_identifying_containing(g, (0,)),
        lambda g: identifying_code_at_most(g, 4),
    )
    for run in entries:
        calls.clear()
        run(path(7))
        assert calls == [7]
        calls.clear()
        with pytest.raises(NotIdentifiableError) as err:
            run(twins)
        assert err.value.twins == (0, 5)
        assert calls == [6]


def test_out_of_range_vertices_are_rejected():
    p4 = path(4)
    with pytest.raises(VertexRangeError, match="target vertex 9"):
        min_xy_identifying_exact(p4, [0, 9], range(4))
    with pytest.raises(VertexRangeError, match="candidate vertex -1"):
        min_xy_identifying_exact(p4, [0, 1], [-1, 0, 1])
    with pytest.raises(VertexRangeError, match="required vertex 5"):
        min_identifying_containing(path(5), [4, 5])


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
