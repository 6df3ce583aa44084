"""Code verification predicates against brute-force references."""

from __future__ import annotations

import random

import pytest

import oracles
from idcodes import (
    Graph,
    VertexRangeError,
    Violation,
    greedy_separating,
    greedy_xy_identifying,
    induced_subgraph,
    is_identifying,
    is_xy_identifying,
    min_identifying_containing,
    min_xy_identifying_exact,
    partition_by_code,
    unseparated_pairs,
    violations,
)


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def test_violation_str():
    assert str(Violation("undominated", (3,))) == "undominated 3"
    assert str(Violation("unseparated", (1, 2))) == "unseparated 1 2"


def test_k2_full_code_has_one_unseparated_pair():
    g = Graph(2, [(0, 1)])
    v = violations(g, (0, 1))
    assert len(v) == 1
    assert v[0].kind == "unseparated" and v[0].vertices == (0, 1)
    assert not is_identifying(g, (0, 1))


def test_empty_code_all_undominated():
    g = Graph(3, [(0, 1), (1, 2)])
    v = violations(g, ())
    assert [x.kind for x in v][:3] == ["undominated"] * 3
    assert [x.vertices for x in v[:3]] == [(0,), (1,), (2,)]


def test_undominated_listed_before_unseparated():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    v = violations(g, (1,))
    kinds = [x.kind for x in v]
    assert kinds == sorted(kinds)  # "undominated" < "unseparated"


def test_is_identifying_matches_bruteforce():
    rng = random.Random(9)
    for seed in range(120):
        n = 2 + seed % 7
        g = random_graph(n, seed % 13, 1000 + seed)
        code = tuple(v for v in range(n) if rng.random() < 0.5)
        assert is_identifying(g, code) == oracles.is_id_code(n, g.edges, code)
        assert is_identifying(g, code) == (not violations(g, code))


def test_unseparated_pairs_match_bruteforce():
    rng = random.Random(10)
    for seed in range(60):
        n = 3 + seed % 6
        g = random_graph(n, seed % 11, 2000 + seed)
        code = set(v for v in range(n) if rng.random() < 0.6)
        closed = oracles.neighborhoods(n, g.edges)
        naive = sorted(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if closed[u] & code == closed[v] & code
        )
        assert list(unseparated_pairs(g, code)) == naive


def test_restricted_target_set():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # The endpoint code tells 1 and 2 apart but conflates each end pair.
    assert not unseparated_pairs(g, (0, 3), x=(1, 2))
    assert unseparated_pairs(g, (0, 3)) == ((0, 1), (2, 3))
    assert unseparated_pairs(g, (0,), x=(2, 3)) == ((2, 3),)


def test_is_xy_identifying():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_xy_identifying(g, (0, 1, 2), (0, 1, 2, 3), (0, 2))
    assert not is_xy_identifying(g, (0, 1, 2, 3), (0, 1, 2, 3), (0, 2))
    with pytest.raises(ValueError):
        is_xy_identifying(g, (0, 1), (0, 1), (0, 3))  # 3 outside Y
    with pytest.raises(VertexRangeError, match="candidate vertex 9"):
        is_xy_identifying(g, (0, 1), (1, 2, 9), (1, 2))


def test_is_xy_identifying_matches_bruteforce():
    rng = random.Random(11)
    for seed in range(60):
        n = 3 + seed % 6
        g = random_graph(n, seed % 11, 3000 + seed)
        xs = sorted(rng.sample(range(n), 1 + seed % n))
        ys = sorted(rng.sample(range(n), 1 + (seed + 3) % n))
        code = tuple(v for v in ys if rng.random() < 0.7)
        assert is_xy_identifying(g, xs, ys, code) == oracles.is_xy_code(
            n, g.edges, xs, ys, code
        )


P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "call, vertex",
    [
        (lambda: violations(P4, (0, 99)), 99),
        (lambda: violations(P4, (0, 1), x=(0, -1)), -1),
        (lambda: unseparated_pairs(P4, (0, 99)), 99),
        (lambda: unseparated_pairs(P4, (0, 1), x=(4,)), 4),
        (lambda: is_identifying(P4, (0, 99)), 99),
        (lambda: is_xy_identifying(P4, (0, 99), (0, 1), (0,)), 99),
        (lambda: is_xy_identifying(P4, (0, 1), (0, 1, 99), (0,)), 99),
        (lambda: partition_by_code(P4, (0, 99), (1,)), 99),
        (lambda: partition_by_code(P4, (0, 1), (-2,)), -2),
        (lambda: greedy_separating(P4, (0, 99), (0,)), 99),
        (lambda: greedy_separating(P4, (0, 1), (0, 99)), 99),
        (lambda: greedy_xy_identifying(P4, (99,), (0,)), 99),
        (lambda: greedy_xy_identifying(P4, (0, 1), (-1, 0)), -1),
        (lambda: min_xy_identifying_exact(P4, (0, 99), (0, 1)), 99),
        (lambda: min_xy_identifying_exact(P4, (0, 1), (0, 99)), 99),
        (lambda: min_identifying_containing(P4, (0, 99)), 99),
        (lambda: induced_subgraph(P4, (0, 4)), 4),
    ],
    ids=[
        "violations-code", "violations-x", "unseparated_pairs-code",
        "unseparated_pairs-x",
        "is_identifying", "is_xy_identifying-x", "is_xy_identifying-y",
        "partition_by_code-x", "partition_by_code-code",
        "greedy_separating-x", "greedy_separating-y",
        "greedy_xy_identifying-x", "greedy_xy_identifying-y",
        "min_xy_identifying_exact-x", "min_xy_identifying_exact-y",
        "min_identifying_containing", "induced_subgraph",
    ],
)
def test_out_of_range_vertices_are_rejected_everywhere(call, vertex):
    # Every public function taking a code, X, Y or a required set rejects a
    # vertex outside 0..n-1 by name, never by an IndexError, a wrong answer
    # or a negative index read as vertex n - 1.
    with pytest.raises(VertexRangeError, match=rf"vertex {vertex} out of range"):
        call()
