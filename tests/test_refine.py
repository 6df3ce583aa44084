"""Greedy partition-refinement codes: size guarantees and validity."""

from __future__ import annotations

import random

import pytest

import oracles
from idcodes import (
    Graph,
    NotSeparableError,
    VertexRangeError,
    greedy_separating,
    greedy_xy_identifying,
    is_xy_identifying,
    min_xy_identifying_exact,
    partition_by_code,
)


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def random_instance(seed: int):
    rng = random.Random(seed)
    n = rng.randrange(3, 15)
    g = random_graph(n, rng.randrange(n - 1, 2 * n), seed * 31 + 7)
    xs = sorted(rng.sample(range(n), rng.randrange(2, n + 1)))
    ys = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
    return g, xs, ys


def separates_all(g: Graph, xs, code) -> bool:
    closed = oracles.neighborhoods(g.n, g.edges)
    sigs = [frozenset(closed[x] & set(code)) for x in xs]
    return len(set(sigs)) == len(xs)


def test_greedy_separating_size_and_validity():
    done = 0
    for seed in range(400):
        g, xs, ys = random_instance(seed)
        try:
            code = greedy_separating(g, xs, ys)
        except NotSeparableError as e:
            u, v = e.pair
            closed = oracles.neighborhoods(g.n, g.edges)
            assert not ((closed[u] ^ closed[v]) & set(ys))
            continue
        assert len(code) <= len(xs) - 1
        assert set(code) <= set(ys)
        assert separates_all(g, xs, code)
        done += 1
    assert done > 100


def test_greedy_xy_identifying_size_and_validity():
    done = 0
    for seed in range(400):
        g, xs, ys = random_instance(seed + 10_000)
        if oracles.min_xy_code(g.n, g.edges, xs, ys) is None:
            continue
        code = greedy_xy_identifying(g, xs, ys)
        assert len(code) <= len(xs)
        assert is_xy_identifying(g, xs, ys, code)
        done += 1
    assert done > 100


def test_greedy_is_deterministic():
    done = 0
    for seed in range(60):
        g, xs, ys = random_instance(seed)
        if oracles.min_xy_code(g.n, g.edges, xs, ys) is None:
            continue
        a = greedy_xy_identifying(g, xs, ys)
        b = greedy_xy_identifying(g, list(reversed(xs)), set(ys))
        assert a == b
        done += 1
    assert done > 10


def test_not_separable_witness():
    g = Graph(2, [(0, 1)])  # closed twins
    with pytest.raises(NotSeparableError) as ei:
        greedy_separating(g, (0, 1), (0, 1))
    assert ei.value.pair == (0, 1)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotSeparableError):
        greedy_xy_identifying(star, (1, 2, 3), (0,))


def test_partition_by_code_blocks():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    part = partition_by_code(g, range(4), (1,))
    # Signature {1} for 0, 1, 2; empty for 3.
    assert part.parts == ((0, 1, 2), (3,))
    assert part.count == 2
    full = partition_by_code(g, range(4), (0, 1, 2, 3))
    assert full.count == 4


def test_refinement_is_monotone():
    # Prefixes of the greedy code only ever split blocks, never merge them.
    for seed in range(40):
        g, xs, ys = random_instance(seed + 20_000)
        if oracles.min_xy_code(g.n, g.edges, xs, ys) is None:
            continue
        code = greedy_xy_identifying(g, xs, ys)
        prev = partition_by_code(g, xs, ())
        for k in range(len(code) + 1):
            cur = partition_by_code(g, xs, code[:k])
            assert cur.count >= prev.count
            blocks = [set(b) for b in prev.parts]
            for part in cur.parts:
                assert sum(1 for b in blocks if set(part) <= b) == 1
            prev = cur


def test_p3_greedy_within_bound_exact_is_two():
    g = Graph(3, [(0, 1), (1, 2)])
    code = greedy_xy_identifying(g, range(3), range(3))
    assert len(code) <= 3
    assert is_xy_identifying(g, range(3), range(3), code)
    assert min_xy_identifying_exact(g, range(3), range(3)).size == 2


def test_out_of_range_vertices_are_rejected():
    # A target or candidate outside 0..n-1 is a VertexRangeError, never an
    # IndexError or a negative index read as vertex n - 1.
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(VertexRangeError, match="target vertex 9"):
        greedy_separating(p4, [9], [0])
    with pytest.raises(VertexRangeError, match="candidate vertex 7"):
        greedy_separating(p4, [0, 1], [0, 7])
    with pytest.raises(VertexRangeError, match="target vertex -1"):
        greedy_xy_identifying(p4, [-1, 2], [0, 1])
    with pytest.raises(VertexRangeError, match="candidate vertex 4"):
        greedy_xy_identifying(p4, [0, 1], [0, 1, 4])
    with pytest.raises(VertexRangeError, match="target vertex 9"):
        partition_by_code(p4, [0, 9], [1])
    with pytest.raises(VertexRangeError, match="code vertex -2"):
        partition_by_code(p4, [0, 1], [-2])
