"""Greedy partition-refinement codes: size guarantees and validity."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idcodes.refine
import oracles
from idcodes import (
    Graph,
    GuaranteeError,
    NotYIdentifiableError,
    VertexRangeError,
    greedy_separating,
    gamma_id_exact,
    greedy_xy_identifying,
)
from idcodes.graphs import closed_neighborhood_masks
from idcodes.refine import _complete


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
        except NotYIdentifiableError as e:
            u, v = e.witness
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
        assert oracles.is_xy_code(g.n, g.edges, xs, ys, code)
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
    with pytest.raises(NotYIdentifiableError) as ei:
        greedy_separating(g, (0, 1), (0, 1))
    assert ei.value.witness == (0, 1)
    assert str(ei.value) == "no candidate vertex separates 0 from 1"
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotYIdentifiableError) as ei:
        greedy_xy_identifying(star, (1, 2, 3), (0,))
    assert ei.value.witness == (1, 2)


def _blocks(g: Graph, xs, code) -> list[set[int]]:
    """The partition of xs by code signature, N[x] & code."""
    masks = closed_neighborhood_masks(g)
    code_mask = sum(1 << c for c in code)
    blocks: dict[int, set[int]] = {}
    for x in xs:
        blocks.setdefault(masks[x] & code_mask, set()).add(x)
    return list(blocks.values())


def test_refinement_is_monotone():
    # Prefixes of the greedy code only ever split blocks, never merge them.
    for seed in range(40):
        g, xs, ys = random_instance(seed + 20_000)
        if oracles.min_xy_code(g.n, g.edges, xs, ys) is None:
            continue
        code = greedy_xy_identifying(g, xs, ys)
        prev = _blocks(g, xs, ())
        for k in range(len(code) + 1):
            cur = _blocks(g, xs, code[:k])
            assert len(cur) >= len(prev)
            for part in cur:
                assert sum(1 for b in prev if part <= b) == 1
            prev = cur


def test_p3_greedy_within_bound_exact_is_two():
    g = Graph(3, [(0, 1), (1, 2)])
    code = greedy_xy_identifying(g, range(3), range(3))
    assert len(code) <= 3
    assert oracles.is_xy_code(3, g.edges, range(3), range(3), code)
    assert gamma_id_exact(g).size == 2


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


def test_undominated_target_is_the_witness():
    # Y = {0} separates 0 from 3 on the path 0-1-2-3, but dominates only 0.
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert greedy_separating(p4, (0, 3), (0,)) == (0,)
    with pytest.raises(NotYIdentifiableError) as ei:
        greedy_xy_identifying(p4, (0, 3), (0,))
    assert ei.value.witness == 3
    assert str(ei.value) == "no candidate vertex dominates 3"


def test_broken_size_guarantee_raises(monkeypatch):
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(idcodes.refine, "_complete", lambda *args: None)
    with pytest.raises(GuaranteeError, match="size bound for"):
        greedy_separating(p4, range(4), range(4))
    monkeypatch.setattr(idcodes.refine, "_complete", lambda *args: 0b1111)
    with pytest.raises(GuaranteeError, match=r"size bound for \|X\| = 3"):
        greedy_xy_identifying(p4, (0, 1, 2), range(4))


@st.composite
def completions(draw):
    """A graph, targets X, candidates Y, a start code inside Y, and whether
    undominated targets count."""
    n = draw(st.integers(1, 12))
    g = random_graph(n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 10**9)))
    vertices = st.sets(st.integers(0, n - 1))
    xs = sorted(draw(vertices))
    ys = draw(st.one_of(st.just(set(range(n))), vertices))
    start = draw(st.sets(st.sampled_from(sorted(ys)))) if ys else set()
    return g, xs, ys, start, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(completions())
def test_completion_identifies_exactly_when_y_can(inst):
    g, xs, ys, start, dominate = inst
    closed = oracles.neighborhoods(g.n, g.edges)
    full = [frozenset(closed[x] & ys) for x in xs]
    feasible = len(set(full)) == len(xs) and (not dominate or all(full))
    masks = closed_neighborhood_masks(g)
    y_mask = sum(1 << y for y in ys)
    start_mask = sum(1 << s for s in start)
    out = _complete(masks, xs, y_mask, start_mask, dominate)
    assert (out is None) == (not feasible)
    if out is None:
        return
    code = {v for v in range(g.n) if out >> v & 1}
    assert start <= code <= ys
    sigs = [frozenset(closed[x] & code) for x in xs]
    assert len(set(sigs)) == len(xs)
    if dominate:
        assert all(sigs)
    # Each pick splits a signature class or, failing that, dominates every
    # undominated target, so X's |X| classes (plus domination) bound the
    # picks from any start.
    added = len(code) - len(start)
    assert added <= (len(xs) if dominate else max(0, len(xs) - 1))


@settings(max_examples=400, deadline=None)
@given(completions())
def test_lazy_completion_matches_the_rescore_everything_rule(inst):
    # A score never rises, so rescoring only the heap's top picks what
    # rescoring every candidate on every pick does, ties to the lowest.
    g, xs, ys, start, dominate = inst
    masks = closed_neighborhood_masks(g)
    out = _complete(
        masks, xs, sum(1 << y for y in ys), sum(1 << s for s in start), dominate
    )
    code = None if out is None else {v for v in range(g.n) if out >> v & 1}
    assert code == oracles.greedy_completion(g.n, g.edges, xs, ys, start, dominate)


def test_completion_with_no_candidate_left_is_stuck():
    # Y is the start code, so no candidate is left to separate 1 from 2.
    g = Graph(3, [(0, 1), (0, 2)])
    assert _complete(closed_neighborhood_masks(g), [1, 2], 0b1, 0b1, False) is None
    assert oracles.greedy_completion(3, g.edges, [1, 2], {0}, {0}, False) is None


@settings(max_examples=300, deadline=None)
@given(completions())
def test_not_separable_witness_is_the_smallest_pair(inst):
    g, xs, ys, _, _ = inst
    closed = oracles.neighborhoods(g.n, g.edges)
    inseparable = [
        (a, b)
        for i, a in enumerate(xs)
        for b in xs[i + 1:]
        if not (closed[a] ^ closed[b]) & ys
    ]
    if not inseparable:
        assert len(greedy_separating(g, xs, ys)) <= max(0, len(xs) - 1)
        return
    with pytest.raises(NotYIdentifiableError) as ei:
        greedy_separating(g, xs, ys)
    assert ei.value.witness == min(inseparable)


def _witness(run, g, xs, ys):
    """What run(g, xs, ys) names when it fails, or None when it succeeds."""
    try:
        run(g, xs, ys)
    except NotYIdentifiableError as e:
        return e.witness
    return None


@settings(max_examples=300, deadline=None)
@given(completions())
# Y = {0} separates neither 2 from 3 nor dominates 1: both greedy codes
# name the pair first.
@example((Graph(5, [(0, 2), (0, 3), (1, 4)]), [1, 2, 3], {0}, set(), True))
def test_xy_entry_points_agree(inst):
    g, xs, ys, _, _ = inst
    greedy = _witness(greedy_xy_identifying, g, xs, ys)
    assert (greedy is None) == oracles.is_xy_code(g.n, g.edges, xs, ys, ys)
    separating = _witness(greedy_separating, g, xs, ys)
    if isinstance(greedy, tuple):
        assert separating == greedy
    else:
        assert separating is None
