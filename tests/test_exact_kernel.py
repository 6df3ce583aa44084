"""The exact search kernel.

The outputs of gamma_id_exact are pinned by digest, twice. The `PINNED`
records hold the node count, so those digests pin the search tree
itself; they were recorded from the kernel that branches on the smallest
open resolver set, packs its bound smallest set first, on a root list
without dominated violations, fixes out every vertex that a packing one
vertex short of a cut leaves to no strictly better code, and skips a
child that an excluded vertex dominates. The `PINNED_CODES` digest
covers the completed searches' records with the node counts left out. It
was recorded from _Search, and the naive kernel below, which packs in
branching order and fixes no vertex out, gives the same digest: a
tighter bound and the cuts may only shrink the tree, never change a
completed search's code. A hypothesis property compares _Search with
that naive kernel, which rebuilds its whole violation list at every node
and branches on its smallest set, the first in branching order on a
tie; another compares the root list with the plain filtered list of
every pair of every signature class. A third checks the carried list
against its plain rule, and a fourth checks the one pass over the sorted
list against tests/oracles.py's filter per small set on any int list.
Two examples of the first one pin the branching rule: one whose smallest
root set comes after a larger one in branching order, and one whose
smallest root sets tie. Another is cut at the root by the fixing: an
instance whose one-short packing leaves three pairwise meeting parts in
one packed set.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idcodes.exact
import oracles
from idcodes import (
    Graph,
    GuaranteeError,
    find_closed_twins,
    gamma_id_exact,
    is_identifying,
    make_standard,
    random_triangle_free,
)
from idcodes.exact import _Search
from idcodes.graphs import closed_neighborhood_masks
from idcodes.refine import _complete


def _random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    return Graph(n, pool[: min(m, len(pool))])


def _twin_free(count: int, seed: int, lo: int = 6, hi: int = 15) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(lo, hi)
        g = _random_graph(n, rng.randint(n - 1, 3 * n), rng.randrange(10**9))
        if not find_closed_twins(g):
            out.append(g)
    return out


def _line(res, nodes: bool = True) -> str:
    count = f" {res.nodes_explored}" if nodes else ""
    return f"{res.size} {res.code}{count} {res.optimal}\n"


def _gamma(nodes: bool = True) -> list[str]:
    return [_line(gamma_id_exact(g), nodes) for g in _twin_free(80, 1, hi=19)]


def _budget() -> list[str]:
    out = []
    for i, g in enumerate(_twin_free(30, 7, lo=12, hi=16)):
        budget = 3 + 7 * i
        out.append(_line(gamma_id_exact(g, node_budget=budget)))
    return out


# record set: (records, sha256 of the concatenated records)
PINNED = {
    "gamma": (
        _gamma,
        "333930e35a11a0760a723beb3b8ca52457556662ce3b4f251ede06c7e284d1aa",
    ),
    "budget": (
        _budget,
        "8b9134a1f034d55173438536372f86f937d0a2e3118006c88653f23a1bb78c20",
    ),
}


# record set: sha256 of the same records with the node counts left out,
# recorded from _Search; _NaiveSearch's codes give the same digest
PINNED_CODES = {
    "gamma": "31babef4146b85d678d1298f6299c22cfa7ec63274704f7ddbf693018b0f2cf0",
}


@pytest.mark.parametrize("entry", sorted(PINNED))
def test_exact_outputs_match_pinned_digests(entry):
    records, expected = PINNED[entry]
    digest = hashlib.sha256("".join(records()).encode("ascii")).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("entry", sorted(PINNED_CODES))
def test_exact_codes_match_pinned_digests(entry):
    records, _ = PINNED[entry]
    digest = hashlib.sha256("".join(records(False)).encode("ascii")).hexdigest()
    assert digest == PINNED_CODES[entry]


class _NaiveSearch:
    """A plain copy of the kernel, with no partition carried down the
    tree: every node and every greedy step regroups all of X and lists
    every violation. A node branches on the smallest open resolver set within the
    candidates, the first in branching order on a tie."""

    def __init__(self, masks, xs, allowed):
        self.masks, self.xs, self.allowed = masks, xs, allowed

    def violation_resolvers(self, code):
        out = []
        groups = {}
        for x in self.xs:
            sig = self.masks[x] & code
            if sig == 0:
                out.append(self.masks[x])
            groups.setdefault(sig, []).append(x)
        pairs = sorted(
            (members[i], members[j])
            for members in groups.values()
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        return out + [self.masks[a] ^ self.masks[b] for a, b in pairs]

    def greedy_code(self, start):
        code = start
        while True:
            resolvers = [
                r & self.allowed & ~code for r in self.violation_resolvers(code)
            ]
            if not resolvers:
                return code
            if any(r == 0 for r in resolvers):
                return None
            counts = {}
            for r in resolvers:
                for w in range(len(self.masks)):
                    if r >> w & 1:
                        counts[w] = counts.get(w, 0) + 1
            code |= 1 << min(counts, key=lambda c: (-counts[c], c))

    def node(self, code, banned):
        self.nodes += 1
        if self.nodes > self.budget:
            raise OverflowError
        resolvers = self.violation_resolvers(code)
        if not resolvers:
            size = code.bit_count()
            if size < self.best_size:
                self.best_size, self.best_mask = size, code
            return
        usable = self.allowed & ~code & ~banned
        first = min(resolvers, key=lambda r: (r & self.allowed).bit_count())
        first &= usable
        if first == 0:
            return
        lb = used = 0
        for r in resolvers:
            r &= usable
            if r == 0:
                return
            if r & used == 0:
                lb += 1
                used |= r
        if code.bit_count() + lb >= self.best_size:
            return
        for w in range(len(self.masks)):
            if first >> w & 1:
                self.node(code | 1 << w, banned)
                banned |= 1 << w

    def run(self, required, budget):
        self.budget, self.nodes = budget, 0
        greedy = self.greedy_code(required)
        self.best_size, self.best_mask = greedy.bit_count(), greedy
        if self.best_size == required.bit_count():
            return greedy, True
        try:
            self.node(required, 0)
        except OverflowError:
            return self.best_mask, False
        return self.best_mask, True


def _mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def _half_integral_triple():
    """X = {0, 1, 2}, drawn from Y = {3, 4, 9, 15}, whose resolver sets
    {3, 4}, {3, 9, 15} and {4, 9, 15} pairwise meet with no vertex in all
    three. Each pair's set repeats the third vertex's set, so the root list
    is just the triple."""
    edges = [(0, 3), (0, 4), (1, 3), (1, 9), (1, 15), (2, 4), (2, 9), (2, 15)]
    masks = closed_neighborhood_masks(Graph(16, edges))
    return masks, [0, 1, 2], _mask((3, 4, 9, 15))


_PARTS = ((8, 9, 10), (8, 9, 11), (9, 10, 12), (8, 10, 13))


def _three_parts():
    """X = {0, ..., 7}, drawn from Y = {0, 1, 2, 3, 8, ..., 13}, with the
    code started at {0, 1, 2, 3}. Target 4 + i shares the signature of code
    vertex i, and the pair's resolver set is the rest of N[4 + i], the
    i-th of _PARTS. Packing takes {8, 9, 10} alone, and the other sets'
    parts in it, {8, 9}, {9, 10} and {8, 10}, pairwise meet with no vertex
    in all three."""
    edges = [(i, 4 + i) for i in range(4)]
    for i, part in enumerate(_PARTS):
        edges += [(4 + i, v) for v in part]
    masks = closed_neighborhood_masks(Graph(14, edges))
    return masks, list(range(8)), _mask((0, 1, 2, 3, 8, 9, 10, 11, 12, 13))


def _cycle(n: int):
    """The cycle C_n as an instance: every vertex a target and a candidate."""
    masks = closed_neighborhood_masks(make_standard("cycle", n))
    return masks, list(range(n)), (1 << n) - 1


@st.composite
def instances(draw):
    """A graph, target set X and candidate set Y, feasible or not."""
    n = draw(st.integers(1, 13))
    g = _random_graph(n, draw(st.integers(0, 3 * n)), draw(st.integers(0, 10**9)))
    masks = closed_neighborhood_masks(g)
    vertices = st.sets(st.integers(0, n - 1))
    xs = sorted(draw(st.one_of(st.just(set(range(n))), vertices)))
    allowed = _mask(draw(st.one_of(st.just(set(range(n))), vertices)))
    return masks, xs, allowed


def _feasible(masks, xs, allowed) -> bool:
    sigs = [masks[x] & allowed for x in xs]
    return all(sigs) and len(set(sigs)) == len(sigs)


@settings(max_examples=300, deadline=None)
@given(
    instances(),
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 12))),
    st.one_of(st.just(10**6), st.integers(1, 400)),
)
# The half-integral triple: cut at the root against the greedy code {3, 4}.
@example(_half_integral_triple(), frozenset(), 10**6)
# Three pairwise meeting parts in one file: cut at the root by the fixing.
@example(_three_parts(), frozenset(range(4)), 10**6)
# Here the naive packing prunes at the root, while smallest first packs only
# {1, 5}, one short of a cut, and the fixing cuts the root: under a 1-node
# budget both searches complete.
@example(
    ([37, 86, 231, 248, 218, 109, 254, 220], [3, 4, 6], 255),
    frozenset(),
    1,
)
# Vertex 2 is isolated, so its set {2} is the root's smallest, after vertex
# 0's {0, 5} in branching order. The search finds {2, 3, 4, 5, 6}; branching
# on the first violation at every node finds {0, 2, 5, 6, 7} first.
@example(
    ([33, 234, 4, 202, 80, 99, 122, 138], list(range(8)), 255),
    frozenset(),
    10**6,
)
# The root's five smallest sets, {2, 3}, {3, 6}, {4, 7}, {0, 5} and {1, 2},
# have two candidates each. The search finds {0, 2, 6, 7}; taking the last
# smallest set at every node finds {1, 3, 4, 5} first.
@example(
    ([25, 102, 190, 237, 21, 46, 202, 204], list(range(8)), 255),
    frozenset(),
    10**6,
)
def test_search_matches_naive_kernel(inst, start_set, budget):
    masks, xs, allowed = inst
    start = _mask(start_set) & allowed
    new, old = _Search(masks, xs, allowed), _NaiveSearch(masks, xs, allowed)
    assert _complete(masks, xs, allowed, start, True) == old.greedy_code(start)
    if not _feasible(masks, xs, allowed):
        return
    best, done = old.run(start, budget)
    found = new.run(start, budget)
    if done and found[1]:
        # Both bounds are valid, so each prunes only subtrees without a
        # strictly smaller code: the same incumbents and the same result.
        assert found == (best, done)
    elif done or found[1]:
        # A search that completes holds a code no larger than one cut off
        # by its budget.
        complete, cut = (best, found[0]) if done else (found[0], best)
        assert complete.bit_count() <= cut.bit_count()


@settings(max_examples=300, deadline=None)
@given(instances(), st.frozensets(st.integers(0, 12)))
def test_root_list_matches_the_filtered_pair_list(inst, code_set):
    # The plain rule: every pair of every signature class, in lexicographic
    # order, less the undominated pairs with no common candidate, then the
    # repeated sets.
    masks, xs, allowed = inst
    code = _mask(code_set) & allowed
    classes: dict[int, list[int]] = {}
    for x in xs:
        classes.setdefault(masks[x] & code, []).append(x)
    rs = [masks[x] & allowed for x in classes.get(0, [])]
    pairs = sorted(
        (a, b)
        for members in classes.values()
        for i, a in enumerate(members)
        for b in members[i + 1:]
    )
    for a, b in pairs:
        if masks[a] & code or masks[a] & masks[b] & allowed:
            rs.append((masks[a] ^ masks[b]) & allowed)
    expected = list(dict.fromkeys(rs))
    assert _Search(masks, xs, allowed)._violations(code) == expected


@settings(max_examples=300, deadline=None)
@given(instances(), st.frozensets(st.integers(0, 12)))
def test_carried_list_drops_exactly_the_supersets_of_small_sets(inst, code_set):
    # The root list sorted by size, ties in branching order, less every set
    # that strictly holds a set of the root list with at most two
    # candidates.
    masks, xs, allowed = inst
    code = _mask(code_set) & allowed
    root = _Search(masks, xs, allowed)._violations(code)
    small = [t for t in root if t.bit_count() <= 2]
    expected = [r for r in root if not any(t & r == t != r for t in small)]
    assert _Search._minimal(root) == sorted(expected, key=int.bit_count)


_SMALL_SETS = st.one_of(
    st.just(0),
    st.integers(0, 11).map(lambda a: 1 << a),
    st.tuples(st.integers(0, 11), st.integers(0, 11)).map(
        lambda ab: 1 << ab[0] | 1 << ab[1]
    ),
    st.integers(0, (1 << 12) - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SMALL_SETS, max_size=30))
def test_carried_list_matches_the_filter_per_small_set(rs):
    # Any int list, with repeats, empty sets and sets of one or two bits:
    # the one pass over the sorted list keeps what one filter per small set
    # keeps, sorted by size with ties in the list's order.
    expected = sorted(oracles.carried_sets(rs), key=int.bit_count)
    assert _Search._minimal(rs) == expected


def test_half_integral_step_cuts_the_triple_at_the_root():
    masks, xs, allowed = _half_integral_triple()
    search = _Search(masks, xs, allowed)
    triple = [_mask(s) for s in ((3, 4), (3, 9, 15), (4, 9, 15))]
    assert search._violations(0) == triple
    # Greedy takes 3, then 4. The root has room for 2 vertices, and packing
    # {3, 4} alone leaves the bound at 1, one short. The other sets' parts
    # in {3, 4}, {3} and {4}, are disjoint, so the fixing narrows {3, 4} to
    # their empty intersection: no code of one vertex exists, the root is
    # cut and {3, 4} is optimal. Without the fixing the search branches on
    # {3, 4} and takes 3 nodes.
    assert search.run(0, 10**6) == (_mask((3, 4)), True)
    assert search.nodes == 1


def test_fixing_cuts_three_pairwise_meeting_parts_at_the_root():
    masks, xs, allowed = _three_parts()
    search = _Search(masks, xs, allowed)
    start = _mask(range(4))
    assert search._violations(start) == [_mask(s) for s in _PARTS]
    # The root has room for 2 vertices and packs only {8, 9, 10}, one
    # short. A code of one more vertex takes it from the intersection of
    # {8, 9, 10}, {8, 9}, {9, 10} and {8, 10}, which is empty, so the root
    # is cut. No two of those parts are disjoint, so a half-integral step
    # on them finds nothing, and without the fixing the search takes 4
    # nodes.
    best, done = search.run(start, 10**6)
    assert (best.bit_count(), done, search.nodes) == (6, True, 1)


# n: the nodes the search takes to prove gamma(C_n) = n/2
_EVEN_CYCLE_NODES = {10: 7, 12: 17, 14: 9, 16: 20, 20: 24, 22: 49, 30: 91}


@pytest.mark.parametrize("n", sorted(_EVEN_CYCLE_NODES))
def test_even_cycles_below_gamma_are_decided_at_the_root(n):
    # gamma(C_n) = n/2. Against an incumbent of n/2 the root packs n/2 - 1
    # disjoint sets, one short, and the narrowing runs on round the cycle
    # until some set has no vertex left, so the root is cut and no code
    # below n/2 is sought further; before the fixing, C14 and C20 took 4
    # nodes to show that.
    search = _Search(*_cycle(n))
    best, done = search.run(0, 10**6)
    assert (best.bit_count(), done) == (n // 2, True)
    assert search.nodes == _EVEN_CYCLE_NODES[n]
    search.nodes = 0
    assert search._node(0, 0, search._minimal(search._violations(0))) is None
    assert search.nodes == 1


def test_stuck_greedy_raises_guarantee_error(monkeypatch):
    monkeypatch.setattr(idcodes.exact, "_complete", lambda *args: None)
    g = _twin_free(1, 8)[0]
    with pytest.raises(GuaranteeError):
        gamma_id_exact(g)


def test_search_on_a_long_path_does_not_recurse():
    # The search goes one level deeper per code vertex, and P400's greedy
    # code has 267. With room for only 150 more Python frames, the walk on
    # an explicit stack still runs to its budget.
    g = make_standard("path", 400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        res = gamma_id_exact(g, node_budget=400)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.nodes_explored, res.optimal) == (400, False)
    assert is_identifying(g, res.code)


def test_search_skips_dominated_children():
    # A sparse triangle-free graph of 44 vertices: the search proves its
    # gamma of 21 in 93 nodes with the dominance cut, 1,680 without it.
    res = gamma_id_exact(random_triangle_free(44, 57, 5))
    assert (res.size, res.optimal) == (21, True)
    assert res.nodes_explored <= 200
