"""The exact search kernel.

The outputs of the exact entry points are pinned by digest, twice. The
`PINNED` records hold the node count, so those digests pin the search tree
itself; they were recorded from the kernel that packs its bound smallest
resolver set first, then tries one half-integral step, on a root list
without dominated violations, and skips a child that an excluded vertex
dominates. The `PINNED_CODES` digests cover the same
records with the node counts left out, and were recorded from an older
kernel, which packed in branching order and had no half-integral step: a
tighter bound may only shrink the tree, never change a completed search's
code. A hypothesis property compares _Search with a naive copy of the
kernel that rebuilt its whole violation list at every node and packed in
branching order, and another compares the root list with the plain
filtered list of every pair of every signature class. A third checks the
carried list against its plain rule, and an example of the first one
branches on a root set the carried list leaves out, so the cursor over the
root list, not the head of the carried list, picks the branch.
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
from idcodes import (
    Graph,
    GuaranteeError,
    NotYIdentifiableError,
    SearchBudgetError,
    find_closed_twins,
    gamma_id_exact,
    identifying_code_at_most,
    is_identifying,
    make_standard,
    min_identifying_containing,
    min_xy_identifying_exact,
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


def _xy(nodes: bool = True) -> list[str]:
    rng = random.Random(2)
    out = []
    for g in _twin_free(60, 3, hi=17):
        xs = rng.sample(range(g.n), rng.randint(2, g.n - 1))
        ys = rng.sample(range(g.n), rng.randint(g.n // 2, g.n - 1))
        try:
            out.append(_line(min_xy_identifying_exact(g, xs, ys), nodes))
        except NotYIdentifiableError as err:
            out.append(f"infeasible {err.witness}\n")
    return out


def _containing(nodes: bool = True) -> list[str]:
    rng = random.Random(4)
    out = []
    for g in _twin_free(40, 5, hi=18):
        required = rng.sample(range(g.n), rng.randint(1, 3))
        out.append(_line(min_identifying_containing(g, required), nodes))
    return out


def _at_most(nodes: bool = True) -> list[str]:
    out = []
    for g in _twin_free(30, 6):
        gamma = gamma_id_exact(g).size
        full = (1 << g.n) - 1
        for cap in (gamma - 2, gamma - 1, gamma):
            out.append(f"{identifying_code_at_most(g, cap)}\n")
            search = _Search(closed_neighborhood_masks(g), list(range(g.n)), full)
            best, done = search.run(0, 10**6, cap=cap)
            count = f" {search.nodes}" if nodes else ""
            out.append(f"{best} {done}{count}\n")
    return out


def _budget() -> list[str]:
    out = []
    for i, g in enumerate(_twin_free(30, 7, lo=12, hi=16)):
        budget = 3 + 7 * i
        out.append(_line(gamma_id_exact(g, node_budget=budget)))
        out.append(_line(min_identifying_containing(g, (i % g.n,), budget)))
        out.append(_line(min_xy_identifying_exact(g, range(g.n), range(g.n), budget)))
        try:
            out.append(f"{identifying_code_at_most(g, g.n // 3, budget)}\n")
        except SearchBudgetError:
            out.append("undecided\n")
    return out


# entry point: (records, sha256 of the concatenated records)
PINNED = {
    "gamma": (
        _gamma,
        "7b5d078cbcd9bb899d8358d7968e3aac98a37620d49742cb269a8f9de0e94888",
    ),
    "xy": (
        _xy,
        "d5ed0f0396957c99a79e0d2dd6a4cbd8418a10e4c113b5a5cb98fa58934941e4",
    ),
    "containing": (
        _containing,
        "77c13c7c93a5a40d496252a7fb50e580d9078936fa143e623c7fe1a7077771ef",
    ),
    "at_most": (
        _at_most,
        "721b39a79493058f688e27de9933d113f4262f329c60a73b2391c8b9d7ff9f4c",
    ),
    "budget": (
        _budget,
        "f0fc3400b6008e4abfd33e73de9e54c0f25ae54e02ae13a7c789b5d69c2c7533",
    ),
}


# entry point: sha256 of the same records with the node counts left out,
# recorded from the kernel that packed its bound in branching order
PINNED_CODES = {
    "gamma": "77ad6297075566ed9198eca30953aeeaf6811da75e28984d37de938fb4760da6",
    "xy": "2e144d4708d009c92ddd1fa3108404615b3bf7c89756585b9ce52dc8224d9124",
    "containing": "42336796ed5ed40a93d757c55bbfe05feb2b8c20b2346990bbe70556fe947c32",
    "at_most": "98df08020e931ec829d27ca2d85646cf589d6a1cd4243d137c4bcb1911225a30",
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
    """The kernel before the partition was carried down the tree: every
    node and every greedy step regroups all of X and lists every violation."""

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
            if self.best_mask is None or size < self.best_size:
                self.best_size, self.best_mask = size, code
                if self.stop_first:
                    raise StopIteration
            return
        usable = self.allowed & ~code & ~banned
        first = resolvers[0] & usable
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

    def run(self, required, budget, cap=None, stop_first=False):
        self.budget, self.nodes, self.stop_first = budget, 0, stop_first
        self.best_mask = None
        greedy = self.greedy_code(required)
        if cap is None:
            self.best_size, self.best_mask = greedy.bit_count(), greedy
            if self.best_size == required.bit_count():
                return greedy, True
        else:
            self.best_size = cap + 1
            if greedy is not None and greedy.bit_count() <= cap:
                return greedy, True
        try:
            self.node(required, 0)
        except OverflowError:
            return self.best_mask, False
        except StopIteration:
            return self.best_mask, True
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


def _size(mask: int | None) -> float:
    """The size of a code mask, no code counting as the worst."""
    return float("inf") if mask is None else mask.bit_count()


@settings(max_examples=300, deadline=None)
@given(
    instances(),
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 12))),
    st.one_of(st.none(), st.integers(0, 13)),
    st.one_of(st.just(10**6), st.integers(1, 400)),
)
# The half-integral triple: cut at the root against the greedy code {3, 4}.
@example(_half_integral_triple(), frozenset(), None, 10**6)
# Here the naive packing prunes at the root, while smallest first packs to 1
# and the search takes 6 nodes: under a 1-node budget only the naive search
# completes, so a tighter bound does not mean fewer nodes on every input.
@example(
    ([37, 86, 231, 248, 218, 109, 254, 220], [3, 4, 6], 255),
    frozenset(),
    None,
    1,
)
# The root's first open violation, vertex 0's set {0, 3, 4, 5, 6}, strictly
# holds the root sets {4, 5} and {6}, so the carried list leaves it out and
# the cursor picks it; branching on the first carried set, {4, 5}, instead
# finds another code of the same size first.
@example(
    ([121, 22, 86, 73, 119, 49, 93], [0, 1, 2, 3, 4, 5, 6], 127),
    frozenset(),
    None,
    10**6,
)
def test_search_matches_naive_kernel(inst, start_set, cap, budget):
    masks, xs, allowed = inst
    start = _mask(start_set) & allowed
    new, old = _Search(masks, xs, allowed), _NaiveSearch(masks, xs, allowed)
    assert _complete(masks, xs, allowed, start, True) == old.greedy_code(start)
    if not _feasible(masks, xs, allowed):
        return
    # A cap asks for the first code within it.
    best, done = old.run(start, budget, cap, cap is not None)
    found = new.run(start, budget, cap)
    if done and found[1]:
        # Both bounds are valid, so each prunes only subtrees without a
        # strictly smaller code: the same incumbents and the same result.
        assert found == (best, done)
    elif done or found[1]:
        # A search that completes holds a code no larger than one cut off
        # by its budget.
        complete, cut = (best, found[0]) if done else (found[0], best)
        assert _size(complete) <= _size(cut)


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
    # The root list, in order, less every set that strictly holds a set of
    # the root list with at most two candidates.
    masks, xs, allowed = inst
    code = _mask(code_set) & allowed
    root = _Search(masks, xs, allowed)._violations(code)
    small = [t for t in root if t.bit_count() <= 2]
    expected = [r for r in root if not any(t & r == t != r for t in small)]
    assert _Search._minimal(root) == expected


def test_half_integral_step_cuts_the_triple_at_the_root():
    masks, xs, allowed = _half_integral_triple()
    search = _Search(masks, xs, allowed)
    triple = [_mask(s) for s in ((3, 4), (3, 9, 15), (4, 9, 15))]
    assert search._violations(0) == triple
    # Greedy takes 3, then 4. The root has room for 2 vertices, and packing
    # {3, 4} alone leaves the bound at 1; weight 1/2 on all three sets
    # raises it to 3/2, so the root is cut and {3, 4} is optimal. Without
    # that step the search branches on {3, 4} and takes 3 nodes.
    assert search.run(0, 10**6) == (_mask((3, 4)), True)
    assert search.nodes == 1


def test_stuck_greedy_raises_guarantee_error(monkeypatch):
    monkeypatch.setattr(idcodes.exact, "_complete", lambda *args: None)
    g = _twin_free(1, 8)[0]
    with pytest.raises(GuaranteeError):
        gamma_id_exact(g)
    with pytest.raises(GuaranteeError):
        min_identifying_containing(g, (0,))


def test_search_without_a_code_raises_guarantee_error(monkeypatch):
    monkeypatch.setattr(_Search, "run", lambda self, *args, **kw: (None, True))
    g = _twin_free(1, 9)[0]
    with pytest.raises(GuaranteeError):
        gamma_id_exact(g)
    with pytest.raises(GuaranteeError):
        min_xy_identifying_exact(g, range(g.n), range(g.n))


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
    assert (res.nodes_explored, res.optimal) == (401, False)
    assert is_identifying(g, res.code)
