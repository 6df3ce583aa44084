"""The exact search kernel.

The outputs of the exact entry points are pinned by digest. The sha256
values below were recorded from the kernel that rebuilt its whole violation
list at every node, before the signature partition was carried down the
search tree. Each record holds the node count, so the digests pin the search
tree itself and not only the optima. A hypothesis property compares _Search
with a naive copy of that old kernel.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import (
    Graph,
    GuaranteeError,
    NotYIdentifiableError,
    SearchBudgetError,
    find_closed_twins,
    gamma_id_exact,
    identifying_code_at_most,
    min_identifying_containing,
    min_xy_identifying_exact,
)
from idcodes.exact import _Search
from idcodes.graphs import closed_neighborhood_masks


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


def _line(res) -> str:
    return f"{res.size} {res.code} {res.nodes_explored} {res.optimal}\n"


def _gamma() -> list[str]:
    return [_line(gamma_id_exact(g)) for g in _twin_free(80, 1, hi=19)]


def _xy() -> list[str]:
    rng = random.Random(2)
    out = []
    for g in _twin_free(60, 3, hi=17):
        xs = rng.sample(range(g.n), rng.randint(2, g.n - 1))
        ys = rng.sample(range(g.n), rng.randint(g.n // 2, g.n - 1))
        try:
            out.append(_line(min_xy_identifying_exact(g, xs, ys)))
        except NotYIdentifiableError as err:
            out.append(f"infeasible {err.witness}\n")
    return out


def _containing() -> list[str]:
    rng = random.Random(4)
    out = []
    for g in _twin_free(40, 5, hi=18):
        required = rng.sample(range(g.n), rng.randint(1, 3))
        out.append(_line(min_identifying_containing(g, required)))
    return out


def _at_most() -> list[str]:
    out = []
    for g in _twin_free(30, 6):
        gamma = gamma_id_exact(g).size
        full = (1 << g.n) - 1
        for cap in (gamma - 2, gamma - 1, gamma):
            out.append(f"{identifying_code_at_most(g, cap)}\n")
            search = _Search(closed_neighborhood_masks(g), list(range(g.n)), full)
            best, done = search.run(0, 10**6, cap=cap, stop_first=True)
            out.append(f"{best} {done} {search.nodes}\n")
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
        "86ff5d3261a63be95b9bdc8486ef276a035e44223dab182e935564cdd39a947b",
    ),
    "xy": (
        _xy,
        "a3ff58788b9f161ee86fbe0c331a16418df8e9219832ec040eb5d0db86fa72b9",
    ),
    "containing": (
        _containing,
        "2f7ff9124d1ce4b732bb30469c952b9a2ac1fbdb32b6e72248d244feb0f195ae",
    ),
    "at_most": (
        _at_most,
        "6bd8e2f22a3886b44dcff87aec5bb1c06341862d49eae141f91584b23ec5f9f3",
    ),
    "budget": (
        _budget,
        "53b974a6e9d9536601cd0a49ac7296818347ce18a31f8d548ad8262d0dbb04b8",
    ),
}


@pytest.mark.parametrize("entry", sorted(PINNED))
def test_exact_outputs_match_pinned_digests(entry):
    records, expected = PINNED[entry]
    digest = hashlib.sha256("".join(records()).encode("ascii")).hexdigest()
    assert digest == expected


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
@given(instances(), st.data())
def test_search_matches_naive_kernel(inst, data):
    masks, xs, allowed = inst
    n = len(masks)
    start = _mask(data.draw(st.one_of(st.just(()), st.sets(st.integers(0, n - 1)))))
    start &= allowed
    new, old = _Search(masks, xs, allowed), _NaiveSearch(masks, xs, allowed)
    assert new.greedy_code(start) == old.greedy_code(start)
    if not _feasible(masks, xs, allowed):
        return
    cap = data.draw(st.one_of(st.none(), st.integers(0, n)))
    stop_first = cap is not None and data.draw(st.booleans())
    budget = data.draw(st.one_of(st.just(10**6), st.integers(1, 400)))
    expected = old.run(start, budget, cap, stop_first)
    assert new.run(start, budget, cap, stop_first) == expected
    assert new.nodes == old.nodes


def test_stuck_greedy_raises_guarantee_error(monkeypatch):
    monkeypatch.setattr(_Search, "greedy_code", lambda self, start: None)
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
