"""Greedy (X, Y)-codes by partition refinement, the proof of the
generalised Bondy theorem: X starts as one block of the partition by code
signature, and each pick splits blocks by its closed neighbourhood. Any
pick that splits a block will do, so |X| - 1 picks separate X; then at
most one vertex is undominated, and one more pick identifies X.

`_complete` is the package's one greedy completion: these codes, the
exact search's first incumbent, and the near-triangle-free construction's
damaged-vertex patch. It keeps U, the undominated X-vertices (none
when domination does not count), and the signature classes with two or
more members, and adds the candidate w that settles the most violations,
the lowest on a tie: |N[w] & U| + sum over classes C of k * (|C| - k),
with k = |N[w] & C|. Each pick splits a class or, failing that,
dominates all of U, so the bounds above hold from any start. A score
never rises as the code grows, so the candidates are rescored lazily, from
a heap.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterable

from .checks import _xy_instance
from .errors import GuaranteeError
from .graphs import Graph, _bits


def _classes(masks: list[int], xs: list[int], code: int) -> dict[int, int]:
    """The signature classes of X under code, as masks keyed by signature."""
    classes: dict[int, int] = {}
    for x in xs:
        sig = masks[x] & code
        classes[sig] = classes.get(sig, 0) | 1 << x
    return classes


def _score(m: int, undom: int, groups: list[tuple[int, int]]) -> int:
    """The violations the candidate with closed neighbourhood m settles;
    groups holds each class with its size."""
    score = (m & undom).bit_count()
    for c, size in groups:
        k = (m & c).bit_count()
        score += k * (size - k)
    return score


def _complete(
    masks: list[int], xs: list[int], allowed: int, start: int, dominate: bool
) -> int | None:
    """Complete the code mask `start` greedily with candidates from
    `allowed` until it separates X, and dominates X too when `dominate`;
    None when stuck.

    A violation nobody can settle stays so as vertices are added, so the
    run is stuck exactly when no candidate settles any violation that is
    left. A pick only shrinks U and splits classes, and k * (|C| - k) is
    at least the sum of the same terms over the parts of C, so a score
    never rises. The candidates therefore wait in a heap of (-score, w)
    whose scores may be stale but are never below the current ones, and a
    pick rescores only the top until its score is current: that top has
    the highest score, and the lowest w among the equal ones. The run is
    stuck when the heap is empty or its current top scores 0.
    """
    classes = _classes(masks, xs, start)
    undom = classes.get(0, 0) if dominate else 0
    groups = [(c, c.bit_count()) for c in classes.values() if c & (c - 1)]
    heap = [(-_score(masks[w], undom, groups), w) for w in _bits(allowed & ~start)]
    heapify(heap)
    code = start
    while undom or groups:
        while heap:
            key, pick = heap[0]
            score = _score(masks[pick], undom, groups)
            if score == -key:
                break
            heapreplace(heap, (-score, pick))
        if not heap or not score:
            return None
        heappop(heap)
        m = masks[pick]
        code |= 1 << pick
        undom &= ~m
        split = []
        for c, _ in groups:
            for part in (c & m, c & ~m):
                if part & (part - 1):
                    split.append((part, part.bit_count()))
        groups = split
    return code


def _refined(
    g: Graph, x: Iterable[int], y: Iterable[int], dominate: bool
) -> tuple[int, ...]:
    """The greedy code from the empty start, after the gate's feasibility
    check that raises with its witness, checked against its size bound."""
    masks, xs, y_mask = _xy_instance(g, x, y, dominate)
    code = _complete(masks, xs, y_mask, 0, dominate)
    limit = len(xs) if dominate else max(0, len(xs) - 1)
    if code is None or code.bit_count() > limit:
        raise GuaranteeError(f"refinement broke its size bound for |X| = {len(xs)}")
    return tuple(_bits(code))


def greedy_separating(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset separating all pairs of X, of size at most |X| - 1: the
    generalised Bondy theorem, by construction.

    Raises NotYIdentifiableError with the lexicographically smallest
    witness pair when X is not Y-separable, and VertexRangeError for a
    vertex of X or Y outside the graph.
    """
    return _refined(g, x, y, False)


def greedy_xy_identifying(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset identifying X (separating and dominating), size <= |X|.

    Raises NotYIdentifiableError naming a pair as greedy_separating does;
    else, when Y separates X, at most one X-vertex has no candidate in its
    closed neighbourhood, and the error names it. Raises VertexRangeError
    for a vertex of X or Y outside the graph.
    """
    return _refined(g, x, y, True)
