"""Greedy (X, Y)-codes by partition refinement, the proof of the
generalised Bondy theorem: X starts as one block of the partition by code
signature, and each pick splits blocks by its closed neighbourhood. Any
pick that splits a block will do, so |X| - 1 picks separate X; then at
most one vertex is undominated, and one more pick identifies X.

`_complete` is the package's one greedy completion: these codes, the
exact search's first incumbent, and the construction's path-plus-chord
and damaged-vertex patches. It keeps U, the undominated X-vertices (none
when domination does not count), and the signature classes with two or
more members, and adds the candidate w that settles the most violations,
the lowest on a tie: |N[w] & U| + sum over classes C of k * (|C| - k),
with k = |N[w] & C|. Each pick splits a class or, failing that,
dominates all of U, so the bounds above hold from any start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .checks import UNSEPARATED, _infeasibility, _instance, _signatures
from .errors import GuaranteeError, NotSeparableError, NotYIdentifiableError
from .graphs import Graph, _bits, _groups


@dataclass(frozen=True)
class Partition:
    """Blocks of X grouped by code signature, each sorted, ordered lexicographically."""

    parts: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.parts)


def partition_by_code(
    g: Graph, x: Iterable[int], code: Iterable[int]
) -> Partition:
    """Partition of X into classes of equal code signature."""
    parts = _groups(*_signatures(g, code, x)).values()
    return Partition(tuple(sorted(tuple(p) for p in parts)))


def _classes(masks: list[int], xs: list[int], code: int) -> dict[int, int]:
    """The signature classes of X under code, as masks keyed by signature."""
    classes: dict[int, int] = {}
    for x in xs:
        sig = masks[x] & code
        classes[sig] = classes.get(sig, 0) | 1 << x
    return classes


def _complete(
    masks: list[int], xs: list[int], allowed: int, start: int, dominate: bool
) -> int | None:
    """Complete the code mask `start` greedily with candidates from
    `allowed` until it separates X, and dominates X too when `dominate`;
    None when stuck.

    A violation nobody can settle stays so as vertices are added, so the
    run is stuck exactly when no candidate settles any violation that is
    left.
    """
    classes = _classes(masks, xs, start)
    undom = classes.get(0, 0) if dominate else 0
    groups = [c for c in classes.values() if c & (c - 1)]
    code = start
    while undom or groups:
        sizes = [c.bit_count() for c in groups]
        best, pick = 0, -1
        for w in _bits(allowed & ~code):
            m = masks[w]
            score = (m & undom).bit_count()
            for c, size in zip(groups, sizes):
                k = (m & c).bit_count()
                score += k * (size - k)
            if score > best:
                best, pick = score, w
        if not best:
            return None
        code |= 1 << pick
        undom &= ~masks[pick]
        groups = _split(groups, masks[pick])
    return code


def _split(groups: list[int], m: int) -> list[int]:
    """Split each class by the mask m, keeping parts with two or more members."""
    out = []
    for c in groups:
        inside = c & m
        if inside & (inside - 1):
            out.append(inside)
        outside = c ^ inside
        if outside & (outside - 1):
            out.append(outside)
    return out


def _refined(
    g: Graph, x: Iterable[int], y: Iterable[int], dominate: bool
) -> tuple[int, ...]:
    """The greedy code from the empty start, after the gate's feasibility
    check that raises with its witness, checked against its size bound."""
    masks, xs, y_mask = _instance(g, x, y)
    why = _infeasibility(masks, xs, y_mask, dominate)
    if why is not None:
        if why.kind == UNSEPARATED:
            raise NotSeparableError(why.vertices)
        raise NotYIdentifiableError(
            why.vertices[0], "no candidate dominates the witness"
        )
    code = _complete(masks, xs, y_mask, 0, dominate)
    limit = len(xs) if dominate else max(0, len(xs) - 1)
    if code is None or code.bit_count() > limit:
        raise GuaranteeError(f"refinement broke its size bound for |X| = {len(xs)}")
    return tuple(_bits(code))


def greedy_separating(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset separating all pairs of X, of size at most |X| - 1.

    Raises NotSeparableError with the lexicographically smallest witness
    pair when X is not Y-separable, and VertexRangeError for a vertex of X
    or Y outside the graph.
    """
    return _refined(g, x, y, False)


def greedy_xy_identifying(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset identifying X (separating and dominating), size <= |X|.

    Raises NotSeparableError as greedy_separating does; else, when Y
    separates X, at most one X-vertex has no candidate in its closed
    neighbourhood, and NotYIdentifiableError names it. Raises
    VertexRangeError for a vertex of X or Y outside the graph.
    """
    return _refined(g, x, y, True)
