"""Greedy (X, Y)-codes by partition refinement.

The target set X starts as one block; every chosen candidate splits at
least one block (vertices inside vs outside its closed neighbourhood).
|X| - 1 splits suffice to reach singletons, which bounds the separating
code; at most one vertex of a fully separated X can still be undominated,
so one more candidate bounds the identifying variant by |X|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .checks import _as_mask, _target_list
from .errors import GuaranteeError, NotSeparableError, NotYIdentifiableError
from .graphs import Graph, _groups, _mask_of, closed_neighborhood_masks


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
    xs = _target_list(g, x)
    masks = closed_neighborhood_masks(g)
    code_mask = _as_mask(code, g.n, "code")
    parts = _groups(xs, (masks[v] & code_mask for v in xs)).values()
    return Partition(tuple(sorted(tuple(p) for p in parts)))


def _separating_steps(xs: list[int], y_mask: int, masks: list[int]) -> list[int]:
    """Chronological separator choices; raises on an inseparable pair.

    Selection rule: take the lexicographically smallest non-singleton block,
    then the smallest candidate separating its two smallest members.
    """
    code_mask = 0
    chosen: list[int] = []
    while True:
        groups = _groups(xs, (masks[v] & code_mask for v in xs)).values()
        blocks = [p for p in groups if len(p) > 1]
        if not blocks:
            return chosen
        u1, u2 = min(blocks)[:2]
        cands = (masks[u1] ^ masks[u2]) & y_mask
        if cands == 0:
            raise NotSeparableError((u1, u2))
        w = (cands & -cands).bit_length() - 1
        chosen.append(w)
        code_mask |= 1 << w


def greedy_separating(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset separating all pairs of X, of size at most |X| - 1.

    Raises NotSeparableError with a witness pair when X is not Y-separable,
    and VertexRangeError for a vertex of X or Y outside the graph.
    """
    xs = _target_list(g, x)
    y_mask = _as_mask(y, g.n, "candidate")
    chosen = _separating_steps(xs, y_mask, closed_neighborhood_masks(g))
    if len(chosen) > max(0, len(xs) - 1):
        raise GuaranteeError(
            f"refinement took {len(chosen)} picks for |X| = {len(xs)}"
        )
    return tuple(sorted(chosen))


def greedy_xy_identifying(
    g: Graph, x: Iterable[int], y: Iterable[int]
) -> tuple[int, ...]:
    """A Y-subset identifying X (separating and dominating), size <= |X|.

    After full separation the signatures are pairwise distinct, so at most
    one X-vertex has the empty signature; one more candidate covers it.
    Raises NotSeparableError / NotYIdentifiableError with witnesses, and
    VertexRangeError for a vertex of X or Y outside the graph.
    """
    xs = _target_list(g, x)
    y_mask = _as_mask(y, g.n, "candidate")
    masks = closed_neighborhood_masks(g)
    chosen = _separating_steps(xs, y_mask, masks)
    code_mask = _mask_of(chosen)
    bare = [v for v in xs if masks[v] & code_mask == 0]
    if len(bare) > 1:
        raise GuaranteeError(f"undominated vertices {bare} after separation")
    if bare:
        cands = masks[bare[0]] & y_mask
        if cands == 0:
            raise NotYIdentifiableError(
                bare[0], "no candidate dominates the witness"
            )
        chosen.append((cands & -cands).bit_length() - 1)
    if len(chosen) > len(xs):
        raise GuaranteeError(
            f"identifying refinement took {len(chosen)} picks for |X| = {len(xs)}"
        )
    return tuple(sorted(chosen))
