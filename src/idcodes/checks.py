"""Validity checking for identifying codes and their (X, Y) generalisation.

A code C dominates x when N[x] meets C, and separates x from y when some
code vertex lies in exactly one of the two closed neighbourhoods. C is an
identifying code when every vertex is dominated and every pair separated;
the (X, Y) variant restricts the vertices to identify to X (the code, drawn
from Y, must dominate X and separate all pairs inside X).

This module is the one gate for vertex-set inputs: `_instance` range-checks
(g, X, Y) for the checkers here, `refine` and `exact`, and `_infeasibility`
is the one feasibility rule. Some subset of Y identifies X exactly when Y
does (the generalised Bondy theorem), so Y alone decides, and names a
witness when it fails. `_xy_instance` raises that witness for both `refine`
and `exact`: a pair no candidate separates as NotSeparableError, a target
no candidate dominates as its base class NotYIdentifiableError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    NotIdentifiableError, NotSeparableError, NotYIdentifiableError, VertexRangeError
)
from .graphs import Graph, _bits, _groups, _mask_of, _pairs, closed_neighborhood_masks

UNDOMINATED = "undominated"
UNSEPARATED = "unseparated"


@dataclass(frozen=True)
class Violation:
    """One reason a candidate code fails.

    kind is "undominated" (vertices holds the lone vertex) or "unseparated"
    (vertices holds the offending pair, sorted).
    """

    kind: str
    vertices: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == UNDOMINATED:
            return f"undominated {self.vertices[0]}"
        return f"unseparated {self.vertices[0]} {self.vertices[1]}"


def _as_mask(vertices: Iterable[int], n: int, what: str) -> int:
    mask = 0
    for v in vertices:
        if not (0 <= v < n):
            raise VertexRangeError(f"{what} vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def _instance(
    g: Graph,
    x: Iterable[int] | None,
    y: Iterable[int] | None,
    what: str = "candidate",
) -> tuple[list[int], list[int], int]:
    """(closed-neighbourhood masks, sorted X, mask of Y), X and Y defaulting
    to V; a vertex outside g is a VertexRangeError, called `what` in Y."""
    if x is None:
        xs = list(range(g.n))
    else:
        xs = sorted(set(x))
        _as_mask(xs, g.n, "target")
    allowed = (1 << g.n) - 1 if y is None else _as_mask(y, g.n, what)
    return closed_neighborhood_masks(g), xs, allowed


def _infeasibility(
    masks: list[int], xs: list[int], allowed: int, dominate: bool = True
) -> Violation | None:
    """Why no subset of the candidates identifies X (only separates X when
    not `dominate`), or None when the candidates themselves do: the
    lexicographically smallest pair no candidate separates, else the lowest
    target no candidate dominates."""
    groups = _groups(xs, (masks[v] & allowed for v in xs))
    pairs = [(p[0], p[1]) for p in groups.values() if len(p) > 1]
    if pairs:
        return Violation(UNSEPARATED, min(pairs))
    if dominate and 0 in groups:
        return Violation(UNDOMINATED, (groups[0][0],))
    return None


def _xy_instance(
    g: Graph, x: Iterable[int], y: Iterable[int], dominate: bool = True
) -> tuple[list[int], list[int], int]:
    """The instance (g, X, Y), raising with `_infeasibility`'s witness when
    no subset of Y identifies X (separates X when not `dominate`): a pair
    as NotSeparableError, a lone target as NotYIdentifiableError."""
    masks, xs, allowed = _instance(g, x, y)
    why = _infeasibility(masks, xs, allowed, dominate)
    if why is None:
        return masks, xs, allowed
    if why.kind == UNSEPARATED:
        raise NotSeparableError(why.vertices)
    raise NotYIdentifiableError(why.vertices[0], "no candidate dominates the witness")


def _identifiable(g: Graph) -> tuple[list[int], list[int], int]:
    """The instance X = Y = V of g, raising NotIdentifiableError with the
    smallest closed twin pair when g has one."""
    masks, xs, allowed = _instance(g, None, None)
    why = _infeasibility(masks, xs, allowed)
    if why is not None:
        raise NotIdentifiableError(why.vertices)
    return masks, xs, allowed


def _signatures(
    g: Graph, code: Iterable[int], x: Iterable[int] | None = None
) -> tuple[list[int], list[int]]:
    """The targets, sorted, and the signature of each under the code."""
    masks, xs, code_mask = _instance(g, x, code, "code")
    return xs, [masks[v] & code_mask for v in xs]


def _identifies(sigs: list[int]) -> bool:
    return 0 not in sigs and len(set(sigs)) == len(sigs)


def unseparated_pairs(
    g: Graph, code: Iterable[int], x: Iterable[int] | None = None
) -> tuple[tuple[int, int], ...]:
    """All target pairs with identical signatures, sorted lexicographically."""
    return _pairs(_groups(*_signatures(g, code, x)).values())


def violations(
    g: Graph, code: Iterable[int], x: Iterable[int] | None = None
) -> tuple[Violation, ...]:
    """Every failure of the code on the target set, undominated vertices
    first, each group in ascending order."""
    groups = _groups(*_signatures(g, code, x))
    out = [Violation(UNDOMINATED, (v,)) for v in groups.get(0, ())]
    out.extend(Violation(UNSEPARATED, pair) for pair in _pairs(groups.values()))
    return tuple(out)


def is_identifying(g: Graph, code: Iterable[int]) -> bool:
    """True when the code is a full identifying code of g."""
    return _identifies(_signatures(g, code)[1])


def is_xy_identifying(
    g: Graph, x: Iterable[int], y: Iterable[int], code: Iterable[int]
) -> bool:
    """True when `code` identifies X using only candidates from Y.

    The code must be a subset of Y; anything else is a caller bug, reported
    as ValueError rather than a plain False.
    """
    masks, xs, allowed = _instance(g, x, y)
    code_set = set(code)
    stray = sorted(code_set - set(_bits(allowed)))
    if stray:
        raise ValueError(f"code vertices {stray} are not in the candidate set Y")
    code_mask = _mask_of(code_set)
    return _identifies([masks[v] & code_mask for v in xs])


class SignatureTable:
    """Code signatures of every vertex, kept current as the graph gains
    edges or the code loses vertices.

    Holds sig[x], the bitmask of N[x] & C, and the vertices grouped by
    signature. The code identifies the graph exactly when every group is a
    single vertex and no signature is empty (`identifies`). Restoring an
    edge uv changes only sig[u] and sig[v], and dropping a code vertex c
    changes only the signatures in N[c], so each update costs O(1) or
    O(deg c) lookups instead of a regroup of all n vertices.

    adj is the adjacency of the graph. It is read when the table is built
    and by `try_drop`, which needs it to hold the edges restored so far.
    """

    def __init__(self, adj: Sequence[Iterable[int]], code: Iterable[int]):
        n = len(adj)
        self.adj = adj
        self.code_mask = _as_mask(code, n, "code")
        cm = self.code_mask
        self.sig = [cm & (_mask_of(a) | 1 << v) for v, a in enumerate(adj)]
        self.groups = _groups(range(n), self.sig)

    def identifies(self) -> bool:
        """True when the code is an identifying code of the graph."""
        return len(self.groups) == len(self.sig) and 0 not in self.groups

    def _move(self, x: int, sig: int) -> None:
        group = self.groups[self.sig[x]]
        group.remove(x)
        if not group:
            del self.groups[self.sig[x]]
        self.groups.setdefault(sig, []).append(x)
        self.sig[x] = sig

    def restore_edge(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """Account for the new edge uv (not an edge before); return the
        pairs it leaves unseparated that were separated before, sorted.

        u gains v in its signature when v is in the code, and v gains u
        likewise. A vertex whose signature grows leaves its old group, so
        every pair in its new group is new. From an identifying code these
        are all the unseparated pairs of the graph with uv, as
        `unseparated_pairs` would list them.
        """
        cm, sig, groups = self.code_mask, self.sig, self.groups
        gains_u, gains_v = cm >> v & 1, cm >> u & 1
        if gains_u:
            self._move(u, sig[u] | 1 << v)
        if gains_v:
            self._move(v, sig[v] | 1 << u)
        fresh = set()
        for x, gains in ((u, gains_u), (v, gains_v)):
            if gains:
                fresh.update(
                    (x, z) if x < z else (z, x) for z in groups[sig[x]] if z != x
                )
        return tuple(sorted(fresh))

    def try_drop(self, c: int) -> bool:
        """Remove c from the code if the code still identifies without it;
        report whether it did. Requires `identifies()` and c in the code.

        Every signature in N[c] holds c, and no other does, so dropping c
        keeps them apart from each other; it is enough that none becomes
        empty or equal to a signature outside N[c].
        """
        bit = 1 << c
        closed = [c, *self.adj[c]]
        new = [self.sig[x] & ~bit for x in closed]
        if any(s == 0 or s in self.groups for s in new):
            return False
        for x in closed:
            del self.groups[self.sig[x]]
        for x, s in zip(closed, new):
            self.sig[x] = s
            self.groups[s] = [x]
        self.code_mask &= ~bit
        return True
