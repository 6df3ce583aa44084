"""Validity checking for identifying codes and their (X, Y) generalisation.

A code C dominates x when N[x] meets C, and separates x from y when some
code vertex lies in exactly one of the two closed neighbourhoods. C is an
identifying code when every vertex is dominated and every pair separated;
the (X, Y) variant restricts the vertices to identify to X (the code, drawn
from Y, must dominate X and separate all pairs inside X). `violations`
lists every failure on a target set X, so a code drawn from Y is an
(X, Y)-code exactly when it has none there.

This module is the one gate for vertex-set inputs: `_instance` range-checks
(g, X, Y) for the checkers here, `refine` and `exact`, and `_infeasibility`
is the one feasibility rule. Some subset of Y identifies X exactly when Y
does (the generalised Bondy theorem), so Y alone decides, and names a
witness when it fails. `_xy_instance` raises that witness for `refine` as
NotYIdentifiableError: the pair no candidate separates, else the target no
candidate dominates. `_identifiable` raises the twin pair as
NotIdentifiableError for `exact` and the construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotIdentifiableError, NotYIdentifiableError, VertexRangeError
from .graphs import Graph, _groups, _mask_of, _pairs, closed_neighborhood_masks

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
    or a lone target, as NotYIdentifiableError."""
    masks, xs, allowed = _instance(g, x, y)
    why = _infeasibility(masks, xs, allowed, dominate)
    if why is None:
        return masks, xs, allowed
    vs = why.vertices
    raise NotYIdentifiableError(vs if why.kind == UNSEPARATED else vs[0])


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
    sigs = _signatures(g, code)[1]
    return 0 not in sigs and len(set(sigs)) == len(sigs)


class SignatureTable:
    """Code signatures of every vertex, kept current as the graph gains
    edges or the code gains or loses vertices.

    Holds sig[x], the bitmask of N[x] & C, and count[s], the number of
    vertices whose signature is s, for every signature held. The code
    identifies the graph exactly when every count is 1 and no signature is
    empty (`identifies`). Restoring an edge uv changes only sig[u] and
    sig[v], and adding or dropping a code vertex c changes only the
    signatures in N[c], so each update costs O(1) or O(deg c) lookups
    instead of a recount of all n vertices. The members of a signature are
    not kept: every vertex with a non-empty signature s has the lowest code
    vertex c of s in its closed neighbourhood, so the members of s are the
    vertices of N[c] that hold it, listed in O(deg c) when a restore breaks
    a pair.

    adj is the adjacency of the graph. It is read when the table is built,
    and all three updates read it: `restore_edge`, `add` and `try_drop`
    need it to hold every edge restored so far, the edge being restored
    included.
    """

    def __init__(self, adj: Sequence[Iterable[int]], code: Iterable[int]):
        n = len(adj)
        self.adj = adj
        self.code_mask = _as_mask(code, n, "code")
        cm = self.code_mask
        self.sig = [cm & (_mask_of(a) | 1 << v) for v, a in enumerate(adj)]
        # A plain dict: Counter's __delitem__ runs in Python on every move.
        self.count = dict(Counter(self.sig))

    def identifies(self) -> bool:
        """True when the code is an identifying code of the graph."""
        count = self.count
        return len(count) == len(self.sig) and 0 not in count

    def _move(self, x: int, sig: int) -> None:
        count, old = self.count, self.sig[x]
        if count[old] > 1:
            count[old] -= 1
        else:
            del count[old]
        count[sig] = count.get(sig, 0) + 1
        self.sig[x] = sig

    def restore_edge(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """Account for the new edge uv (not an edge before, but in adj
        now); return the pairs it leaves unseparated that were separated
        before, sorted.

        u gains v in its signature when v is in the code, and v gains u
        likewise. A vertex whose signature grows leaves its old signature,
        so it is newly unseparated from every other holder of its new one;
        with no such holder nothing is listed. From an identifying code
        these are all the unseparated pairs of the graph with uv, as
        `violations` would list them.
        """
        cm, sig, count = self.code_mask, self.sig, self.count
        gains_u, gains_v = cm >> v & 1, cm >> u & 1
        if gains_u:
            self._move(u, sig[u] | 1 << v)
        if gains_v:
            self._move(v, sig[v] | 1 << u)
        if not (gains_u and count[sig[u]] > 1 or gains_v and count[sig[v]] > 1):
            return ()
        adj, fresh = self.adj, set()
        for x, gains in ((u, gains_u), (v, gains_v)):
            s = sig[x]
            if gains and count[s] > 1:
                c = (s & -s).bit_length() - 1
                fresh.update(
                    (x, z) if x < z else (z, x)
                    for z in (c, *adj[c]) if z != x and sig[z] == s
                )
        return tuple(sorted(fresh))

    def add(self, c: int) -> None:
        """Put c, not in the code, into it: every x in N[c] moves to the
        signature sig[x] | 1 << c, the reverse of `try_drop`."""
        bit = 1 << c
        for x in (c, *self.adj[c]):
            self._move(x, self.sig[x] | bit)
        self.code_mask |= bit

    def try_drop(self, c: int) -> bool:
        """Remove c from the code if the code still identifies without it;
        report whether it did. Requires `identifies()` and c in the code.

        Every signature in N[c] holds c, and no other does, so dropping c
        keeps them apart from each other; it is enough that none becomes
        empty or equal to a signature outside N[c].
        """
        keep = ~(1 << c)
        sig, count = self.sig, self.count
        closed = [c, *self.adj[c]]
        new = []
        for x in closed:
            s = sig[x] & keep
            if not s or s in count:
                return False
            new.append(s)
        for x in closed:
            del count[sig[x]]
        for x, s in zip(closed, new):
            sig[x] = s
            count[s] = 1
        self.code_mask &= keep
        return True
