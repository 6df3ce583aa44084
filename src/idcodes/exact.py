"""Exact minimum identifying codes by branch and bound, plus the closed
forms for paths and cycles and the optimal chorded odd cycle construction.

The solver works on closed-neighbourhood bitmasks. It branches on the first
violation of the current partial code (lowest undominated vertex, else
lexicographically first unseparated pair), trying each candidate resolver in
ascending order with sibling exclusion, and prunes with a greedy packing of
pairwise disjoint resolver sets (each one needs its own new code vertex).

A run lists the resolver sets of its root's violations once, in branching
order: the root list. It leaves out every violation that an earlier one
dominates, one whose resolver set holds the set of an earlier violation: a
pair of undominated vertices with no common candidate, and a repeated set.
Any vertex that resolves the earlier violation resolves the later one, so
the later one is open only while the earlier one is, and the first open
violation is never one left out. A violation is open exactly while the
code misses its set, and adding a vertex never opens one, so a node's open
violations are the root sets its code misses. The node branches on the
first of them, which a cursor finds: it scans forward from the parent's
cursor past the sets the code meets. A child's code meets the set its
parent branched on, so its scan starts one set further on, and the scans
along a path take one pass over the root list.

For its bound a node carries a shorter list: the open root sets less every
set that strictly holds a root set of at most two candidates, about half
the root list on the benchmark's n = 19 graphs. The child that adds w
keeps the carried sets that do not hold w. A dropped set S strictly holds
a carried set T of at most two candidates (the set it holds, or a single
candidate that one holds), so S is open only while T is, and the node is a
leaf exactly when it carries no set. When no resolver of S is usable, none
of T is, so a violation with no usable resolver cuts the same nodes. The
packing takes the sets smallest first, by a stable sort so that ties keep
branching order, and stops as soon as the bound prunes. After the mask of
excluded siblings T is either smaller than S, and then packs or meets the
packing before S comes, or equal to S, and packs what S would; in the
half-integral step below T's part lies in S's, so T cuts where S would. So
S never tightens the bound, and dropping it saves copying, masking and
sorting it at every node. Where T equals S after the mask and comes after
it, sets of the same size that lie between them in branching order may
pack first, so the packing, and the node count, can differ from one over
the whole list.

Any packing of disjoint sets is a valid bound: it prunes only subtrees that
hold no code smaller than the incumbent. The search tries the nodes in the
same depth-first order whichever valid bound prunes it (the same branching
violation, candidates ascending, sibling exclusion), so it returns the
greedy code when that is optimal and otherwise the first minimum leaf in
that order: a completed search's code does not depend on the bound, and
only its node count does. Taking small sets first leaves room for more
disjoint ones than branching order does.

When the packing ends one vertex short of a cut, the node tries one
half-integral step of the LP relaxation of the same hitting-set problem:
a packed set P and two unpacked sets A and B whose packed vertices lie in
P, in disjoint parts. Weight 1/2 on each of P, A and B and 1 on every other
packed set is a fractional packing worth half a vertex more, and a
completion is a whole number of vertices, so the node is cut. Three sets
that pairwise meet with no vertex in all three, such as {3, 4}, {3, 9, 15}
and {4, 9, 15}, are the typical case.

A child is skipped when it is dominated: when some excluded vertex b,
an earlier sibling here or at an ancestor, lies in every open carried set
that holds the child's vertex w. A code C ⊇ code that avoids the excluded
vertices and holds w meets every open carried set, so C - w + b does too:
the sets that hold w hold b, and C - w meets the rest. Meeting every open
carried set is meeting every root set, since a set the carried list drops
holds a carried set, and the code already meets the closed ones; and a
code that meets every root set resolves every violation of the root, since
a violation the root list leaves out holds the set of one it keeps. So
C - w + b is a code of the same size. It holds the code of the node where
b was tried, since every vertex added below that node avoids b, and it
avoids every vertex excluded there, so b's subtree, searched earlier, holds
it and, by induction over the search order with the cut in place, leaves
an incumbent no larger. A leaf below w is then never a
strict improvement, and never the first leaf within a cap: a completed or
capped search returns the same code with the cut as without it, and only
the node count falls. Containment is tested on the unmasked carried sets,
where b is still visible. The skipped vertex is excluded for the later
siblings, as if its subtree had been searched.

The search tree is walked depth first on an explicit stack (see _walk),
so no input, however deep its codes, recurses in Python.

Greedy completion, which sets the first incumbent, is refine's max-settle
refinement of the partition of X by code signature (refine._complete).
Instances come from checks' gate (checks._xy_instance), so an infeasible
one raises the exception and witness refine raises, and a chord is
admitted by the rule for any added edge (graphs._admissible_addition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .checks import _as_mask, _identifiable, _xy_instance, is_identifying
from .errors import GuaranteeError, NotIdentifiableError, SearchBudgetError
from .graphs import Graph, _admissible_addition, _bits, linear_order
from .refine import _classes, _complete

DEFAULT_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search.

    optimal is False only when the node budget ran out; the code is then the
    best one found so far (never invalid).
    """

    size: int
    code: tuple[int, ...]
    nodes_explored: int
    optimal: bool


class _OutOfBudget(Exception):
    pass


class _FoundEnough(Exception):
    pass


class _Search:
    """One branch-and-bound run over a fixed (X, Y) instance.

    A run keeps its root list (see _violations) in root. A search node
    holds a cursor into it and the open sets of the carried list (see
    _minimal): it branches on the first root set past the cursor that its
    code misses, and bounds with the carried sets, packing disjoint ones
    and then trying one half-integral step (see _node). Greedy completion
    is refine's, with undominated targets counted.
    """

    def __init__(self, masks: list[int], xs: list[int], allowed: int):
        self.masks = masks
        self.xs = xs
        self.allowed = allowed
        self.nodes = 0
        self.budget = DEFAULT_NODE_BUDGET
        self.best_size = 0
        self.best_mask: int | None = None
        self.cap: int | None = None
        self.root: list[int] = []

    def _violations(self, code: int) -> list[int]:
        """The resolver set, within the candidates, of every violation of
        code that no earlier one dominates, in branching order: undominated
        vertices ascending, then unseparated pairs in lexicographic order.

        Left out are a pair of undominated vertices a, b with no common
        candidate in N[a] & N[b], whose set then holds the earlier set of a,
        and any set equal to an earlier one. The undominated pairs are
        listed from the candidates of a, so the left-out ones cost
        nothing."""
        masks, allowed = self.masks, self.allowed
        classes = _classes(masks, self.xs, code)
        rs = [masks[x] & allowed for x in _bits(classes.get(0, 0))]
        # The pairs (a, b) in lexicographic order: for each a ascending,
        # the later members b of its class that lie in N[c] for some
        # candidate c in N[a], ascending. The code lies in Y, so two
        # dominated vertices with one signature share a code vertex, and
        # only undominated pairs are left out.
        for a in self.xs:
            ma = masks[a]
            mates = classes[ma & code] & -(2 << a)
            if mates:
                near = 0
                for c in _bits(ma & allowed):
                    near |= masks[c]
                mates &= near
            while mates:
                low = mates & -mates
                rs.append((ma ^ masks[low.bit_length() - 1]) & allowed)
                mates ^= low
        return list(dict.fromkeys(rs))

    @staticmethod
    def _minimal(rs: list[int]) -> list[int]:
        """The carried list of a root list rs: rs, in order, less every set
        that strictly holds a set of rs with at most two candidates. Such a
        set is open only while the smaller one is and never tightens the
        bound (see the module docstring)."""
        out = rs
        for t in rs:
            if t.bit_count() <= 2:
                out = [r for r in out if r & t != t or r == t]
        return out

    def _node(
        self, code: int, banned: int, rs: list[int], at: int
    ) -> tuple[int, int] | None:
        """Visit one node: count it, take it as the incumbent if it is a
        leaf, or bound it. Returns None for a leaf or a cut node, else the
        cursor its children start from and the candidates they add."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _OutOfBudget
        if not rs:
            size = code.bit_count()
            if self.best_mask is None or size < self.best_size:
                self.best_size = size
                self.best_mask = code
                if self.cap is not None:
                    raise _FoundEnough
            return
        # A violation is open, so every completion adds one vertex at least:
        # with room for one at most, no smaller code lies below.
        room = self.best_size - code.bit_count()
        if room <= 1:
            return
        # An open violation's set holds no code vertex; only the excluded
        # siblings are masked out.
        keep = ~banned
        usable = [r & keep for r in rs]
        if 0 in usable:
            return
        # Lower bound: greedily pack pairwise disjoint resolver sets (each
        # needs its own new code vertex), smallest set first, ties in
        # branching order; stop once the bound prunes.
        usable.sort(key=int.bit_count)
        lb = 0
        used = 0
        packed = []
        for r in usable:
            if not r & used:
                lb += 1
                if lb >= room:
                    return
                used |= r
                packed.append(r)
        # One short: look for a packed set P and two unpacked sets A and B
        # whose packed vertices all lie in P, in disjoint parts. Weight 1/2
        # on P, A and B, and 1 on every other packed set, is a fractional
        # packing of value lb + 1/2, so by LP duality every completion needs
        # lb + 1 = room vertices. Every set meets the packing now; each one
        # whose part lies in one packed set is filed under it (a packed set
        # under itself, its part meeting every other), and the node is cut
        # once two parts in one file are disjoint.
        if lb == room - 1:
            parts: dict[int, list[int]] = {}
            for r in usable:
                t = r & used
                for p in packed:
                    if t & p:
                        break
                if t & ~p:
                    continue
                seen = parts.setdefault(p, [])
                for s in seen:
                    if not s & t:
                        return
                seen.append(t)
        # Branch on the first open violation of the root list, the first
        # set past the cursor that the code does not meet. Each child's
        # code meets it, so the child's scan starts one further on.
        root = self.root
        while root[at] & code:
            at += 1
        return at + 1, root[at] & keep

    def _walk(self, code: int) -> None:
        """Search depth first from code on an explicit stack, which holds
        [code, banned, rs, at, candidates left] for each node on the path
        whose children are not all tried. A child keeps the sets its new
        vertex does not resolve, in the same order. It is skipped when an
        excluded vertex lies in every open carried set that holds its
        vertex (see the module docstring)."""
        rs = self._minimal(self.root)
        banned = at = 0
        frames: list[list] = []
        while True:
            branch = self._node(code, banned, rs, at)
            if branch is not None:
                frames.append([code, banned, rs, *branch])
            # Take the next child of the deepest node that has one left,
            # excluding each vertex tried or skipped for its later siblings.
            while frames:
                frame = frames[-1]
                code, banned, rs, at, first = frame
                while first:
                    low = first & -first
                    first ^= low
                    held = banned
                    for r in rs:
                        if r & low:
                            held &= r
                            if not held:
                                break
                    if not held:
                        break
                    banned |= low
                else:
                    frames.pop()
                    continue
                # Visit the child next; the frame keeps its siblings left.
                if first:
                    frame[1] = banned | low
                    frame[4] = first
                else:
                    frames.pop()
                code |= low
                rs = [r for r in rs if not r & low]
                break
            else:
                return

    def run(
        self,
        required: int,
        budget: int,
        cap: int | None = None,
    ) -> tuple[int | None, bool]:
        """Search for a minimum code that holds required, which must lie
        within the candidates, or with a cap for the first code of at most
        cap vertices. Returns (best_mask_or_None,
        completed_without_budget_exhaustion)."""
        self.budget = budget
        self.nodes = 0
        self.cap = cap
        self.best_mask = None
        greedy = _complete(self.masks, self.xs, self.allowed, required, True)
        if cap is None:
            if greedy is None:
                raise GuaranteeError(
                    "greedy completion stuck on a feasible instance"
                )
            self.best_size = greedy.bit_count()
            self.best_mask = greedy
            if self.best_size == required.bit_count():
                return self.best_mask, True
        else:
            self.best_size = cap + 1
            if greedy is not None and greedy.bit_count() <= cap:
                return greedy, True
        self.root = self._violations(required)
        try:
            self._walk(required)
        except _OutOfBudget:
            return self.best_mask, False
        except _FoundEnough:
            return self.best_mask, True
        return self.best_mask, True


def _minimum(
    masks: list[int], xs: list[int], allowed: int, required: int, node_budget: int
) -> ExactResult:
    """A minimum code of a feasible instance that contains `required`."""
    search = _Search(masks, xs, allowed)
    best, done = search.run(required, node_budget)
    if best is None:
        raise GuaranteeError(
            "exact search ended without a code on a feasible instance"
        )
    return ExactResult(best.bit_count(), tuple(_bits(best)), search.nodes, done)


def gamma_id_exact(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Minimum identifying code of g.

    Raises NotIdentifiableError (with a witness twin pair) when none exists.
    A blown node budget yields ExactResult(optimal=False) holding the best
    verified code found.
    """
    masks, xs, allowed = _identifiable(g)
    return _minimum(masks, xs, allowed, 0, node_budget)


def min_xy_identifying_exact(
    g: Graph,
    x: Iterable[int],
    y: Iterable[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Minimum code drawn from Y that identifies X.

    Raises as greedy_xy_identifying does when Y cannot identify X at all:
    NotSeparableError, a NotYIdentifiableError, naming the
    lexicographically smallest pair no candidate separates, else
    NotYIdentifiableError naming the lowest target no candidate dominates.
    Raises VertexRangeError for a vertex of X or Y outside the
    graph.
    """
    masks, xs, allowed = _xy_instance(g, x, y)
    return _minimum(masks, xs, allowed, 0, node_budget)


def min_identifying_containing(
    g: Graph,
    required: Iterable[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Minimum identifying code forced to contain the given vertices."""
    masks, xs, allowed = _identifiable(g)
    required_mask = _as_mask(required, g.n, "required")
    return _minimum(masks, xs, allowed, required_mask, node_budget)


def identifying_code_at_most(
    g: Graph, cap: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, ...] | None:
    """Some identifying code of size <= cap, or None when none exists.

    Raises SearchBudgetError when the budget runs out undecided, and
    NotIdentifiableError when the graph has closed twins.
    """
    masks, xs, allowed = _identifiable(g)
    search = _Search(masks, xs, allowed)
    best, done = search.run(0, node_budget, cap=cap)
    if best is None and not done:
        raise SearchBudgetError(
            f"undecided after {search.nodes} nodes (cap {cap})"
        )
    return None if best is None else tuple(_bits(best))


def gamma_id_closed_form(g: Graph) -> int:
    """Minimum identifying code size for a path or cycle, by formula.

    Paths: 1 for n=1, floor(n/2)+1 for n>=3 (n=2 has closed twins). Cycles:
    3 for n in {4, 5}, n/2 for even n>=6, (n+3)/2 for odd n>=7 (n=3 has
    closed twins). These are the sizes of the optimal patterns
    path_identifying_code and cycle_identifying_code, which raise
    NotIdentifiableError for P2 and C3. Raises ValueError for any other
    graph.
    """
    shape = linear_order(g)
    if shape is None:
        raise ValueError("closed form exists only for paths and cycles")
    if shape[0] == "path":
        return len(path_identifying_code(g.n))
    return len(cycle_identifying_code(g.n))


def path_identifying_code(n: int) -> tuple[int, ...]:
    """An optimal identifying code of the path 0-1-...-(n-1).

    Size floor(n/2)+1 for n >= 3, which gamma_id_closed_form reports. Even
    vertices for odd n; for even n >= 6 one extra vertex near the far end
    replaces the pattern's slack; n=4 needs three consecutive vertices.
    """
    if n == 1:
        return (0,)
    if n == 2:
        raise NotIdentifiableError((0, 1))
    if n < 1:
        raise ValueError(f"path order must be >= 1, got {n}")
    if n % 2 == 1:
        return tuple(range(0, n, 2))
    if n == 4:
        return (0, 1, 2)
    return tuple(sorted(set(range(0, n, 2)) | {n - 3}))


def cycle_identifying_code(n: int) -> tuple[int, ...]:
    """An optimal identifying code of the cycle 0-1-...-(n-1)-0."""
    if n < 4:
        if n == 3:
            raise NotIdentifiableError((0, 1))
        raise ValueError(f"cycle order must be >= 3, got {n}")
    if n in (4, 5):
        return (0, 1, 2)
    if n % 2 == 0:
        return tuple(range(0, n, 2))
    return tuple(sorted(set(range(0, n, 2)) | {1}))


def odd_cycle_plus_chord_code(n: int, chord: tuple[int, int]) -> tuple[int, ...]:
    """An identifying code of size (n+1)/2 for an odd cycle plus one chord.

    The chord splits the cycle into an even and an odd subcycle. After
    normalising the chord to (0, j) with j odd, the code takes both chord
    ends, every second interior vertex of the even side starting next to 0,
    and every second interior vertex of the odd side starting one past j.
    The result is verified before being returned.
    """
    if n < 7 or n % 2 == 0:
        raise ValueError(f"need an odd cycle on >= 7 vertices, got n={n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    _admissible_addition(Graph(n, edges), chord)
    a, b = chord
    j = (b - a) % n
    if j % 2 == 1:
        back = lambda x: (x + a) % n  # noqa: E731  rotation only
    else:
        j = n - j
        back = lambda x: (a - x) % n  # noqa: E731  rotation plus reflection
    pattern = {0, j}
    pattern.update(range(1, j - 1, 2))
    pattern.update(range(j + 2, n - 1, 2))
    code = tuple(sorted(back(x) for x in pattern))
    g = Graph(n, edges + [(a, b)])
    if len(code) > (n + 1) // 2 or not is_identifying(g, code):
        raise GuaranteeError(
            f"chorded odd cycle pattern failed for n={n}, chord={chord}"
        )
    return code
