"""Exact minimum identifying codes by branch and bound, plus the closed
forms for paths and cycles, the optimal chorded odd cycle construction and
a dynamic program that codes a tree minimally with no search (_tree_minimum).

The solver works on closed-neighbourhood bitmasks. A violation of the
current partial code is an undominated vertex or an unseparated pair, and
its resolver set holds the candidates that would resolve it. The solver
branches on the smallest open resolver set, the fail-first rule (Haralick
and Elliott, Increasing tree search efficiency for constraint satisfaction
problems, Artificial Intelligence, 1980), trying each candidate resolver
in ascending order with sibling exclusion, and prunes with a greedy
packing of pairwise disjoint resolver sets (each one needs its own new
code vertex).

A run lists the resolver sets of its root's violations once, in branching
order (undominated vertices ascending, then pairs in lexicographic order),
leaving out every violation whose set holds the set of an earlier one: a
pair of undominated vertices with no common candidate, and a repeated set.
Any vertex that resolves the earlier violation resolves the later one. A
violation is open exactly while the code misses its set, and adding a
vertex never opens one, so a node's open violations are those of the root
whose sets its code misses.

A node carries a list of them: the root sets sorted by size, by a stable
sort so that ties keep branching order, less every set that strictly
holds a root set of at most two candidates, about half the list on the
benchmark's n = 19 graphs. The child that adds w keeps the carried sets
that do not hold w, in the same order. A dropped set S strictly holds a
carried set T of at most two candidates (the set it holds, or a single
candidate that one holds), so S is open only while T is, and the node is
a leaf exactly when it carries no set. The head of the list is then the
smallest open set, the first in branching order on a tie, since S is
larger than T; the node branches on it, and which set that is depends
only on the node's code. When no resolver of S is usable, none of T is,
so a violation with no usable resolver cuts the same nodes. The packing
takes the sets smallest first after the mask of excluded siblings, by a
stable sort, and stops as soon as the bound prunes. T is smaller than S,
and its part after the mask lies in S's, so T comes first both in the
sorted list and in the packing's order: when S comes, T has packed or met
the packing, and S meets it. In the fixing step below T narrows and cuts
wherever S would. So S never tightens the bound: the packing is the one
over the whole sorted list, and dropping S saves copying, masking and
sorting it at every node.

Any packing of disjoint sets is a valid bound: it prunes only subtrees that
hold no code smaller than the incumbent. The search tries the nodes in the
same depth-first order whichever valid bound prunes it (the same branching
violation, candidates ascending, sibling exclusion), so it returns the
greedy code when that is optimal and otherwise the first minimum leaf in
that order: a completed search's code does not depend on the bound, and
only its node count does. Taking small sets first leaves room for more
disjoint ones than branching order does.

When the packing ends one vertex short of a cut, lb = room - 1, the node
fixes vertices out, the reduced-cost fixing of integer programming: the
packing is a dual solution of the LP relaxation of the same hitting-set
problem. A strictly better completion C of the node avoids the excluded
vertices and adds at most room - 1 = lb new vertices. The packed sets are
open, disjoint and lb in number, and C meets each of them with a new
vertex, so C takes exactly one vertex of each packed set and nothing else.
Let ok hold the vertices C may add, at first every packed vertex. A set
whose part in ok lies in one packed set p is met by C only through C's one
vertex in p, so that vertex lies in the part: each set is filed under the
packed set that holds its part (a packed set under itself), and p's
vertices in ok narrow to the intersection of the parts in its file.
Narrowing repeats until ok stops changing. A set with no vertex left in ok
leaves no strictly better completion, and the node is cut; two disjoint
parts in one file are one such case, and three that pairwise meet with no
vertex in all three are another. Otherwise every candidate outside ok and
the code is excluded for the whole subtree: the children branch only on
vertices in ok, and every bound below masks the fixed-out vertices too.

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
it and, by induction over the search order with the cuts in place, leaves
an incumbent no larger. A leaf below w is then never a strict
improvement. Containment is tested on the unmasked carried sets,
where b is still visible. The skipped vertex is excluded for the later
siblings, as if its subtree had been searched.

The test may also use a vertex b fixed out at an ancestor A, one outside
A's ok and A's code that A did not already exclude. Then C - w + b is a
code that holds A's code, avoids the vertices excluded at A and contains
b, so the argument that fixed b out shows it is no strictly better
completion of A: |C| = |C - w + b| is at least the incumbent's size at A,
which only falls later. Again no leaf below w is a strict improvement.

Neither the fixing nor the dominance cut moves a code. Each removes only
completions no smaller than the incumbent of its time, and the search
takes a leaf only when it is strictly smaller than the incumbent, which
only falls, so none of them would ever have been taken; every other node
is tried in the same depth-first order, since neither changes a node's
branching violation or the order of its candidates. A completed search
thus returns the same code with them as without them, and only the node
count falls.

The search tree is walked depth first on an explicit stack (see _walk),
so no input, however deep its codes, recurses in Python.

Greedy completion, which sets the first incumbent, is refine's max-settle
refinement of the partition of X by code signature (refine._complete).
Instances come from checks' gate (checks._identifiable), so a graph with
closed twins raises NotIdentifiableError naming the smallest pair, and a
chord is admitted by the rule for any added edge
(graphs._admissible_addition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .checks import _identifiable, is_identifying
from .errors import GuaranteeError, NotIdentifiableError
from .graphs import Graph, _admissible_addition, _bits, linear_order
from .refine import _classes, _complete

DEFAULT_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search.

    optimal is False only when the node budget ran out; the code is then the
    best one found so far (never invalid), and nodes_explored equals the
    budget.
    """

    size: int
    code: tuple[int, ...]
    nodes_explored: int
    optimal: bool


class _OutOfBudget(Exception):
    pass


class _Search:
    """One branch-and-bound run over a fixed (X, Y) instance.

    A search node holds the open sets of the carried list (see _minimal),
    smallest first: it branches on the first, and bounds with all of them,
    packing disjoint ones and, one vertex short of a cut, fixing vertices
    out (see _node). Greedy completion is refine's, with undominated
    targets counted.
    """

    def __init__(self, masks: list[int], xs: list[int], allowed: int):
        self.masks = masks
        self.xs = xs
        self.allowed = allowed
        self.nodes = 0
        self.budget = DEFAULT_NODE_BUDGET
        self.best_size = 0
        self.best_mask = 0

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
        """The carried list of a root list rs: rs sorted by size, by a
        stable sort, less every set that strictly holds a set of rs with
        at most two candidates. Such a set is open only while the smaller
        one is and never tightens the bound (see the module docstring).

        One pass over the sorted list ORs the kept one-candidate sets into
        one mask and lists the kept two-candidate ones, each before any set
        that could hold it, and keeps r unless it has two candidates or
        more and meets the mask, or it has three or more and holds a listed
        pair. The empty set, which a feasible instance never lists, is
        strictly held by every other set."""
        rs = sorted(rs, key=int.bit_count)
        ones = 0
        pairs = []
        out = []
        for r in rs:
            k = r.bit_count()
            if k > 1 and r & ones:
                continue
            if k > 2:
                for p in pairs:
                    if r & p == p:
                        break
                else:
                    out.append(r)
                continue
            if k == 2:
                pairs.append(r)
            elif k:
                ones |= r
            else:
                return [r for r in rs if not r]
            out.append(r)
        return out

    def _node(
        self, code: int, banned: int, rs: list[int]
    ) -> tuple[int, int] | None:
        """Visit one node: count it, take it as the incumbent if it is a
        leaf, or bound it. Returns None for a leaf or a cut node, else the
        vertices its children exclude and the candidates they add, those of
        the head of rs, the smallest open set. A node past the budget
        raises before it is counted, so a search that runs out has explored
        exactly budget nodes."""
        if self.nodes >= self.budget:
            raise _OutOfBudget
        self.nodes += 1
        if not rs:
            size = code.bit_count()
            if size < self.best_size:
                self.best_size = size
                self.best_mask = code
            return
        # A violation is open, so every completion adds one vertex at least:
        # with room for one at most, no smaller code lies below.
        room = self.best_size - code.bit_count()
        if room <= 1:
            return
        # An open violation's set holds no code vertex; only the excluded
        # vertices, earlier siblings and fixed-out ones, are masked out.
        keep = ~banned
        usable = [r & keep for r in rs]
        if 0 in usable:
            return
        # Lower bound: greedily pack pairwise disjoint resolver sets (each
        # needs its own new code vertex), smallest set first, ties in the
        # list's order; stop once the bound prunes.
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
        # One short: a strictly better completion takes exactly one vertex
        # of each packed set and no other (see the module docstring). A set
        # whose part in ok lies in one packed set p narrows p's vertices in
        # ok to that part, down to a fixed point; a set with no vertex left
        # in ok cuts the node, and the children avoid every vertex outside
        # ok, for the whole subtree. The code stays out of banned, whose
        # vertices the dominance test in _walk swaps in.
        if lb == room - 1:
            ok, last = used, 0
            while ok != last:
                last = ok
                for r in usable:
                    t = r & ok
                    if not t:
                        return
                    for p in packed:
                        if t & p:
                            break
                    if not t & ~p:
                        ok &= t | ~p
            banned |= self.allowed & ~(ok | code)
            keep = ~banned
        return banned, rs[0] & keep

    def _walk(self, code: int) -> None:
        """Search depth first from code on an explicit stack, which holds
        [code, rs, banned, candidates left] for each node on the path whose
        children are not all tried. A child keeps the sets its new vertex
        does not resolve, in the same order. It is skipped when an excluded
        vertex lies in every open carried set that holds its vertex (see
        the module docstring)."""
        rs = self._minimal(self._violations(code))
        banned = 0
        frames: list[list] = []
        while True:
            branch = self._node(code, banned, rs)
            if branch is not None:
                frames.append([code, rs, *branch])
            # Take the next child of the deepest node that has one left,
            # excluding each vertex tried or skipped for its later siblings.
            while frames:
                frame = frames[-1]
                code, rs, banned, first = frame
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
                    frame[2] = banned | low
                    frame[3] = first
                else:
                    frames.pop()
                code |= low
                rs = [r for r in rs if not r & low]
                break
            else:
                return

    def run(self, required: int, budget: int) -> tuple[int, bool]:
        """Search for a minimum code that holds required, which must lie
        within the candidates, from the greedy completion of required as
        the first incumbent. Returns (best code mask, completed within the
        budget); a required set that is already a code is returned at
        once."""
        self.budget = budget
        self.nodes = 0
        greedy = _complete(self.masks, self.xs, self.allowed, required, True)
        if greedy is None:
            raise GuaranteeError("greedy completion stuck on a feasible instance")
        self.best_size = greedy.bit_count()
        self.best_mask = greedy
        if self.best_size == required.bit_count():
            return greedy, True
        try:
            self._walk(required)
        except _OutOfBudget:
            return self.best_mask, False
        return self.best_mask, True


def gamma_id_exact(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Minimum identifying code of g.

    Raises NotIdentifiableError (with a witness twin pair) when none exists.
    A blown node budget yields ExactResult(optimal=False) holding the best
    verified code found.
    """
    search = _Search(*_identifiable(g))
    best, done = search.run(0, node_budget)
    return ExactResult(best.bit_count(), tuple(_bits(best)), search.nodes, done)


def _tree_minimum(adj: Sequence[Iterable[int]]) -> list[int]:
    """A minimum identifying code of the tree with adjacency adj and at
    least three vertices, ascending, by a dynamic program with no search
    (after Auger, Minimal identifying codes in trees and planar graphs with
    large girth, European J. Combin., 2010).

    In a graph with no 3- or 4-cycle, such as a tree, a code C identifies
    the graph exactly when (i) every N[v] meets C; (ii) every edge uv has a
    code vertex in (N(u) | N(v)) - {u, v}; and (iii) no code vertex w has
    two neighbours x with N[x] & C = {w}. For an edge uv, N[u] ^ N[v] is
    (N(u) | N(v)) - {u, v}, since u and v have no common neighbour. Two
    vertices at distance 2 have exactly one common neighbour w, so by (i)
    their traces are equal only when both are {w}, with w in C. Vertices
    further apart have disjoint closed neighbourhoods, which (i) separates.

    Root the tree at n - 1 and let p be the parent of v. The table of v maps
    (P, A, D) to the least number of code vertices in v's subtree, over
    the codes of it for which, with p in C exactly when P holds, every
    condition that names only the subtree and p holds and v has at most
    one child x with N[x] & C = {v}. A says v is in C, and D says v needs
    a code vertex in N(p) - {v}, its grandparent or a sibling. It needs
    one when it has no code child, since (ii) at the edge pv has no other
    code vertex to take, and when v is in C, p is not, and v has such a
    child x, since by (iii) p must not be a second one.

    A vertex's table folds its children's tables, whose P is its A,
    keeping the number of code children (0, 1, or 2 for more), whether a
    child outside C has D (it is such an x, and a second is dropped), and
    whether the only code child has D. Given P, a fold state decides the
    conditions that v's level completes: (i) at v, met by A, P or a code
    child; and each child with D, met by P or another code child, which is
    (ii) at the edge to the child and, for a code child, (iii) at it when v
    is outside C. Every other condition lies in one child's subtree or is
    carried up by D. The root has no parent, so a minimum is its least
    entry with P = 0, whatever D.

    Ties keep the first candidate met in a fixed order, children
    descending, and the code is read back from the root down, so it depends
    on the tree alone. The construction's restores build on the minimum the
    tie picks, so the root and child order were chosen by measurement: on
    the 3,456 seeded inputs of tests/cert_diff.py, against the exact
    search's codes of the same tree bases, root n - 1 with children
    descending made 18 final codes larger and 28 smaller, and root 0 with
    children ascending 37 larger and 31 smaller.
    """
    n = len(adj)
    parent = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    order = [n - 1]
    for v in order:
        for c in sorted(adj[v], reverse=True):
            if c != parent[v]:
                parent[c] = v
                kids[v].append(c)
                order.append(c)
    # best[v][(P, A, D)] is (size, fold state); a fold state is (code
    # children up to 2, a child outside C with D, the only code child has
    # D). trail[v][A] holds, per child, the step into each fold state.
    best: list[dict] = [{} for _ in range(n)]
    trail: list[list] = [[] for _ in range(n)]
    for v in reversed(order):
        for a in (0, 1):
            fold = {(0, 0, 0): a}
            steps = []
            for c in kids[v]:
                nxt: dict = {}
                step: dict = {}
                for (m, z, y), size in fold.items():
                    for (p, ac, dc), (extra, _) in best[c].items():
                        if p != a:
                            continue
                        if ac:
                            s = (1, z, dc) if m == 0 else (2, z, 0)
                        elif dc:
                            if z:
                                continue
                            s = (m, 1, y)
                        else:
                            s = (m, z, y)
                        if size + extra < nxt.get(s, n + 1):
                            nxt[s] = size + extra
                            step[s] = ((m, z, y), ac, dc)
                fold = nxt
                steps.append(step)
            trail[v].append(steps)
            for (m, z, y), size in fold.items():
                for p in (0, 1):
                    if not p and (z and not m or y or not (a or m)):
                        continue
                    key = (p, a, int(not m or (a and z and not p)))
                    if size < best[v].get(key, (n + 1,))[0]:
                        best[v][key] = (size, (m, z, y))
    want = [(0, 0, 0)] * n
    top = best[n - 1]
    want[n - 1] = min((k for k in top if not k[0]), key=lambda k: top[k][0])
    code = []
    for v in order:
        a = want[v][1]
        if a:
            code.append(v)
        s = best[v][want[v]][1]
        for c, step in zip(reversed(kids[v]), reversed(trail[v][a])):
            s, ac, dc = step[s]
            want[c] = (a, ac, dc)
    return sorted(code)


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
