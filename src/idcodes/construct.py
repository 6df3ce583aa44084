"""Certified identifying-code construction for triangle-free graphs, plus
the triangle-deletion patch pipeline for graphs with few triangles.

construct_triangle_free returns a Certificate: a verified identifying code
together with an exact integer size bound delta * |C| <= bound_num, where
bound_num is (delta-1)*n plus 1 exactly when the graph is one of the
exceptional family members (certified_bound gives every form). Every
branch is verified before it is accepted. A case of the induction that
yields no code raises GuaranteeError naming the case, and a code that
misses the bound raises BoundMissedError: no generic search stands in for
either. No tree is searched: a linear-time dynamic program codes a tree
base of at most 16 vertices, and a larger one whose pruned code is over
the bound. The one search left is the exact minimum of a path plus a
chord of at most 16 vertices.

The construction follows the paper's induction as an iterative descent
over one MutableGraph. Each level deletes the non-bridge edge that
pick_cycle_edge chooses, until the remainder is a path, cycle, catalog
member or tree with a direct code. Every catalog member is a tree or has
maximum degree 2, so only such a level is looked at for a direct code, or
a deletion that leaves one for a code of it plus the deleted edge; a level
with a cycle and maximum degree 3 or more builds nothing and goes on. A
tree base is coded on the MutableGraph's own adjacency, and its
SignatureTable is the one the restores start from. The picker keeps its
state on the MutableGraph across the descent: a lazy max-heap of
candidate edges, one int per edge that encodes its degree sum and then
its position; the bridges it has met, which stay bridges while edges are
only deleted and so are never tested again; and a spanning forest. A
pick outside the forest lies on a cycle with no search. A forest edge
costs a walk of the two trees it splits the forest into, in turns until
the smaller runs out, and a scan of that one for another edge across the
cut, which then takes the picked edge's place in the forest; with none,
the edge is a bridge. A level therefore costs a few heap operations in
the typical case, not a bridge search of the whole graph; the walk marks
vertices with fresh stamps in one list per MutableGraph, so it never
clears or allocates a visited set. A forest edge that splits a large tree
near its middle can still make a walk cover half of it. Restoring an
edge drops the heap and the forest. The deleted edges are then restored
in reverse order. A SignatureTable of the code, whose signatures come
from the same mask kernel as the closed neighbourhoods, is kept
throughout, and its code identifies the current graph: all signatures
are distinct and non-empty, which is checked after every change of code.
Restoring uv changes only the signatures of u and v, so the pairs it
breaks (the ClaimB step) are two table lookups. When there are any, a
quick patch of one or two vertices around the edge is decided from those
pairs alone, and each patch vertex is added to the table in place,
moving only the signatures of its closed neighbourhood; when none fits, a
structural repair builds a Graph of the current level, and the table is
rebuilt from the repair's code. Repairs that code a subgraph call the
construction again, so Python recursion is only as deep as repairs nest,
never as deep as the cycle rank.

Trace labels (CaseStep.label):
    Delta2Path / Delta2Cycle  code of a path / cycle, possibly with the
                              removed edge restored as a chord
    TreeBase                  tree handled directly (exact minimum, or all
                              vertices pruned to a minimal code)
    FamilyHit                 catalog member matched, its code transferred
    ClaimA                    every vertex is in the closed neighbourhood
                              of the removed edge; all but two vertices
    ClaimB                    classification of the pairs broken by the
                              restored edge; possibly a quick patch
    ClaimC                    an exceptional far component merged back
                              before recursing
    GStar                     hub code around the removed edge (boundary
                              plus small far components)
    ComponentAssembly         a large far component coded by recursion
    ExactFallback             the tree dynamic program replaced a tree's
                              pruned code that was over the bound
    CorollaryPatch            in the triangle-deletion pipeline, the
                              number of deleted edges, then damage
                              accounting for each restored edge
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection, Iterable, Sequence

from .checks import SignatureTable, _identifiable, is_identifying
from .errors import (
    BoundMissedError,
    GuaranteeError,
    InvalidDeletionSetError,
    NotConnectedError,
    NotTriangleFreeError,
)
from .exact import (
    _tree_minimum,
    cycle_identifying_code,
    gamma_id_exact,
    odd_cycle_plus_chord_code,
    path_identifying_code,
)
from .families import (
    FamilyId,
    fits_catalog,
    make_family,
    match_family,
    tree_plus_edge_code,
)
from .graphs import (
    Graph,
    _bits,
    _mask_of,
    boundary_decomposition,
    BoundaryDecomposition,
    MutableGraph,
    delete,
    graph_hash,
    induced_subgraph,
    is_connected,
    linear_order,
    pick_cycle_edge,
    triangle_witness,
)
from .refine import _complete, greedy_xy_identifying

STEP_DELTA2_PATH = "Delta2Path"
STEP_DELTA2_CYCLE = "Delta2Cycle"
STEP_TREE_BASE = "TreeBase"
STEP_FAMILY_HIT = "FamilyHit"
STEP_CLAIM_A = "ClaimA"
STEP_CLAIM_B = "ClaimB"
STEP_CLAIM_C = "ClaimC"
STEP_G_STAR = "GStar"
STEP_COMPONENT_ASSEMBLY = "ComponentAssembly"
STEP_EXACT_FALLBACK = "ExactFallback"
STEP_COROLLARY_PATCH = "CorollaryPatch"

CERTIFICATE_VERSION = "idcodes-certificate v7"

# Tree bases and paths plus a chord up to this order get a minimum code;
# a larger tree is pruned, and a longer path plus a chord is descended into.
_EXACT_MAX_N = 16

_Match = tuple[FamilyId, dict[int, int]]


@dataclass(frozen=True)
class CaseStep:
    """One step of the construction trace."""

    label: str
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    """A verified identifying code with its exact integer size bound.

    verified is True iff the code was checked to identify the input and
    bound_den * |code| <= bound_num; the constructors raise instead of
    returning an unverified certificate. family is the exceptional-family
    tag of the whole input graph, if any.
    """

    input_hash: str
    n: int
    delta: int
    code: tuple[int, ...]
    bound_num: int
    bound_den: int
    family: FamilyId | None
    verified: bool
    trace: tuple[CaseStep, ...]


def serialize_certificate(cert: Certificate) -> str:
    """Stable text form of a certificate; byte-identical across runs."""
    lines = [
        CERTIFICATE_VERSION,
        f"input-hash {cert.input_hash}",
        f"n {cert.n}",
        f"delta {cert.delta}",
        f"family {cert.family if cert.family is not None else '-'}",
        f"bound {cert.bound_num}/{cert.bound_den}",
        f"code-size {len(cert.code)}",
        "code " + " ".join(str(c) for c in cert.code),
        f"verified {'yes' if cert.verified else 'no'}",
        f"trace {len(cert.trace)}",
    ]
    for i, step in enumerate(cert.trace):
        lines.append(f"  {i} {step.label} {step.detail}".rstrip())
    return "\n".join(lines) + "\n"


def certified_bound(
    g: Graph | MutableGraph, family: FamilyId | None = None, t: int | None = None
) -> tuple[int, int]:
    """The size bound a certificate of g carries, as (num, den): a code C
    meets it when den * |C| <= num. delta is the maximum degree of g.

    Triangle-free form (t None): (delta - 1) * n, plus one for a member of
    the exceptional family (P4, C4 and C7 carry the degree-3 bound), and
    n + 3 over 2 for other paths and cycles. Near form, after t deleted
    edges: (delta - 1) * n + 4 * t * delta + 1.
    """
    delta = g.max_degree()
    if t is not None:
        return ((delta - 1) * g.n + 4 * t * delta + 1, delta)
    if family is not None:
        d = max(delta, 3)
        return ((d - 1) * g.n + 1, d)
    if delta == 2:
        return (g.n + 3, 2)
    return ((delta - 1) * g.n, delta)


def _certificate(
    g: Graph,
    code: Iterable[int],
    family: FamilyId | None,
    t: int | None,
    steps: list[CaseStep],
) -> Certificate:
    """The final check of a constructor's code against g and its bound;
    t is None for the triangle-free constructor."""
    if t is None:
        what = f"delta {g.max_degree()}, n {g.n}"
    else:
        what = f"patch pipeline, t={t}"
    ordered = tuple(sorted(code))
    if not is_identifying(g, ordered):
        raise GuaranteeError(f"the code does not identify the graph ({what})")
    num, den = certified_bound(g, family, t)
    if den * len(ordered) > num:
        raise BoundMissedError(ordered, num, den, what)
    return Certificate(
        input_hash=graph_hash(g),
        n=g.n,
        delta=g.max_degree(),
        code=ordered,
        bound_num=num,
        bound_den=den,
        family=family,
        verified=True,
        trace=tuple(steps),
    )


# ---------------------------------------------------------------------------
# construction pipeline
# ---------------------------------------------------------------------------


def _fmt_pairs(pairs: tuple[tuple[int, int], ...]) -> str:
    # Restoring an edge uv to an identifying code moves only u and v, each
    # into a group that held at most one vertex: at most 3 pairs break.
    return ",".join(f"({a},{b})" for a, b in pairs) or "none"


def _prune(adj: Sequence[Iterable[int]], code: Iterable[int]) -> SignatureTable:
    """The signature table of code on the graph with adjacency adj, after
    dropping removable vertices in ascending order; its code is minimal.

    A vertex is removable when the code without it still identifies the
    graph. Each test updates the signatures in N[c] only. A code that does
    not identify the graph has no removable vertex, since dropping code
    vertices never separates a pair or dominates a vertex.
    """
    table = SignatureTable(adj, code)
    if table.identifies():
        for c in _bits(table.code_mask):
            table.try_drop(c)
    return table


def _two_regular(state: MutableGraph, steps: list[CaseStep], depth: int) -> set[int]:
    kind, order = linear_order(state)  # type: ignore[misc]
    n = state.n
    if kind == "path":
        pattern = path_identifying_code(n)
        steps.append(CaseStep(STEP_DELTA2_PATH, f"d{depth}: path of {n}"))
    else:
        pattern = cycle_identifying_code(n)
        steps.append(CaseStep(STEP_DELTA2_CYCLE, f"d{depth}: cycle of {n}"))
    return {order[i] for i in pattern}


def _tree_code(
    state: MutableGraph, steps: list[CaseStep], depth: int
) -> SignatureTable:
    """The checked signature table of a code of the state, a non-catalog
    tree with maximum degree >= 3.

    No Graph is built and nothing is searched. Up to _EXACT_MAX_N vertices
    the code is _tree_minimum's, a minimum one, on the state's own
    adjacency. Above that, the whole vertex set identifies the tree
    (n >= 3 leaves no closed twins), and _prune cuts it to a minimal code
    on the same adjacency, whose table is the one returned. A minimal code
    over the bound is replaced by _tree_minimum's. By the companion theorem
    for trees, a tree outside the catalog has a minimum code within the
    bound, so a minimum over it raises GuaranteeError.
    """
    n = state.n
    if n <= _EXACT_MAX_N:
        code = _tree_minimum(state.adj)
        steps.append(
            CaseStep(STEP_TREE_BASE, f"d{depth}: tree of {n}, exact minimum")
        )
        return _checked_table(SignatureTable(state.adj, code), depth)
    table = _prune(state.adj, range(n))
    size = table.code_mask.bit_count()
    steps.append(
        CaseStep(
            STEP_TREE_BASE,
            f"d{depth}: tree of {n}, all vertices pruned to {size}",
        )
    )
    num, den = certified_bound(state)
    if den * size > num:
        code = _tree_minimum(state.adj)
        if den * len(code) > num:
            raise GuaranteeError(
                f"d{depth}: the tree's minimum code of {len(code)} is over the bound"
            )
        steps.append(
            CaseStep(
                STEP_EXACT_FALLBACK,
                f"d{depth}: tree DP shrank tree code to {len(code)}",
            )
        )
        table = SignatureTable(state.adj, code)
    return _checked_table(table, depth)


def _chorded_two_regular(
    state: MutableGraph,
    order_info: tuple[str, tuple[int, ...]],
    e: tuple[int, int],
    steps: list[CaseStep],
    depth: int,
) -> set[int]:
    """A code of the state, a cycle plus the chord e, or a path of at most
    _EXACT_MAX_N vertices plus e; order_info is linear_order of the state
    without e. n >= 5 here since the maximum degree is 3. An odd cycle
    gets its chorded pattern and an even one an alternating class; a path
    plus a chord gets an exact minimum code, the one search left in the
    construction."""
    kind, order = order_info
    pos = {w: i for i, w in enumerate(order)}
    n = state.n
    a, b = pos[e[0]], pos[e[1]]
    if kind == "cycle":
        if n % 2 == 1:
            pattern = odd_cycle_plus_chord_code(n, (a, b))
            steps.append(
                CaseStep(
                    STEP_DELTA2_CYCLE,
                    f"d{depth}: odd cycle of {n} plus chord",
                )
            )
            return {order[i] for i in pattern}
        # Chord between two odd positions keeps the even class certifying
        # and vice versa; a mixed chord works with either.
        parity = 1 if (a % 2 == 0 and b % 2 == 0) else 0
        steps.append(
            CaseStep(
                STEP_DELTA2_CYCLE,
                f"d{depth}: even cycle of {n} plus chord, alternating code",
            )
        )
        return {order[i] for i in range(parity, n, 2)}
    res = gamma_id_exact(state.graph())
    steps.append(
        CaseStep(STEP_DELTA2_PATH, f"d{depth}: path of {n} plus chord, exact minimum")
    )
    return set(res.code)


def _case_code(g: Graph, code: set[int], case: str, depth: int) -> set[int]:
    """code, when it identifies g; else GuaranteeError naming the repair
    case whose template code is."""
    if not is_identifying(g, code):
        raise GuaranteeError(f"d{depth}: the {case} template does not identify")
    return code


def _whole_boundary_code(
    g: Graph, bd: BoundaryDecomposition, steps: list[CaseStep], depth: int
) -> set[int]:
    """Every vertex is within distance one of the removed edge uv: all but
    the lowest neighbour on each side (n <= 2*delta makes the bound work).

    As g is triangle-free, dropping any neighbour of u and any neighbour of
    v leaves a code when n >= 5; n = 4 is C4, which the descent codes as a
    cycle. uv is not a bridge, so neither side is empty.
    """
    drop = sorted((bd.near_u[0], bd.near_v[0]))
    code = _case_code(g, set(range(g.n)) - set(drop), STEP_CLAIM_A, depth)
    steps.append(CaseStep(STEP_CLAIM_A, f"d{depth}: all vertices except {drop}"))
    return code


def _part_code(
    part: tuple[Graph, tuple[int, ...]], steps: list[CaseStep], depth: int
) -> set[int]:
    """A code of an induced part of g, given as induced_subgraph returns it,
    found by the construction one level down and put in g's labels."""
    sub, back = part
    return {back[x] for x in _build(sub, _catalog_match(sub), steps, depth + 1)}


def _cut_and_recurse(
    g: Graph,
    cut: Collection[int],
    templates: Callable[[set[int]], list[set[int]]],
    done: str,
    steps: list[CaseStep],
    depth: int,
) -> set[int] | None:
    """The ClaimC step: cut the given vertices off g, code the rest by
    recursion, and return the first of templates(rest's code) that
    identifies g, tracing the rest's steps and then done. None when the
    rest is disconnected or no template identifies g."""
    part = induced_subgraph(g, [w for w in range(g.n) if w not in cut])
    if not is_connected(part[0]):
        return None
    sub_steps: list[CaseStep] = []
    base = _part_code(part, sub_steps, depth)
    for cand in templates(base):
        if is_identifying(g, cand):
            steps.extend(sub_steps)
            steps.append(CaseStep(STEP_CLAIM_C, f"d{depth}: {done}"))
            return cand
    return None


def _merge_family_component(
    g: Graph,
    bd: BoundaryDecomposition,
    comp: tuple[int, ...],
    hit: _Match,
    back: tuple[int, ...],
    steps: list[CaseStep],
    depth: int,
) -> set[int]:
    """An exceptional far component would break the per-part budget; absorb
    part of it into the rest of the graph before recursing. hit is the
    component's catalog match, back its ids in g."""
    family, to_sub = hit
    boundary = set(bd.boundary)
    if family.kind in ("STAR", "T0"):
        # Cut the star but one attachment leaf xd and put it back with its
        # centre and all but one of the other leaves (at degree 3, also
        # without the centre). The star has delta leaves, so its centre
        # has no edge outside it; the rest stays connected around the edge.
        # The catalog star's centre is vertex 0, T0's is vertex 1.
        center = back[to_sub[0 if family.kind == "STAR" else 1]]
        leaves = sorted(set(comp) - {center})
        xd = min(l for l in leaves if g.adj[l] & boundary)
        others = [l for l in leaves if l != xd]
        if g.max_degree() >= 4:
            adds = [{center, *others} - {excl} for excl in others]
        else:
            x1, x2 = others
            adds = [{center, x1}, {center, x2}, {x1, x2}]
        code = _cut_and_recurse(
            g, set(comp) - {xd}, lambda base: [base | a for a in adds],
            f"star component rebuilt around leaf {xd}", steps, depth,
        )
        if code is None:
            raise GuaranteeError(
                f"d{depth}: no {STEP_CLAIM_C} star template around leaf {xd} "
                "identifies"
            )
        return code
    if family.kind == "P4":
        # The catalog path is 0-1-2-3; start at the lower-labelled end.
        order = tuple(back[to_sub[x]] for x in range(4))
        order = min(order, order[::-1])
        if not (g.adj[order[0]] & boundary) and not (
            g.adj[order[3]] & boundary
        ):
            # x1-x2-x3-x4, whose ends see no boundary vertex and x2 does:
            # cut off the far half and put back x3, with x2 in place of x1
            # when the rest's code leaves x2 out. x1 hangs on x2, so the
            # rest stays connected.
            x1, x2, x3, x4 = order if g.adj[order[1]] & boundary else order[::-1]
            code = _cut_and_recurse(
                g, (x3, x4),
                lambda base: [(base | {x3}) if x2 in base
                              else (base - {x1}) | {x2, x3}],
                "split path component rejoined", steps, depth,
            )
            if code is None:
                raise GuaranteeError(
                    f"d{depth}: the {STEP_CLAIM_C} path template does not identify"
                )
            return code
    # Remove an induced path on three vertices whose removal keeps the rest
    # connected, recurse, then add two of the three back. The rest holds
    # the edge's closed neighbourhood, so it has at least 4 vertices.
    comp_set = set(comp)
    for mid in sorted(comp_set):
        for a, b in combinations(sorted(g.adj[mid] & comp_set), 2):
            code = _cut_and_recurse(
                g, (a, mid, b),
                lambda base: [base | {a, b}, base | {a, mid}, base | {mid, b}],
                f"component path {a}-{mid}-{b} absorbed", steps, depth,
            )
            if code is not None:
                return code
    raise GuaranteeError(
        f"d{depth}: no {STEP_CLAIM_C} path of the far component {list(comp)} "
        "can be absorbed"
    )


def _hub_code(hub: Graph, hu: int, hv: int, delta: int) -> tuple[set[int], str]:
    """Code of the hub (boundary plus small far components), containing both
    ends of the removed edge.

    Template: everything except a representative set of the small-component
    vertices and up to two boundary vertices, preferring boundary vertices
    that a greedy (Z, A)-code leaves out. No template within the bound
    raises GuaranteeError.
    """
    a_set = (hub.adj[hu] | hub.adj[hv]) - {hu, hv}
    a_sorted = sorted(a_set)
    # The small components have one or two vertices. Each vertex is grouped
    # by its neighbourhood in A, a vertex with none (a loose one) by its
    # partner's, which is then a direct member of the same group.
    groups: dict[frozenset[int], list[int]] = {}
    for b in sorted(set(range(hub.n)) - a_set - {hu, hv}):
        if hub.adj[b] & a_set:
            anchor = b
        elif len(hub.adj[b]) == 1:
            (anchor,) = hub.adj[b]
        else:
            raise GuaranteeError(f"hub vertex {b} has no anchor")
        groups.setdefault(frozenset(hub.adj[anchor] & a_set), []).append(b)
    b_star: set[int] = set()
    reps: list[int] = []
    for key in sorted(groups, key=sorted):
        members = groups[key]
        direct = [b for b in members if hub.adj[b] & a_set]
        loose = [b for b in members if not (hub.adj[b] & a_set)]
        if len(loose) > len(direct):
            raise GuaranteeError(f"unanchored small component in {members}")
        b_star.update(loose)
        if len(loose) < len(direct):
            # One extra representative with no partner in the group. Two
            # partnered direct members would close a triangle with A, so
            # in a triangle-free hub the partnered ones are the loose
            # members' partners, and one is left over.
            lonely = [b for b in direct if not (hub.adj[b] & set(members))]
            if not lonely:
                raise GuaranteeError(f"no unpartnered member in {members}")
            b_star.add(min(lonely))
        reps.append(min(direct))
    # Each representative's group is keyed by its own neighbourhood in A,
    # so A dominates the representatives and separates every pair of them.
    a_star = frozenset(greedy_xy_identifying(hub, reps, a_sorted))
    singles = sorted(a_sorted, key=lambda x: (x in a_star, x))
    pairs = sorted(
        combinations(a_sorted, 2),
        key=lambda p: (sum(1 for x in p if x in a_star), p),
    )
    kept = set(range(hub.n)) - b_star
    for s in [(), *((x,) for x in singles), *pairs]:
        cand = kept - set(s)
        if delta * len(cand) <= (delta - 1) * hub.n and is_identifying(hub, cand):
            return cand, f"template representative minus {list(s)}"
    raise GuaranteeError(f"no hub template within the bound around ({hu},{hv})")


def _assemble(
    g: Graph,
    bd: BoundaryDecomposition,
    parts: list[tuple[Graph, tuple[int, ...]]],
    steps: list[CaseStep],
    depth: int,
) -> set[int]:
    """Hub-and-components assembly: code the hub with both edge ends forced
    in, code each large far component recursively, take the union. The
    parts are the large far components as induced_subgraph built them."""
    small = set(bd.isolated) | {x for p in bd.pair_components for x in p}
    hub_vs = sorted(set(bd.closed) | small)
    hub, back = induced_subgraph(g, hub_vs)
    chub, how = _hub_code(hub, back.index(bd.u), back.index(bd.v), g.max_degree())
    total = {back[x] for x in chub}
    sub_steps: list[CaseStep] = []
    for part in parts:
        ck = _part_code(part, sub_steps, depth)
        total |= ck
        sub_steps.append(
            CaseStep(
                STEP_COMPONENT_ASSEMBLY,
                f"d{depth}: far component of {part[0].n} coded with {len(ck)}",
            )
        )
    code = _case_code(g, total, STEP_G_STAR, depth)
    steps.append(
        CaseStep(
            STEP_G_STAR,
            f"d{depth}: hub of {hub.n} vertices, {how}",
        )
    )
    steps.extend(sub_steps)
    return code


def _quick_patch(
    state: MutableGraph, e: tuple[int, int], code: int,
    broken: tuple[tuple[int, int], ...], steps: list[CaseStep], depth: int,
) -> list[int] | None:
    """The first of u, v, or u and a neighbour of v that fixes the code, a
    mask, once e = uv is restored, and keeps it within the bound, as the
    sorted vertices it adds; None when none does. The broken pairs are the
    code's only violations, and added vertices merge no signatures, so a
    patch fixes the code exactly when it meets N[x] ^ N[y] for every
    broken pair x, y."""
    u, v = e
    adj = state.adj
    num, den = certified_bound(state)  # never a family member here
    size = code.bit_count()
    splits = [(adj[x] | {x}) ^ (adj[y] | {y}) for x, y in broken]
    for extra in [(u,), (v,), *((u, y) for y in sorted(adj[v] - {u}))]:
        added = sorted(x for x in set(extra) if not code >> x & 1)
        fixes = all(not s.isdisjoint(extra) for s in splits)
        if fixes and den * (size + len(added)) <= num:
            steps.append(
                CaseStep(STEP_CLAIM_B, f"d{depth}: patched with {added}")
            )
            return added
    return None


def _repair(
    g: Graph, e: tuple[int, int], steps: list[CaseStep], depth: int
) -> set[int]:
    """The recursion's code fails on g with e restored, and no quick patch
    fixes it: the paper's case split picks one template. ClaimA when no
    vertex is far from the edge, ClaimC when a large far component is a
    catalog member, G* else."""
    u, v = e
    delta = g.max_degree()
    bd = boundary_decomposition(g, u, v)
    if not bd.far:
        return _whole_boundary_code(g, bd, steps, depth)
    parts = []
    for comp in bd.large_components:
        sub, back = induced_subgraph(g, comp)
        hit = match_family(sub, delta)
        if hit is not None:
            return _merge_family_component(g, bd, comp, hit, back, steps, depth)
        parts.append((sub, back))
    return _assemble(g, bd, parts, steps, depth)


def _catalog_match(g: Graph) -> _Match | None:
    """g's exceptional-family match at its own maximum degree; paths and
    cycles are judged at degree 3, where P4, C4 and C7 are members."""
    return match_family(g, max(g.max_degree(), 3))


def _build(
    g: Graph, hit: _Match | None, steps: list[CaseStep], depth: int
) -> frozenset[int]:
    """A verified identifying code of a connected triangle-free g, n >= 3,
    whose _catalog_match is hit.

    Descends by deleting non-bridge edges from one MutableGraph until a
    level has a direct code, then restores the edges in reverse order,
    repairing the code where a restored edge breaks it.
    """
    state = MutableGraph(g)
    removed: list[tuple[int, int]] = []
    while True:
        level = depth + len(removed)
        if _is_base(state):
            level_hit = _level_match(state) if removed else hit
            table = _direct_code(state, level_hit, steps, level)
            break
        delta = state.max_degree()
        u, v = pick_cycle_edge(state)
        state.remove_edge(u, v)
        if _is_base(state):
            chorded = _chorded_code(state, (u, v), delta, steps, level)
            if chorded is not None:
                table = _checked_table(SignatureTable(state.adj, chorded), level)
                break
        removed.append((u, v))
    # From here on the table's code identifies the current state: all
    # signatures are distinct and non-empty.
    while removed:
        u, v = removed.pop()
        level = depth + len(removed)
        state.add_edge(u, v)
        broken = table.restore_edge(u, v)
        steps.append(
            CaseStep(
                STEP_CLAIM_B,
                f"d{level}: restored ({u},{v}), unseparated {_fmt_pairs(broken)}",
            )
        )
        if broken:
            added = _quick_patch(state, (u, v), table.code_mask, broken, steps, level)
            if added is None:
                code = _repair(state.graph(), (u, v), steps, level)
                table = SignatureTable(state.adj, code)
            else:
                for c in added:
                    table.add(c)
            _checked_table(table, level)
    return frozenset(_bits(table.code_mask))


def _is_base(state: MutableGraph) -> bool:
    """Whether the state is a tree or has maximum degree 2. Every catalog
    member is one or the other, so no other level has a direct code, nor
    can deleting an edge from it leave a chorded one."""
    return state.m < state.n or state.max_degree() <= 2


def _checked_table(table: SignatureTable, depth: int) -> SignatureTable:
    """table, a signature table on the current state, whose code must
    identify it."""
    if not table.identifies():
        raise GuaranteeError(f"d{depth}: the level's code does not identify it")
    return table


def _level_match(state: MutableGraph) -> _Match | None:
    """The catalog match of a level at its own maximum degree, with a Graph
    built only for a level of a member's order and size; None below
    maximum degree 3."""
    delta = state.max_degree()
    if delta >= 3 and fits_catalog(state.n, state.m, delta):
        return match_family(state.graph(), delta)
    return None


def _direct_code(
    state: MutableGraph,
    hit: _Match | None,
    steps: list[CaseStep],
    depth: int,
) -> SignatureTable:
    """The checked signature table of a code of the current state, a path,
    cycle, catalog member or other tree (_is_base holds), whose catalog
    match is hit. A path or cycle gets its pattern and a catalog member its
    catalog code; _tree_code codes any other tree. None of them builds a
    Graph."""
    if state.max_degree() <= 2:
        code = _two_regular(state, steps, depth)
    elif hit is None:
        return _tree_code(state, steps, depth)
    else:
        fid, mapping = hit
        steps.append(CaseStep(STEP_FAMILY_HIT, f"d{depth}: {fid}"))
        code = {mapping[c] for c in make_family(fid).code}
    return _checked_table(SignatureTable(state.adj, code), depth)


def _chorded_code(
    state: MutableGraph,
    e: tuple[int, int],
    delta: int,
    steps: list[CaseStep],
    depth: int,
) -> set[int] | None:
    """A code of the state plus e, when the state (e just removed, maximum
    degree delta before, _is_base now) is a path or cycle, or a catalog
    tree of maximum degree 3 = delta; e is put back then. None when the
    descent must go on, as it does for a path plus e above _EXACT_MAX_N
    vertices: the descent codes the path, and the restore of e patches it.
    A non-bridge removal keeps the state connected."""
    u, v = e
    shape = linear_order(state) if state.max_degree() <= 2 else None
    if shape is not None:
        if shape[0] == "path" and state.n > _EXACT_MAX_N:
            return None
        state.add_edge(u, v)
        return _chorded_two_regular(state, shape, e, steps, depth)
    # A hit is a catalog tree: delta 3 looks up the fixed members only, P4
    # has maximum degree 2, and C4 and C7 have m = n.
    hit1 = _level_match(state) if delta == 3 else None
    if hit1 is None:
        return None
    fid, mapping = hit1
    inv = {w: c for c, w in mapping.items()}
    cat_code = tree_plus_edge_code(fid, (inv[u], inv[v]))
    steps.append(
        CaseStep(
            STEP_FAMILY_HIT,
            f"d{depth}: {fid} plus the removed edge",
        )
    )
    state.add_edge(u, v)
    return {mapping[c] for c in cat_code}


def _validate_construct_input(g: Graph) -> None:
    if g.n < 3:
        raise ValueError(f"need at least 3 vertices, got {g.n}")
    tri = triangle_witness(g)
    if tri is not None:
        raise NotTriangleFreeError(tri)
    if not is_connected(g):
        raise NotConnectedError("input graph is not connected")


def construct_triangle_free(g: Graph) -> Certificate:
    """A certified identifying code for a connected triangle-free graph on
    at least three vertices.

    The certificate bound is delta*|C| <= (delta-1)*n, plus one exactly for
    the exceptional family members (paths and cycles use n+3 over 2). A
    code over the bound raises BoundMissedError, which carries the
    verified-but-oversized code; a case of the construction that yields no
    code, or a code that fails the final check, raises GuaranteeError.
    """
    _validate_construct_input(g)
    return _construct_checked(g)


def _construct_checked(g: Graph) -> Certificate:
    """construct_triangle_free on an input already known to be connected
    and triangle-free, with at least three vertices."""
    steps: list[CaseStep] = []
    hit = _catalog_match(g)
    code = _build(g, hit, steps, 0)
    fam = None if hit is None else hit[0]
    return _certificate(g, code, fam, None, steps)


# ---------------------------------------------------------------------------
# triangle deletion and the patch pipeline
# ---------------------------------------------------------------------------


def triangle_deletion_set(g: Graph) -> tuple[tuple[int, int], ...]:
    """A greedy set of edges whose removal makes g triangle-free: repeatedly
    drop the edge on the most triangles (ties: smallest edge). Every chosen
    edge lies on a cycle, so connectivity is preserved."""
    adj = [set(s) for s in g.adj]
    removed: list[tuple[int, int]] = []
    while True:
        best: tuple[int, int] | None = None
        best_count = 0
        for u, v in g.edges:
            if v not in adj[u]:
                continue
            c = len(adj[u] & adj[v])
            if c > best_count:
                best, best_count = (u, v), c
        if best is None:
            return tuple(sorted(removed))
        u, v = best
        adj[u].discard(v)
        adj[v].discard(u)
        removed.append((u, v))


def construct_near_triangle_free(
    g: Graph,
    deletions: Iterable[tuple[int, int]] | None = None,
) -> Certificate:
    """A certified identifying code for a connected identifiable graph with
    few triangles: delete a triangle-hitting edge set, build a code of the
    triangle-free remainder, then restore each edge and complete that code
    greedily on the vertices the restored edges damage.

    The certificate bound is delta*|C| <= (delta-1)*n + 4*t*delta + 1 with
    t the number of deleted edges. Requires maximum degree >= 3 (the bound
    form is vacuous below that).
    """
    if g.n < 3:
        raise ValueError(f"need at least 3 vertices, got {g.n}")
    if not is_connected(g):
        raise NotConnectedError("input graph is not connected")
    delta = g.max_degree()
    if delta < 3:
        raise ValueError(
            f"the patch pipeline needs maximum degree >= 3, got {delta}"
        )
    masks = _identifiable(g)[0]
    if deletions is None:
        edge_set = triangle_deletion_set(g)
    else:
        edge_set = tuple(
            sorted({(min(u, v), max(u, v)) for u, v in deletions})
        )
    gt = delete(g, edges=edge_set)
    tri = triangle_witness(gt)
    if tri is not None:
        raise InvalidDeletionSetError(
            f"deletion set leaves triangle {tri}"
        )
    if not is_connected(gt):
        raise InvalidDeletionSetError("deletion set disconnects the graph")
    sub = _construct_checked(gt)
    steps = list(sub.trace)
    base = set(sub.code)
    t = len(edge_set)
    steps.append(CaseStep(STEP_COROLLARY_PATCH, f"deleted {t} edges"))
    damaged: set[int] = set()
    table = SignatureTable(gt.adj, base)
    for e in edge_set:
        fresh = sorted({x for p in table.restore_edge(*e) for x in p} - damaged)
        if len(fresh) > 4:
            raise GuaranteeError(
                f"edge {e} damaged {len(fresh)} new vertices, more than 4"
            )
        damaged.update(fresh)
        steps.append(
            CaseStep(
                STEP_COROLLARY_PATCH,
                f"restored ({e[0]},{e[1]}), new vertices {fresh}",
            )
        )
    code = base
    if damaged:
        # base leaves only pairs of damaged vertices unseparated in g, and
        # g has no closed twins, so completing base on them identifies g.
        full = _complete(masks, sorted(damaged), (1 << g.n) - 1, _mask_of(base), True)
        if full is None:
            raise GuaranteeError("greedy completion stuck on the damaged vertices")
        code = set(_bits(full))
        steps.append(
            CaseStep(
                STEP_COROLLARY_PATCH,
                f"greedy code on {len(damaged)} damaged vertices added "
                f"{len(code - base)}",
            )
        )
    return _certificate(g, code, None, t, steps)
