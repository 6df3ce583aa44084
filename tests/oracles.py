"""Independent brute-force reference implementations for the test suite.

Everything here works on raw (n, edges) data with plain set arithmetic and
exhaustive search, deliberately sharing no code with the package. Slow on
purpose; only use at small sizes.
"""

from __future__ import annotations

from itertools import combinations


def neighborhoods(n: int, edges) -> list[set[int]]:
    """Closed neighbourhood of every vertex."""
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return closed


def is_id_code(n: int, edges, code) -> bool:
    closed = neighborhoods(n, edges)
    cs = set(code)
    sigs = [frozenset(closed[v] & cs) for v in range(n)]
    if any(not s for s in sigs):
        return False
    return len(set(sigs)) == n


def min_id_code(n: int, edges):
    """(size, code) of a minimum identifying code, or None if none exists."""
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if is_id_code(n, edges, combo):
                return k, combo
    return None


def is_xy_code(n: int, edges, xs, ys, code) -> bool:
    closed = neighborhoods(n, edges)
    cs = set(code)
    if not cs <= set(ys):
        return False
    sigs = {x: frozenset(closed[x] & cs) for x in xs}
    if any(not s for s in sigs.values()):
        return False
    return len(set(sigs.values())) == len(set(xs))


def unseparated_pairs(n: int, edges, code) -> list[tuple[int, int]]:
    """Every pair u < v whose closed neighbourhoods meet the code in the
    same set, in lexicographic order."""
    closed = neighborhoods(n, edges)
    cs = set(code)
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if closed[u] & cs == closed[v] & cs
    ]


def min_xy_code(n: int, edges, xs, ys):
    ys = sorted(set(ys))
    for k in range(0, len(ys) + 1):
        for combo in combinations(ys, k):
            if is_xy_code(n, edges, xs, ys, combo):
                return k, combo
    return None


def has_triangle(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in edges)


def min_triangle_deletion_size(n: int, edges, cap: int):
    """Fewest edge deletions (at most cap) that leave no triangle, by trying
    every set of triangle edges in order of size; None if more than cap
    are needed."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    tri_edges = [(u, v) for u, v in edges if adj[u] & adj[v]]
    for k in range(cap + 1):
        for combo in combinations(tri_edges, k):
            rest = [e for e in edges if e not in combo]
            if not has_triangle(n, rest):
                return k
    return None


def closed_twins(n: int, edges):
    closed = neighborhoods(n, edges)
    return sorted(
        (u, v)
        for u, v in combinations(range(n), 2)
        if closed[u] == closed[v]
    )


def connected(n: int, edges) -> bool:
    if n == 0:
        return True
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def is_bridge(n: int, edges, e) -> bool:
    """Whether deleting the edge e = (u, v) leaves v out of reach of u."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    u, v = e
    adj[u].discard(v)
    adj[v].discard(u)
    seen = {u}
    todo = [u]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return v not in seen


def automorphism_count(n: int, edges) -> int:
    """Number of adjacency-preserving permutations, by backtracking: vertex
    v takes each unused image whose adjacency to the images of 0..v-1
    matches v's own, so every complete extension is an automorphism."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    image: list[int] = []
    free = set(range(n))

    def extend(v: int) -> int:
        if v == n:
            return 1
        count = 0
        for w in sorted(free):
            if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                free.remove(w)
                count += extend(v + 1)
                free.add(w)
                image.pop()
        return count

    return extend(0)


def connected_triangle_free_graphs(n: int):
    """All labeled connected triangle-free graphs on n vertices, as sorted
    edge tuples. The pairs are decided depth first in sorted order, taking
    a pair before leaving it out, so the graphs come in descending
    lexicographic order of their 0/1 vectors over the sorted pair list. A
    pair joins only if its ends share no neighbour, and a branch ends once
    the undecided pairs are too few to complete a spanning tree."""
    pairs = list(combinations(range(n), 2))
    adj = [0] * n
    chosen: list[tuple[int, int]] = []

    def extend(i: int, missing: int):
        if len(pairs) - i < missing:
            return
        if i == len(pairs):
            if connected(n, chosen):
                yield tuple(chosen)
            return
        u, v = pairs[i]
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            chosen.append((u, v))
            yield from extend(i + 1, missing - 1)
            chosen.pop()
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        yield from extend(i + 1, missing)

    yield from extend(0, n - 1)


def first_completion(n: int, edges, base):
    """The reference completion of a path pattern base on a path plus a
    chord: base when it is an identifying code, else base plus the lowest
    single vertex that makes it one, else None. The descent's code of a
    long path plus a chord has this rule's size."""
    base = set(base)
    if is_id_code(n, edges, base):
        return base
    for w in sorted(set(range(n)) - base):
        if is_id_code(n, edges, base | {w}):
            return base | {w}
    return None


def greedy_completion(n: int, edges, xs, ys, start, dominate: bool):
    """The rescore-everything greedy rule: from the code start, add the
    candidate of Y that settles the most violations among the targets X,
    the lowest on a tie, until none is left; None when no candidate
    settles any. An undominated target counts one violation when
    dominate, and a class of targets with equal code signatures counts
    k * (size - k) for a candidate whose closed neighbourhood holds k of
    its members."""
    closed = neighborhoods(n, edges)
    code = set(start)
    while True:
        classes: dict[frozenset, list[int]] = {}
        for x in xs:
            classes.setdefault(frozenset(closed[x] & code), []).append(x)
        undom = set(classes.get(frozenset(), ())) if dominate else set()
        groups = [set(c) for c in classes.values() if len(c) > 1]
        if not undom and not groups:
            return code
        best, pick = 0, None
        for w in sorted(set(ys) - code):
            score = len(closed[w] & undom)
            for c in groups:
                k = len(closed[w] & c)
                score += k * (len(c) - k)
            if score > best:
                best, pick = score, w
        if pick is None:
            return None
        code.add(pick)


def carried_sets(rs):
    """The sets of rs, bitmasks, in order, less every set that strictly
    holds a set of rs with at most two members: one filter of the whole
    list per small set, the exact search's rule before it became one
    pass."""
    out = rs
    for t in rs:
        if t.bit_count() <= 2:
            out = [r for r in out if r & t != t or r == t]
    return out
