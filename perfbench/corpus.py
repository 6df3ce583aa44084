"""Seeded input generation for the benchmark.

Shares no code with ``idcodes``: every graph here is built from
``random.Random(seed)`` and plain adjacency sets, so a change to the
package's own generators cannot change what the benchmark feeds it. A graph
is ``(n, edges)`` with ``edges`` a sorted tuple of sorted pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The fifteen fixed catalog members (the twelve maximum-degree-3 trees of the
# paper, P4, C4 and C7), one labelling each, with their identifying-code
# numbers. Tree T_i has 3k + 1 vertices and gamma 2k + 1.
CATALOG: dict[str, tuple[int, tuple[tuple[int, int], ...], int]] = {
    "T0": (4, ((0, 1), (1, 2), (1, 3)), 3),
    "T1": (7, ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)), 5),
    "T2": (7, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)), 5),
    "T3": (10, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (3, 7),
                (7, 8), (8, 9)), 7),
    "T4": (10, ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7),
                (7, 8), (7, 9)), 7),
    "T5": (10, ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (0, 7),
                (7, 8), (7, 9)), 7),
    "T6": (13, ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (3, 7),
                (7, 8), (7, 9), (0, 10), (10, 11), (10, 12)), 9),
    "T7": (13, ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12), (0, 4),
                (4, 5), (4, 6), (0, 7), (7, 8), (7, 9)), 9),
    "T8": (16, ((0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (4, 6), (3, 7),
                (7, 8), (7, 9), (0, 10), (10, 11), (10, 12), (0, 13),
                (13, 14), (13, 15)), 11),
    "T9": (16, ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12),
                (2, 13), (13, 14), (13, 15), (0, 4), (4, 5), (4, 6), (0, 7),
                (7, 8), (7, 9)), 11),
    "T10": (19, ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12),
                 (2, 13), (13, 14), (13, 15), (0, 4), (4, 5), (4, 6), (0, 7),
                 (7, 8), (7, 9), (3, 16), (16, 17), (16, 18)), 13),
    "T11": (22, ((0, 1), (1, 2), (1, 3), (2, 10), (10, 11), (10, 12),
                 (2, 13), (13, 14), (13, 15), (0, 4), (4, 5), (4, 6), (0, 7),
                 (7, 8), (7, 9), (3, 16), (16, 17), (16, 18), (3, 19),
                 (19, 20), (19, 21)), 15),
    "P4": (4, ((0, 1), (1, 2), (2, 3)), 3),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3)), 3),
    "C7": (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)), 5),
}


@dataclass(frozen=True)
class Item:
    """One benchmark input.

    kind is the outcome class the runner expects: "construct" and
    "near-construct" certify, "exact" solves, "dedup" is one sweep entry.
    base names the graph a dedup item relabels (its true isomorphism class).
    """

    name: str
    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]
    base: str = ""


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _edges_of(adj: list[set[int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v))


def relabel(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    ))


def triangle_free(n: int, m: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A connected triangle-free graph with exactly m edges, labels shuffled.

    A uniform random recursive tree, then random vertex pairs accepted when
    they share no neighbour. An attempt that stalls (200 m pair draws
    without reaching m edges) starts over from a new tree; m above n^2 / 4
    is impossible (Mantel) and raises ValueError.
    """
    if not n - 1 <= m <= n * n // 4:
        raise ValueError(f"no connected triangle-free graph with n={n}, m={m}")
    while True:
        adj: list[set[int]] = [set() for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        count = n - 1
        for _ in range(200 * m):
            if count == m:
                break
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or v in adj[u] or adj[u] & adj[v]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            count += 1
        if count == m:
            return relabel(n, _edges_of(adj), rng)


def has_closed_twins(n: int, edges) -> bool:
    closed = _adjacency(n, edges)
    for v in range(n):
        closed[v].add(v)
    return len({frozenset(s) for s in closed}) < n


def has_triangle(n: int, edges) -> bool:
    adj = _adjacency(n, edges)
    return any(adj[u] & adj[v] for u, v in edges)


def max_degree(n: int, edges) -> int:
    return max((len(s) for s in _adjacency(n, edges)), default=0)


def planted(n: int, m: int, k: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A triangle-free base graph plus k edges that each close a triangle,
    with maximum degree >= 3 and no closed twins (resampled until so)."""
    while True:
        base = triangle_free(n, m, rng)
        adj = _adjacency(n, base)
        added = 0
        while added < k:
            w = rng.randrange(n)
            if len(adj[w]) < 2:
                continue
            u, v = rng.sample(sorted(adj[w]), 2)
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            added += 1
        edges = _edges_of(adj)
        if max_degree(n, edges) >= 3 and not has_closed_twins(n, edges):
            return edges


def _invariant(n: int, edges) -> tuple:
    """Degree sequence refined by sorted neighbour degrees: equal for
    isomorphic graphs, so distinct values prove non-isomorphism."""
    adj = _adjacency(n, edges)
    return (n, len(edges), tuple(sorted(
        (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])))
        for v in range(n)
    )))


# --- workloads ---------------------------------------------------------------

# certify: (n, m) ladder. Sparse m = 1.5n across n = 40..240, a denser band
# at m = 5n, and planted-triangle graphs (about a quarter of the items).
CERTIFY_SPARSE = tuple(range(40, 241, 10))
CERTIFY_DENSE = (40, 50, 60, 70)
CERTIFY_PLANTED = (30, 40, 50, 60, 70, 80, 90, 100)

# exact-sparse: twin-free triangle-free graphs on n = 19, m about 1.3n. One
# size: the tail of the node counts is steadier than over a size ladder.
EXACT_SIZES = (19,) * 300

# dedup-sweep: one random base per (n, m) slot, n = 7..12 and
# m = n - 1 + k for k < DEDUP_EXTRA_EDGES, with maximum degree >= 3, beside
# the fifteen catalog members; every base is copied DEDUP_COPIES times.
DEDUP_SIZES = tuple(range(7, 13))
DEDUP_EXTRA_EDGES = 7
DEDUP_COPIES = 63


def certify(seed: int) -> list[Item]:
    rng = random.Random(f"certify/{seed}")
    items = []
    for n in CERTIFY_SPARSE:
        items.append(Item(f"sparse-{n}", "construct", n,
                          triangle_free(n, 3 * n // 2, rng)))
    for n in CERTIFY_DENSE:
        items.append(Item(f"dense-{n}", "construct", n,
                          triangle_free(n, 5 * n, rng)))
    for n in CERTIFY_PLANTED:
        k = rng.randrange(1, 4)
        items.append(Item(f"planted-{n}", "near-construct", n,
                          planted(n, 3 * n // 2, k, rng)))
    return items


def exact_sparse(seed: int) -> list[Item]:
    """Fixed structures under a seeded random relabelling.

    The search tree depends on the labelling, so each seed is a different
    input; keeping the structures fixed keeps the heavy upper tail of the
    node counts (and so item_tail_ms) comparable from seed to seed.
    """
    shapes = random.Random("exact-sparse/structures")
    rng = random.Random(f"exact-sparse/{seed}")
    items = []
    for i, n in enumerate(EXACT_SIZES):
        m = (13 * n) // 10
        while True:
            edges = triangle_free(n, m, shapes)
            if not has_closed_twins(n, edges):
                break
        items.append(Item(f"sparse-{n}-{i}", "exact", n, relabel(n, edges, rng)))
    return items


def dedup_sweep(seed: int) -> list[Item]:
    """Random relabellings of pairwise non-isomorphic bases, shuffled.

    Random bases are kept only when their invariant differs from every base
    so far, so the true class of each item is exactly its base. The (n, m)
    slots are fixed so that the mix of sizes does not depend on the seed.
    """
    rng = random.Random(f"dedup-sweep/{seed}")
    bases = [(tag, n, tuple(sorted(edges))) for tag, (n, edges, _) in CATALOG.items()]
    seen = {_invariant(n, e) for _, n, e in bases}
    for n in DEDUP_SIZES:
        for k in range(DEDUP_EXTRA_EDGES):
            while True:
                edges = triangle_free(n, n - 1 + k, rng)
                key = _invariant(n, edges)
                if max_degree(n, edges) >= 3 and key not in seen:
                    break
            seen.add(key)
            bases.append((f"R{n}.{k}", n, edges))
    items = [
        Item(f"{tag}#{c}", "dedup", n, relabel(n, edges, rng), tag)
        for tag, n, edges in bases
        for c in range(DEDUP_COPIES)
    ]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "certify": certify,
    "exact-sparse": exact_sparse,
    "dedup-sweep": dedup_sweep,
}


def serialize(n: int, edges) -> str:
    """The package's documented graph file format: "n m", then "u v" lines."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
