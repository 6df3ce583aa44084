"""Compare the certificates two source trees build for one seeded grid.

Run it by hand, naming the old tree (a checkout holding src/idcodes) and,
optionally, the new one, which defaults to the tree holding this script:

    python tests/cert_diff.py OLD_ROOT [NEW_ROOT]

The grid is random_triangle_free(n, n - 1 + k, s) for n = 5..40,
k = 0..7 and s = 0..11, 3,456 inputs, generated once by the new tree and
handed to both. Each tree builds construct_triangle_free's certificates
in a Python subprocess of its own, so the two packages never share a
process. The version line is left out of the comparison, since a change
that moves any certificate bumps it. The script prints how many
certificates are identical, differ at the same code size, grew or shrank,
with the summed change in code size (new minus old), and each input that
raises in either tree. Each tree also runs gamma_id_exact on every input,
and the script prints each input whose minimum size differs between the
trees and how many do; which minimum code each returns may differ.

A second section compares construct_near_triangle_free's certificates
the same way. Each grid input (n, m, s) gains 1 + s % 3 chords, non-edges
at distance 2 that each close a triangle: in turn, the first, the last
and again the first such non-edge, in lexicographic order, of the graph
with the chords so far. It keeps the most chords that leave maximum
degree 3 or more and no closed twins, and is skipped when no number
does. So the construction restores one, two or three deleted edges into
one signature table, and the section prints on how many inputs the new
tree's certificates delete each number of edges. pytest does not
collect this file, since its name does not start with test_.

The exit status is 1 when an input raises only in the new tree, in
either section, or a gamma_id_exact size differs, else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GRID = [
    (n, n - 1 + k, s) for n in range(5, 41) for k in range(8) for s in range(12)
]

# Reads [n, edges, near_edges] triples as JSON on stdin and writes, per
# input, its certificate text, its gamma_id_exact size and the
# near-triangle-free certificate of n and near_edges (null when
# near_edges is), each replaced by "!" and the exception's type and
# message when it raises.
_BUILD = """
import json, sys
from idcodes import (
    Graph, construct_near_triangle_free, construct_triangle_free,
    gamma_id_exact, serialize_certificate,
)
def attempt(build):
    try:
        return build()
    except Exception as exc:
        return f"!{type(exc).__name__}: {exc}"
out = []
for n, edges, near in json.load(sys.stdin):
    g = Graph(n, edges)
    out.append((
        attempt(lambda: serialize_certificate(construct_triangle_free(g))),
        attempt(lambda: gamma_id_exact(g).size),
        None if near is None else attempt(lambda: serialize_certificate(
            construct_near_triangle_free(Graph(n, near))
        )),
    ))
json.dump(out, sys.stdout)
"""

_GRAPHS = """
import json, sys
from idcodes import random_triangle_free
grid = json.load(sys.stdin)
json.dump([(g.n, g.edges) for g in (random_triangle_free(*a) for a in grid)], sys.stdout)
"""


def _run(root: Path, program: str, payload: object) -> list:
    done = subprocess.run(
        [sys.executable, "-c", program],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return json.loads(done.stdout)


def _near(n: int, edges: list[list[int]], chords: int) -> list[list[int]] | None:
    """edges plus the first, last and first again of the non-edges at
    distance 2 of the graph so far, up to `chords` of them: the most that
    leave maximum degree 3 or more and no closed twins, or None when no
    number of chords from one up does."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    added, best = [], None
    for i in range(chords):
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)
                if v not in adj[u] and not adj[u].isdisjoint(adj[v])]
        if not pool:
            break
        u, v = pool[-1] if i == 1 else pool[0]
        adj[u].add(v)
        adj[v].add(u)
        added.append([u, v])
        closed = {frozenset(a | {x}) for x, a in enumerate(adj)}
        if max(map(len, adj)) >= 3 and len(closed) == n:
            best = sorted([*map(list, edges), *added])
    return best


def _deleted(text: str) -> int:
    """The number of edges a near-triangle-free certificate deletes."""
    return int(re.search(r"CorollaryPatch deleted (\d+) edges", text)[1])


def _size(text: str) -> int:
    line = next(x for x in text.splitlines() if x.startswith("code-size "))
    return int(line.split()[1])


def _compare(name: str, grid: list, pairs: list) -> int:
    """Print the comparison of the (old, new) certificate pairs, one per
    grid input, and return how many inputs raise only in the new tree."""
    counts = dict.fromkeys(("identical", "same-size", "grew", "shrank"), 0)
    change = 0
    new_only = 0
    for args, (a, b) in zip(grid, pairs):
        if a.startswith("!") or b.startswith("!"):
            if b.startswith("!") and not a.startswith("!"):
                new_only += 1
            print(f"{name} raises {args}: old {a[1:] if a[0] == '!' else '-'}; "
                  f"new {b[1:] if b[0] == '!' else '-'}")
            continue
        delta = _size(b) - _size(a)
        change += delta
        if a.split("\n", 1)[1] == b.split("\n", 1)[1]:
            counts["identical"] += 1
        elif delta == 0:
            counts["same-size"] += 1
        else:
            counts["grew" if delta > 0 else "shrank"] += 1
    print(f"{name} inputs {len(grid)}: "
          + ", ".join(f"{k} {v}" for k, v in counts.items())
          + f"; code size change {change:+d}")
    return new_only


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_root = Path(argv[0]).resolve()
    new_root = Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    graphs = _run(new_root, _GRAPHS, GRID)
    payload = [
        (n, edges, _near(n, edges, 1 + s % 3))
        for (n, edges), (_, _, s) in zip(graphs, GRID)
    ]
    old = _run(old_root, _BUILD, payload)
    new = _run(new_root, _BUILD, payload)
    gammas = 0
    for args, (_, gamma_a, _), (_, gamma_b, _) in zip(GRID, old, new):
        if gamma_a != gamma_b:
            gammas += 1
            print(f"gamma {args}: old {gamma_a}; new {gamma_b}")
    new_only = _compare("triangle-free", GRID, [(a[0], b[0]) for a, b in zip(old, new)])
    near = [i for i, (_, _, edges) in enumerate(payload) if edges is not None]
    new_only += _compare(
        "near-triangle-free",
        [GRID[i] for i in near],
        [(old[i][2], new[i][2]) for i in near],
    )
    deleted = Counter(_deleted(new[i][2]) for i in near if new[i][2][0] != "!")
    print("near-triangle-free deletions (new tree): "
          + ", ".join(f"{t} edges {c}" for t, c in sorted(deleted.items())))
    print(f"gamma_id_exact sizes: {gammas} of {len(GRID)} differ")
    return int(new_only > 0 or gammas > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
