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
trees and how many do; which minimum code each returns may differ. pytest
does not collect this file, since its name does not start with test_.

The exit status is 1 when an input raises only in the new tree or a
gamma_id_exact size differs, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GRID = [
    (n, n - 1 + k, s) for n in range(5, 41) for k in range(8) for s in range(12)
]

# Reads [n, edges] pairs as JSON on stdin and writes, per input, its
# certificate text and its gamma_id_exact size, each replaced by "!" and
# the exception's type and message when it raises.
_BUILD = """
import json, sys
from idcodes import Graph, construct_triangle_free, gamma_id_exact, serialize_certificate
def attempt(build):
    try:
        return build()
    except Exception as exc:
        return f"!{type(exc).__name__}: {exc}"
out = []
for n, edges in json.load(sys.stdin):
    g = Graph(n, edges)
    out.append((
        attempt(lambda: serialize_certificate(construct_triangle_free(g))),
        attempt(lambda: gamma_id_exact(g).size),
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


def _size(text: str) -> int:
    line = next(x for x in text.splitlines() if x.startswith("code-size "))
    return int(line.split()[1])


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_root = Path(argv[0]).resolve()
    new_root = Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    graphs = _run(new_root, _GRAPHS, GRID)
    old = _run(old_root, _BUILD, graphs)
    new = _run(new_root, _BUILD, graphs)
    counts = dict.fromkeys(("identical", "same-size", "grew", "shrank"), 0)
    change = 0
    new_only = 0
    gammas = 0
    for args, (a, gamma_a), (b, gamma_b) in zip(GRID, old, new):
        if gamma_a != gamma_b:
            gammas += 1
            print(f"gamma {args}: old {gamma_a}; new {gamma_b}")
        if a.startswith("!") or b.startswith("!"):
            if b.startswith("!") and not a.startswith("!"):
                new_only += 1
            print(f"raises {args}: old {a[1:] if a[0] == '!' else '-'}; "
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
    print(f"inputs {len(GRID)}: " + ", ".join(f"{k} {v}" for k, v in counts.items())
          + f"; code size change {change:+d}")
    print(f"gamma_id_exact sizes: {gammas} of {len(GRID)} differ")
    return int(new_only > 0 or gammas > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
