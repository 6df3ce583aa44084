"""Independent checks of the package's outputs.

Nothing here imports ``idcodes``. Codes are re-verified with plain closed
neighbourhood sets, certificate text is parsed from its documented format,
bound forms are recomputed from n, the maximum degree and the deletion
count, and claimed minimum code sizes are confirmed with HiGHS through
``scipy.optimize.milp`` by proving that no smaller code exists.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from corpus import has_triangle, max_degree, serialize


def closed_neighbourhoods(n: int, edges) -> list[set[int]]:
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    return closed


def identifies(n: int, edges, code) -> bool:
    """Every vertex sees a non-empty subset of the code, all subsets distinct."""
    cs = set(code)
    if not cs <= set(range(n)):
        return False
    sigs = [frozenset(s & cs) for s in closed_neighbourhoods(n, edges)]
    return all(sigs) and len(set(sigs)) == n


def unseparated(n: int, edges, code) -> set[tuple[int, int]]:
    """Vertex pairs u < v whose closed neighbourhoods meet the code alike."""
    cs = set(code)
    groups: dict[frozenset, list[int]] = {}
    for v, s in enumerate(closed_neighbourhoods(n, edges)):
        groups.setdefault(frozenset(s & cs), []).append(v)
    return {(a, b) for vs in groups.values() for i, a in enumerate(vs) for b in vs[i + 1:]}


def degree_bound(n: int, delta: int, member: bool) -> tuple[int, int]:
    """(num, den) of the triangle-free certificate bound den * |C| <= num.

    (delta - 1) * n, plus 1 for an exceptional-family member (which carries
    the degree-3 form even when delta is 2); n + 3 over 2 for delta = 2.
    """
    if member:
        d = max(delta, 3)
        return ((d - 1) * n + 1, d)
    if delta == 2:
        return (n + 3, 2)
    return ((delta - 1) * n, delta)


def patched_bound(n: int, delta: int, t: int) -> tuple[int, int]:
    """(num, den) of the triangle-deletion bound with t deleted edges."""
    return ((delta - 1) * n + 4 * t * delta + 1, delta)


def is_family_member(n: int, delta: int, gamma: int) -> bool:
    """The exceptional family is exactly the connected triangle-free graphs
    meeting d * gamma = (d - 1) * n + 1 with d = max(delta, 3)."""
    d = max(delta, 3)
    return d * gamma == (d - 1) * n + 1


@dataclass(frozen=True)
class ParsedCertificate:
    input_hash: str
    n: int
    delta: int
    family: str
    bound: tuple[int, int]
    code: tuple[int, ...]
    verified: bool
    trace: tuple[tuple[str, str], ...]


_STEP = re.compile(r"  (\d+) (\S+)(?: (.*))?")


def parse_certificate(text: str) -> ParsedCertificate:
    """Parse the line-oriented certificate block; ValueError when malformed."""
    lines = text.splitlines()
    if len(lines) < 10 or not lines[0].startswith("idcodes-certificate "):
        raise ValueError("not a certificate")
    fields = {}
    for line in lines[1:10]:
        key, _, value = line.partition(" ")
        fields[key] = value
    num, den = (int(x) for x in fields["bound"].split("/"))
    code = tuple(int(x) for x in fields["code"].split())
    if int(fields["code-size"]) != len(code):
        raise ValueError("code-size disagrees with the code line")
    steps = []
    for i, line in enumerate(lines[10:]):
        m = _STEP.fullmatch(line)
        if m is None or int(m.group(1)) != i:
            raise ValueError(f"bad trace line {line!r}")
        steps.append((m.group(2), m.group(3) or ""))
    if len(steps) != int(fields["trace"]):
        raise ValueError("trace count disagrees with the trace lines")
    return ParsedCertificate(
        input_hash=fields["input-hash"],
        n=int(fields["n"]),
        delta=int(fields["delta"]),
        family=fields["family"],
        bound=(num, den),
        code=code,
        verified=fields["verified"] == "yes",
        trace=tuple(steps),
    )


_RESTORED = re.compile(r"restored \((\d+),(\d+)\), new vertices \[(.*)\]")


def restore_steps(trace) -> list[tuple[tuple[int, int], list[int]]]:
    """The restore steps of a triangle-deletion trace, in order: each
    deleted edge and the newly damaged vertices listed for it."""
    return [
        ((int(m.group(1)), int(m.group(2))),
         [int(x) for x in m.group(3).split(",") if x.strip()])
        for label, detail in trace
        if label == "CorollaryPatch" and (m := _RESTORED.fullmatch(detail))
    ]


def check_damage(n: int, rest, base: ParsedCertificate, trace) -> list[str]:
    """Replay the restore steps of a triangle-deletion certificate.

    base is the certificate of the triangle-free graph left by the deletion
    (edges rest), which the trace must continue. Starting from its code,
    each deleted edge is put back in order; the vertices of pairs that
    become unseparated, minus those already damaged, must be the ones the
    trace lists, and at most four.
    """
    problems = []
    if tuple(trace[:len(base.trace)]) != base.trace:
        problems.append("trace does not continue the base construction")
    if not identifies(n, rest, base.code):
        problems.append("base code does not identify the triangle-free graph")
    cur = list(rest)
    prev = unseparated(n, cur, base.code)
    damaged: set[int] = set()
    for e, fresh_listed in restore_steps(trace):
        cur.append(e)
        now = unseparated(n, cur, base.code)
        fresh = sorted({x for pair in now - prev for x in pair} - damaged)
        if fresh != fresh_listed:
            problems.append(f"edge {e} damages {fresh}, trace lists {fresh_listed}")
        if len(fresh) > 4:
            problems.append(f"edge {e} damages {len(fresh)} new vertices, above 4")
        damaged.update(fresh)
        prev = now
    return problems


def check_certificate(
    n: int, edges, text: str, near: bool, member: bool = False,
    base: ParsedCertificate | None = None,
) -> tuple[ParsedCertificate, list[str]]:
    """Re-check a certificate against its graph; returns it and the list of
    problems found (empty when it holds).

    For the triangle-deletion pipeline the deleted edges are read from the
    trace's restore steps; they must be edges whose removal leaves no
    triangle, and ``check_damage`` replays their restoration against base,
    the certificate of the graph the deletion leaves.
    """
    cert = parse_certificate(text)
    problems = []
    delta = max_degree(n, edges)
    if cert.input_hash != hashlib.sha256(serialize(n, edges).encode("ascii")).hexdigest():
        problems.append("input hash")
    if cert.n != n or cert.delta != delta:
        problems.append("n or delta")
    if not cert.verified:
        problems.append("verified no")
    if not identifies(n, edges, cert.code):
        problems.append("code does not identify")
    if near:
        restored = [e for e, _ in restore_steps(cert.trace)]
        edge_set = set(edges)
        rest = sorted(edge_set - set(restored))
        if len(set(restored)) != len(restored) or not set(restored) <= edge_set:
            problems.append("deleted edges")
        elif has_triangle(n, rest):
            problems.append("deletion set leaves a triangle")
        elif base is None:
            problems.append("no base certificate to replay the restore steps on")
        else:
            problems += check_damage(n, rest, base, cert.trace)
            if not set(base.code) <= set(cert.code):
                problems.append("code drops vertices of the base code")
        expected = patched_bound(n, delta, len(restored))
    else:
        expected = degree_bound(n, delta, member)
        if (cert.family != "-") != member:
            problems.append("family tag")
    if cert.bound != expected:
        problems.append(f"bound {cert.bound} != {expected}")
    if cert.bound[1] * len(cert.code) > cert.bound[0]:
        problems.append("bound missed")
    return cert, problems


def check_exact(text: str, n: int, edges) -> tuple[int, list[str]]:
    """The size claimed by an exact answer ("gamma", "code", "optimal"
    lines) and the problems found with it; the size must be the minimum."""
    try:
        fields = dict(line.split(" ", 1) for line in text.splitlines())
        size = int(fields["gamma"])
        code = [int(x) for x in fields["code"].split()]
    except (ValueError, KeyError) as e:
        return 0, [f"unreadable exact answer: {e}"]
    problems = []
    if fields.get("optimal") != "yes":
        problems.append("not optimal")
    if size != len(code) or not identifies(n, edges, code):
        problems.append("code does not identify or has the wrong size")
    elif not no_smaller_code(n, edges, size):
        problems.append(f"HiGHS finds an identifying code below {size}")
    return size, problems


def check_mapping(n: int, src_edges, dst_edges, mapping: dict[int, int]) -> bool:
    """mapping is a bijection of 0..n-1 carrying src's edges onto dst's."""
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return False
    dst = set(dst_edges)
    return len(src_edges) == len(dst) and all(
        (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) in dst
        for u, v in src_edges
    )


def no_smaller_code(n: int, edges, size: int) -> bool:
    """True when HiGHS proves that no identifying code has fewer than size
    vertices.

    One domination row per vertex and one separation row per pair whose
    closed neighbourhoods meet (pairs further apart are separated by
    domination alone), plus the row |C| <= size - 1.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    closed = closed_neighbourhoods(n, edges)
    rows = [sorted(s) for s in closed]
    for u in range(n):
        for v in range(u + 1, n):
            if closed[u] & closed[v]:
                rows.append(sorted(closed[u] ^ closed[v]))
    cols = [w for row in rows for w in row]
    row_ids = [i for i, row in enumerate(rows) for _ in row]
    a = csr_array((np.ones(len(cols)), (row_ids, cols)), shape=(len(rows), n))
    res = milp(
        c=np.zeros(n),
        constraints=[LinearConstraint(a, lb=1, ub=np.inf),
                     LinearConstraint(np.ones((1, n)), lb=0, ub=size - 1)],
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return True
    if res.status == 0:
        return False
    raise RuntimeError(f"HiGHS did not decide: {res.message}")
