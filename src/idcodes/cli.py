"""Command-line front end.

Verbs:
    verify          check a code against a graph, print violations
    exact           minimum identifying code by branch and bound
    construct       certified code for a connected triangle-free graph
    near-construct  certified code via triangle deletion and patching
    family          emit exceptional-family members (graph + code + manifest)
    random          generate a seeded random triangle-free graph
    report          batch bound-compliance table over a directory

Exit codes (outcome class only, never timing):
    0   success (verify: the code identifies; construct: certified)
    1   verify found violations
    2   bound missed, or a report row failed
    3   unreadable input (parse error or missing file)
    4   domain error (disconnected, triangles, twins, bad options, ...)
    5   search budget exhausted before an answer
    70  internal error (including a broken construction guarantee)
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path

from .checks import violations
from .construct import (
    certified_bound,
    construct_near_triangle_free,
    construct_triangle_free,
    serialize_certificate,
    triangle_deletion_set,
)
from .errors import (
    BoundMissedError,
    GraphFormatError,
    GuaranteeError,
    IdCodeError,
    NotIdentifiableError,
    SearchBudgetError,
)
from .exact import gamma_id_exact
from .families import (
    FamilyId,
    all_family_ids,
    in_f_delta,
    make_family,
    random_triangle_free,
)
from .graphs import (
    Graph,
    _int_pairs,
    load_graph,
    serialize_graph,
    triangle_witness,
)

EXIT_OK = 0
EXIT_NOT_IDENTIFYING = 1
EXIT_BOUND_MISSED = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on the domain exit code."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise GraphFormatError(f"cannot read {what} file {path}: {e}") from e


def _read_code_file(path: str) -> tuple[int, ...]:
    out = []
    for tok in _read_text(path, "code").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise GraphFormatError(
                f"code file {path}: not a vertex id: {tok!r}"
            ) from None
    return tuple(sorted(set(out)))


def _read_deletions(path: str) -> tuple[tuple[int, int], ...]:
    text = _read_text(path, "edge")
    return tuple((min(u, v), max(u, v)) for _, u, v in _int_pairs(text))


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _bound_line(g: Graph, code: tuple[int, ...], delta: int | None) -> str:
    """The bound that construct or near-construct would certify for g, or
    the plain degree form (delta - 1) * n over delta at an explicit delta,
    applied to the code."""
    if delta is not None:
        if delta < 1:
            raise ValueError(f"bound needs a degree of at least 1, got {delta}")
        num, den = (delta - 1) * g.n, delta
    elif triangle_witness(g) is None:
        num, den = certified_bound(g, in_f_delta(g, max(g.max_degree(), 3)))
    else:
        num, den = certified_bound(g, t=len(triangle_deletion_set(g)))
    slack = den * len(code) - num
    word = "holds" if slack <= 0 else "FAILS"
    return f"bound {den}*{len(code)} <= {num}: {word} (slack {slack})"


def _cmd_verify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    code = _read_code_file(args.code)
    viols = violations(g, code)
    bound = _bound_line(g, code, args.delta)
    for v in viols:
        print(v)
    print(bound)
    if viols:
        print(f"not identifying: {len(viols)} violations")
        return EXIT_NOT_IDENTIFYING
    print(f"identifying code of size {len(code)}")
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    res = gamma_id_exact(g)
    print(f"gamma {res.size}")
    print("code " + " ".join(str(c) for c in res.code))
    print(f"nodes {res.nodes_explored}")
    print(f"optimal {'yes' if res.optimal else 'no'}")
    return EXIT_OK if res.optimal else EXIT_BUDGET


def _cmd_construct(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    cert = construct_triangle_free(g)
    _write_text(args.out, serialize_certificate(cert))
    return EXIT_OK


def _cmd_near_construct(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    deletions = (
        _read_deletions(args.deletions) if args.deletions is not None else None
    )
    cert = construct_near_triangle_free(g, deletions=deletions)
    _write_text(args.out, serialize_certificate(cert))
    return EXIT_OK


def _manifest_line(fid: FamilyId, g: Graph, code: tuple[int, ...], gamma: int) -> str:
    return (
        f"{fid}\t{g.n}\t{g.m}\t{gamma}\t" + " ".join(str(c) for c in code)
    )


def _cmd_family(args: argparse.Namespace) -> int:
    if args.tag.lower() == "all":
        tags = list(all_family_ids())
    else:
        tags = [FamilyId.parse(args.tag)]
    manifest: list[str] = []
    for fid in tags:
        entry = make_family(fid)
        if args.slow:
            res = gamma_id_exact(entry.graph)
            if res.size != entry.gamma:
                print(
                    f"{fid}: catalog gamma {entry.gamma} != exact {res.size}",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
        manifest.append(
            _manifest_line(fid, entry.graph, entry.code, entry.gamma)
        )
        if args.out is not None:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / f"{fid}.graph").write_text(serialize_graph(entry.graph))
            (outdir / f"{fid}.code").write_text(
                " ".join(str(c) for c in entry.code) + "\n"
            )
        else:
            print(f"# {fid}  n={entry.graph.n} gamma={entry.gamma}")
            sys.stdout.write(serialize_graph(entry.graph))
            print("code " + " ".join(str(c) for c in entry.code))
    header = "tag\tn\tm\tgamma\tcode\n"
    if args.out is not None:
        (Path(args.out) / "manifest.tsv").write_text(
            header + "\n".join(manifest) + "\n"
        )
    else:
        sys.stdout.write(header + "\n".join(manifest) + "\n")
    return EXIT_OK


def _cmd_random(args: argparse.Namespace) -> int:
    target = args.edges if args.edges is not None else 3 * args.n // 2
    g = random_triangle_free(args.n, target, seed=args.seed)
    _write_text(args.out, serialize_graph(g))
    return EXIT_OK


# report fills its gamma column up to this order unless --slow is given.
_REPORT_GAMMA_MAX_N = 16

_REPORT_COLUMNS = (
    "file",
    "n",
    "m",
    "delta",
    "code_size",
    "bound_num",
    "bound_den",
    "slack",
    "gamma",
    "status",
)


def _cmd_report(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.graph"))
    if not files:
        print(f"no *.graph files under {directory}", file=sys.stderr)
        return EXIT_OK
    rows: list[tuple[str, ...]] = []
    worst = EXIT_OK
    for f in files:
        try:
            g = load_graph(str(f))
        except GraphFormatError as e:
            rows.append((f.name,) + ("-",) * 8 + (f"error:{type(e).__name__}",))
            worst = EXIT_BOUND_MISSED
            continue
        size = bound_num = bound_den = slack = None
        status = "ok"
        try:
            if triangle_witness(g) is None:
                cert = construct_triangle_free(g)
            else:
                cert = construct_near_triangle_free(g)
            size = len(cert.code)
            bound_num, bound_den = cert.bound_num, cert.bound_den
            slack = bound_den * size - bound_num
        except BoundMissedError as e:
            size = len(e.code)
            bound_num, bound_den = e.bound_num, e.bound_den
            slack = bound_den * size - bound_num
            status = "bound-missed"
            worst = EXIT_BOUND_MISSED
        except (IdCodeError, ValueError) as e:
            status = f"error:{type(e).__name__}"
            worst = EXIT_BOUND_MISSED
        gamma: int | None = None
        if g.n <= _REPORT_GAMMA_MAX_N or args.slow:
            try:
                gamma = gamma_id_exact(g).size
            except (NotIdentifiableError, SearchBudgetError):
                gamma = None
        rows.append(
            (
                f.name,
                str(g.n),
                str(g.m),
                str(g.max_degree()),
                "-" if size is None else str(size),
                "-" if bound_num is None else str(bound_num),
                "-" if bound_den is None else str(bound_den),
                "-" if slack is None else str(slack),
                "-" if gamma is None else str(gamma),
                status,
            )
        )
    widths = [
        max(len(_REPORT_COLUMNS[i]), max(len(r[i]) for r in rows))
        for i in range(len(_REPORT_COLUMNS))
    ]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(_REPORT_COLUMNS))
    print(header.rstrip())
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    if args.out is not None:
        text = "\t".join(_REPORT_COLUMNS) + "\n"
        text += "\n".join("\t".join(r) for r in rows) + "\n"
        Path(args.out).write_text(text)
    return worst


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args returns a
    fresh namespace on every call, so reuse carries nothing over."""
    p = _Parser(
        prog="idcodes",
        description="identifying codes: verify, solve, construct, certify",
    )
    sub = p.add_subparsers(dest="verb", required=True, metavar="verb")

    sp = sub.add_parser("verify", parents=[], help="check a code against a graph")
    sp.add_argument("graph", help="graph file")
    sp.add_argument("--code", required=True, help="code file (vertex ids)")
    sp.add_argument(
        "--delta",
        type=int,
        default=None,
        help="degree to use in the bound line (default: max degree)",
    )
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("exact", help="minimum identifying code")
    sp.add_argument("graph", help="graph file")
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser("construct", help="certified triangle-free construction")
    sp.add_argument("graph", help="graph file")
    sp.add_argument("--out", default=None, help="certificate file (default stdout)")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser(
        "near-construct", help="certified construction via triangle deletion"
    )
    sp.add_argument("graph", help="graph file")
    sp.add_argument(
        "deletions",
        nargs="?",
        default=None,
        help="optional edge list to delete (one 'u v' per line)",
    )
    sp.add_argument("--out", default=None, help="certificate file (default stdout)")
    sp.set_defaults(func=_cmd_near_construct)

    sp = sub.add_parser("family", help="emit exceptional-family members")
    sp.add_argument("tag", help="member tag (T0..T11, P4, C4, C7, Star(d)) or 'all'")
    sp.add_argument("--out", default=None, help="directory for .graph/.code files")
    sp.add_argument(
        "--slow",
        action="store_true",
        help="confirm each catalog size with the exact solver",
    )
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("random", help="seeded random triangle-free graph")
    sp.add_argument("n", type=int, help="number of vertices")
    sp.add_argument(
        "--edges", type=int, default=None, help="target edge count (default 3n/2)"
    )
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.set_defaults(func=_cmd_random)

    sp = sub.add_parser("report", help="bound-compliance table for a directory")
    sp.add_argument("directory", help="directory scanned for *.graph files")
    sp.add_argument("--out", default=None, help="also write a TSV to this path")
    sp.add_argument(
        "--slow",
        action="store_true",
        help="compute the exact gamma column for every size",
    )
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BoundMissedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BOUND_MISSED
    except SearchBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except GuaranteeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (IdCodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except Exception:  # pragma: no cover - kept for scriptability
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
