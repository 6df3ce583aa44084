"""Command-line front end: outputs, file formats, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import idcodes
import idcodes.cli
from idcodes import (
    BoundMissedError,
    ExactResult,
    Graph,
    GuaranteeError,
    all_family_ids,
    gamma_id_exact,
    load_graph,
    parse_graph,
    serialize_graph,
)
from idcodes.cli import main


def write_graph(tmp_path, name: str, g: Graph) -> str:
    p = tmp_path / name
    p.write_text(serialize_graph(g))
    return str(p)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_verify_identifying_code(tmp_path, capsys):
    gp = write_graph(tmp_path, "p5.graph", path_graph(5))
    cp = tmp_path / "c.code"
    cp.write_text("0 2 4\n")
    assert main(["verify", gp, "--code", str(cp)]) == 0
    out = capsys.readouterr().out
    assert "identifying code of size 3" in out
    assert "holds" in out


def test_verify_violations_and_exit_one(tmp_path, capsys):
    gp = write_graph(tmp_path, "k2.graph", Graph(2, [(0, 1)]))
    cp = tmp_path / "c.code"
    cp.write_text("0 1\n")
    assert main(["verify", gp, "--code", str(cp)]) == 1
    out = capsys.readouterr().out
    assert "unseparated 0 1" in out


def test_verify_code_file_with_a_non_integer_token(tmp_path, capsys):
    gp = write_graph(tmp_path, "p5.graph", path_graph(5))
    cp = tmp_path / "c.code"
    cp.write_text("0 2 x4\n")
    assert main(["verify", gp, "--code", str(cp)]) == 3
    assert "not a vertex id: 'x4'" in capsys.readouterr().err


def test_verify_code_out_of_range(tmp_path, capsys):
    gp = write_graph(tmp_path, "p3.graph", path_graph(3))
    cp = tmp_path / "c.code"
    cp.write_text("0 9\n")
    assert main(["verify", gp, "--code", str(cp)]) == 4


def test_exact_output(tmp_path, capsys):
    gp = write_graph(tmp_path, "p5.graph", path_graph(5))
    assert main(["exact", gp]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gamma 3"
    assert out[1].startswith("code ")
    assert out[3] == "optimal yes"


def test_exact_on_twins_exits_domain(tmp_path, capsys):
    gp = write_graph(tmp_path, "k2.graph", Graph(2, [(0, 1)]))
    assert main(["exact", gp]) == 4


def test_exact_out_of_budget_exits_5(tmp_path, capsys, monkeypatch):
    # One node proves no minimum on C12: the verb prints the greedy code
    # it holds, says it is not optimal, and exits 5.
    monkeypatch.setattr(
        idcodes.cli, "gamma_id_exact", lambda g: gamma_id_exact(g, node_budget=1)
    )
    gp = write_graph(tmp_path, "c12.graph", cycle_graph(12))
    assert main(["exact", gp]) == 5
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["nodes 1", "optimal no"]


def test_construct_certificate_file(tmp_path, capsys):
    gp = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    out = tmp_path / "c6.cert"
    assert main(["construct", gp, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("idcodes-certificate v7\n")
    assert "code-size 3" in text
    assert "verified yes" in text


def test_construct_rejects_triangles(tmp_path, capsys):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    gp = write_graph(tmp_path, "t.graph", g)
    assert main(["construct", gp]) == 4


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("3 1\nnot an edge\n")
    assert main(["construct", str(p)]) == 3
    assert main(["construct", str(tmp_path / "missing.graph")]) == 3


def test_unreadable_input_files_exit_parse_naming_the_file(tmp_path, capsys):
    # A non-ASCII byte, even in a comment, and a directory in place of a
    # file are unreadable input, for graph, code and deletion files alike.
    good = write_graph(tmp_path, "p5.graph", path_graph(5))
    accented = tmp_path / "accented.txt"
    accented.write_bytes("# caf\u00e9\n5 4\n0 1\n1 2\n2 3\n3 4\n".encode())
    folder = tmp_path / "folder.graph"
    folder.mkdir()
    for bad in (accented, folder):
        for argv, what in (
            (["construct", str(bad)], "graph"),
            (["verify", good, "--code", str(bad)], "code"),
            (["near-construct", good, str(bad)], "edge"),
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {what} file {bad}: ")


def test_unwritable_output_exits_parse(tmp_path, capsys):
    # Input files fail as GraphFormatError; an output file that cannot be
    # written is the one OSError left, and it keeps the same exit class.
    gp = write_graph(tmp_path, "p5.graph", path_graph(5))
    out = tmp_path / "missing" / "cert.txt"
    assert main(["construct", gp, "--out", str(out)]) == 3
    assert str(out) in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "nowhere.graph"])  # --code is required
    assert ei.value.code == 4


def test_near_construct_with_deletions_file(tmp_path, capsys):
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    gp = write_graph(tmp_path, "net.graph", g)
    dp = tmp_path / "dels.txt"
    dp.write_text("# the triangle edge\n0 1\n")
    out = tmp_path / "net.cert"
    assert main(["near-construct", gp, str(dp), "--out", str(out)]) == 0
    assert "CorollaryPatch" in out.read_text()
    # The pipeline reads an edge in either order.
    dp.write_text("1 0\n")
    flipped = tmp_path / "flipped.cert"
    assert main(["near-construct", gp, str(dp), "--out", str(flipped)]) == 0
    assert flipped.read_text() == out.read_text()


def test_family_stdout_and_directory(tmp_path, capsys):
    assert main(["family", "T3"]) == 0
    out = capsys.readouterr().out
    assert "T3" in out and "code " in out
    outdir = tmp_path / "fam"
    assert main(["family", "all", "--out", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.graph"))
    assert len(files) == 15
    manifest = (outdir / "manifest.tsv").read_text().splitlines()
    assert manifest[0] == "tag\tn\tm\tgamma\tcode"
    assert len(manifest) == 16
    # Every emitted pair re-verifies through the CLI.
    for gf in files:
        cf = gf.replace(".graph", ".code")
        code = main(
            ["verify", str(outdir / gf), "--code", str(outdir / cf)]
        )
        assert code == 0
        capsys.readouterr()


def test_family_confirms_the_catalog_gamma(capsys, monkeypatch):
    # Every entry's gamma is checked against gamma_id_exact on every call.
    seen = []

    def counting(g):
        seen.append(g.n)
        return gamma_id_exact(g)

    monkeypatch.setattr(idcodes.cli, "gamma_id_exact", counting)
    assert main(["family", "T3"]) == 0
    assert "T3\t10\t9\t7\t" in capsys.readouterr().out
    assert seen == [10]
    assert main(["family", "all"]) == 0
    assert len(seen) == 1 + len(all_family_ids())


def test_family_mismatch_exits_internal(monkeypatch, capsys):
    monkeypatch.setattr(
        idcodes.cli, "gamma_id_exact", lambda g: ExactResult(6, (), 0, True)
    )
    assert main(["family", "T3"]) == 70
    assert "T3: catalog gamma 7 != exact 6" in capsys.readouterr().err


def test_family_has_no_slow_option(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["family", "T3", "--slow"])
    assert ei.value.code == 4
    assert "unrecognized arguments: --slow" in capsys.readouterr().err


def test_family_unknown_tag():
    assert main(["family", "T99"]) == 4


def test_random_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    assert main(["random", "12", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["random", "12", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    g = load_graph(str(out1))
    assert g.n == 12
    assert parse_graph(serialize_graph(g)) == g


def test_random_to_stdout(capsys):
    assert main(["random", "8", "--seed", "1"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.n == 8


def test_report_over_directory(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "c6.graph").write_text(serialize_graph(cycle_graph(6)))
    (d / "p7.graph").write_text(serialize_graph(path_graph(7)))
    net = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    (d / "net.graph").write_text(serialize_graph(net))
    tsv = tmp_path / "table.tsv"
    assert main(["report", str(d), "--out", str(tsv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == [
        "file", "n", "m", "delta", "code_size", "bound_num", "bound_den",
        "slack", "gamma", "status",
    ]
    assert [line.split()[0] for line in out[1:]] == [
        "c6.graph", "net.graph", "p7.graph",
    ]
    assert all(line.split()[-1] == "ok" for line in out[1:])
    rows = tsv.read_text().splitlines()
    assert len(rows) == 4
    # gamma column filled at these sizes, slack never positive
    for row in rows[1:]:
        cols = row.split("\t")
        assert int(cols[7]) <= 0
        assert cols[8] != "-"


def test_report_error_row(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "c6.graph").write_text(serialize_graph(cycle_graph(6)))
    split = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    (d / "split.graph").write_text(serialize_graph(split))
    assert main(["report", str(d)]) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[-1]) for r in rows] == [
        ("c6.graph", "ok"),
        ("split.graph", "error:NotConnectedError"),
    ]
    assert rows[1][4:8] == ["-", "-", "-", "-"]


def test_report_malformed_file_row(tmp_path, capsys):
    # A file that does not parse gets its own row, with no n, m or delta,
    # and the rest of the batch is still reported.
    d = tmp_path / "batch"
    d.mkdir()
    (d / "bad.graph").write_text("4 3\n0 1\n1 x\n2 3\n")
    (d / "p4.graph").write_text(serialize_graph(path_graph(4)))
    assert main(["report", str(d)]) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0] == ["bad.graph", *["-"] * 8, "error:GraphFormatError"]
    assert (rows[1][0], rows[1][-1]) == ("p4.graph", "ok")


def test_report_unreadable_file_rows(tmp_path, capsys):
    # A graph file with a non-ASCII byte and a directory named like a graph
    # file each get an error row beside the good row, and the batch goes on.
    d = tmp_path / "batch"
    d.mkdir()
    (d / "accented.graph").write_bytes("# caf\u00e9\n1 0\n".encode())
    (d / "folder.graph").mkdir()
    (d / "p4.graph").write_text(serialize_graph(path_graph(4)))
    assert main(["report", str(d)]) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[:2] == [
        [name, *["-"] * 8, "error:GraphFormatError"]
        for name in ("accented.graph", "folder.graph")
    ]
    assert (rows[2][0], rows[2][-1]) == ("p4.graph", "ok")


def test_report_value_error_rows(tmp_path, capsys):
    # Too few vertices, and a triangle (maximum degree 2), are rejected with
    # a plain ValueError; each gets its own row and the batch goes on.
    d = tmp_path / "batch"
    d.mkdir()
    (d / "c6.graph").write_text(serialize_graph(cycle_graph(6)))
    (d / "k2.graph").write_text(serialize_graph(Graph(2, [(0, 1)])))
    (d / "k3.graph").write_text(serialize_graph(cycle_graph(3)))
    assert main(["report", str(d)]) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[-1]) for r in rows] == [
        ("c6.graph", "ok"),
        ("k2.graph", "error:ValueError"),
        ("k3.graph", "error:ValueError"),
    ]


def test_report_bound_missed_row(tmp_path, capsys, monkeypatch):
    def missed(g):
        raise BoundMissedError(tuple(range(g.n)), 9, 2, "forced")

    monkeypatch.setattr(idcodes.cli, "construct_triangle_free", missed)
    d = tmp_path / "batch"
    d.mkdir()
    (d / "p6.graph").write_text(serialize_graph(path_graph(6)))
    assert main(["report", str(d)]) == 2
    row = capsys.readouterr().out.splitlines()[1].split()
    # code_size, bound_num, bound_den, slack (2*6 - 9), gamma, status
    assert row[4:] == ["6", "9", "2", "3", "4", "bound-missed"]


def test_report_leaves_gamma_out_when_the_search_is_not_optimal(
    tmp_path, capsys, monkeypatch
):
    # A search cut off by its budget returns its best code, not gamma.
    monkeypatch.setattr(
        idcodes.cli, "gamma_id_exact", lambda g: ExactResult(3, (0, 2, 4), 9, False)
    )
    d = tmp_path / "batch"
    d.mkdir()
    (d / "p6.graph").write_text(serialize_graph(path_graph(6)))
    assert main(["report", str(d), "--slow"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert (row[0], row[8], row[9]) == ("p6.graph", "-", "ok")


@pytest.mark.parametrize(
    "error, exit_code",
    [
        (BoundMissedError((0, 1, 2), 9, 2, "forced"), 2),
        (GuaranteeError("forced"), 70),
    ],
)
def test_outcome_class_sets_the_exit_code(
    tmp_path, capsys, monkeypatch, error, exit_code
):
    def raising(g):
        raise error

    monkeypatch.setattr(idcodes.cli, "construct_triangle_free", raising)
    gp = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    assert main(["construct", gp]) == exit_code
    assert capsys.readouterr().err.startswith("error: ")


def test_fallback_option_is_gone(tmp_path, capsys):
    gp = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    with pytest.raises(SystemExit) as ei:
        main(["construct", gp, "--fallback", "3"])
    assert ei.value.code == 4
    assert "unrecognized arguments: --fallback" in capsys.readouterr().err


def test_report_empty_directory(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["report", str(d)]) == 0


def test_console_entry_point(tmp_path):
    gp = write_graph(tmp_path, "p5.graph", path_graph(5))
    proc = subprocess.run(
        [sys.executable, "-m", "idcodes.cli", "exact", gp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma 3")


def test_consecutive_calls_share_no_options(tmp_path, capsys):
    # The parser is built once per process; each call still starts from
    # the defaults.
    gp = write_graph(tmp_path, "c6.graph", cycle_graph(6))
    out = tmp_path / "c6.cert"
    assert main(["construct", gp, "--out", str(out)]) == 0
    assert main(["random", "9", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", gp]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["random", "9"]) == 0
    default_seed = capsys.readouterr().out
    assert main(["random", "9", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default_seed != first


def test_broken_guarantee_exits_internal_under_optimize(tmp_path):
    # The triangle 0-1-2 with one pendant on each corner; restoring the
    # deleted edge (0, 1) is made to report five damaged vertices.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    gp = write_graph(tmp_path, "net.graph", g)
    script = (
        "import sys\n"
        "from idcodes.checks import SignatureTable\n"
        "from idcodes.cli import main\n"
        "assert False, 'asserts are live'\n"
        "SignatureTable.restore_edge = lambda self, u, v: ((0, 1), (2, 3), (3, 4))\n"
        "sys.exit(main(['near-construct', sys.argv[1]]))\n"
    )
    src = str(Path(idcodes.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, gp],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 70, proc.stderr
    assert proc.stderr.startswith("error: edge (0, 1) damaged 5 new vertices")


PRISM = Graph(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
)
TRIANGLE_NET = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize(
    "g, code, extra, line",
    [
        # Triangles: the near bound, t = |triangle_deletion_set| (2 and 1).
        (PRISM, "0 1 3 4", [], "bound 3*4 <= 37: holds (slack -25)"),
        (TRIANGLE_NET, "0 1 3 5", [], "bound 3*4 <= 25: holds (slack -13)"),
        # An explicit delta takes the plain degree form at that value.
        (PRISM, "0 1 3 4", ["--delta", "4"], "bound 4*4 <= 18: holds (slack -2)"),
        (TRIANGLE_NET, "0 1 3 5", ["--delta", "4"],
         "bound 4*4 <= 18: holds (slack -2)"),
        # P4 carries the family bound unless delta is given.
        (path_graph(4), "0 1 2", [], "bound 3*3 <= 9: holds (slack 0)"),
        (path_graph(4), "0 1 2", ["--delta", "2"],
         "bound 2*3 <= 4: FAILS (slack 2)"),
        # An edgeless graph has no bound at its maximum degree 0.
        (Graph(1, []), "0", [], "bound none: maximum degree 0"),
        (Graph(3, []), "0 1 2", [], "bound none: maximum degree 0"),
    ],
)
def test_verify_bound_line(tmp_path, capsys, g, code, extra, line):
    gp = write_graph(tmp_path, "g.graph", g)
    cp = tmp_path / "c.code"
    cp.write_text(code + "\n")
    assert main(["verify", gp, "--code", str(cp), *extra]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.parametrize(
    "text, where",
    [
        ("# x\n0 1\n\n1 2 3\n", "line 4:"),
        ("0 1\nzero 2\n", "line 2:"),
        ("0 1\n7\n", "line 2:"),
    ],
)
def test_bad_deletions_file_exits_parse(tmp_path, capsys, text, where):
    gp = write_graph(tmp_path, "net.graph", TRIANGLE_NET)
    dp = tmp_path / "dels.txt"
    dp.write_text(text)
    assert main(["near-construct", gp, str(dp)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {where} ")


def test_deletion_of_a_non_edge_exits_domain(tmp_path, capsys):
    gp = write_graph(tmp_path, "net.graph", TRIANGLE_NET)
    dp = tmp_path / "dels.txt"
    dp.write_text("0 1\n4 3\n")
    assert main(["near-construct", gp, str(dp)]) == 4
    err = capsys.readouterr().err
    assert err == "error: deletion (3, 4) is not an edge of the graph\n"


def test_missing_deletions_file_exits_parse(tmp_path, capsys):
    gp = write_graph(tmp_path, "net.graph", TRIANGLE_NET)
    missing = tmp_path / "missing.txt"
    assert main(["near-construct", gp, str(missing)]) == 3
    assert f"cannot read edge file {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "-2"])
def test_verify_rejects_a_degree_below_one(tmp_path, capsys, delta):
    gp = write_graph(tmp_path, "p3.graph", path_graph(3))
    cp = tmp_path / "c.code"
    cp.write_text("0 1\n")
    assert main(["verify", gp, "--code", str(cp), "--delta", delta]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bound needs a degree of at least 1, got {delta}\n"


def test_verify_out_of_range_message_comes_from_checks(tmp_path, capsys):
    gp = write_graph(tmp_path, "p3.graph", path_graph(3))
    cp = tmp_path / "c.code"
    cp.write_text("0 9\n")
    assert main(["verify", gp, "--code", str(cp)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: code vertex 9 out of range for n=3\n"
