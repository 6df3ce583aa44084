"""Lines of src/idcodes that the tier-1 suite never runs.

Run it by hand from anywhere, with no options:

    python tests/line_trace.py

It runs the tier-1 suite (the tests directory with pytest's default
selection) in this process under sys.settrace, then prints, for each module
of src/idcodes, how many of its executable lines no test reached, and each
such line. A line's executable lines are those the compiled module's code
objects map instructions to (co_lines). A line marked "pragma: no cover",
and the block it opens, is left out. pytest does not collect this file,
since its name does not start with test_. Tracing makes the suite several
times slower, so a test with a wall-clock limit may fail here.

The exit status is pytest's when the suite fails, else 1 when any line is
unreached and 0 when every line is reached, so the status alone tells
whether the suite reaches all of src/idcodes.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idcodes"


def _code_lines(code: CodeType) -> set[int]:
    # A module's first instruction sits on line 0, which holds no source.
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _excluded(source: list[str]) -> set[int]:
    """The 1-based lines marked "pragma: no cover", with the blocks that
    marked lines ending in a colon open."""
    out: set[int] = set()
    i = 0
    while i < len(source):
        text = source[i]
        if "pragma: no cover" not in text:
            i += 1
            continue
        out.add(i + 1)
        indent = len(text) - len(text.lstrip())
        i += 1
        if text.split("#", 1)[0].rstrip().endswith(":"):
            while i < len(source) and (
                not source[i].strip()
                or len(source[i]) - len(source[i].lstrip()) > indent
            ):
                out.add(i + 1)
                i += 1
    return out


def _line_tracer(seen: set[int]):
    """A local trace function that records each line it sees run."""

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    return local


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(f): set() for f in files}
    local_tracers = {name: _line_tracer(seen) for name, seen in hits.items()}

    def tracer(frame, event, arg):
        return local_tracers.get(frame.f_code.co_filename)

    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # Tests that start a Python subprocess need the package on its path too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    total = unreached_total = 0
    for f in files:
        source = f.read_text().splitlines()
        lines = _code_lines(compile("\n".join(source), str(f), "exec"))
        lines -= _excluded(source)
        unreached = sorted(lines - hits[str(f)])
        total += len(lines)
        unreached_total += len(unreached)
        print(f"{f.name}: {len(unreached)} of {len(lines)} executable lines unreached")
        for line in unreached:
            print(f"  {line}: {source[line - 1].strip()}")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    return int(status) or int(unreached_total > 0)


if __name__ == "__main__":
    raise SystemExit(main())
