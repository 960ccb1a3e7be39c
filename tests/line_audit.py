"""Line audit: run tier-1 in-process under a line tracer and print every
indented `src/` line that never ran, as `path:line: text`.

    python tests/line_audit.py [pytest args]

It exits with pytest's code when a test fails, else 1 if it listed any
line, else 0.

Extra arguments go to pytest after the tier-1 ones, so `-k "not
criterion_7"` leaves out the longest test. The tracer is `sys.settrace`
for the calling thread plus `threading.settrace` for the device threads;
code run in a subprocess (the CLI tests that spawn `python -m bigbatch`)
is not seen. A line is the first line of a statement or `except` clause
inside a function or class body; docstrings are left out, and so is
module-level code, which every import runs. The file's name does not match
`test_*`, so tier-1 does not collect it; `test_imports.py` tests the
collector on a snippet.
"""

from __future__ import annotations

import ast
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bigbatch"


def statement_lines(source: str) -> set:
    """First lines of the indented statements and `except` clauses of
    `source`, leaving out docstrings and `global`/`nonlocal`, which run no code."""
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.stmt, ast.ExceptHandler)) and node.col_offset > 0
            and not isinstance(node, (ast.Global, ast.Nonlocal))
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))}


class Collector:
    """The lines that run in `files`, in every thread, while `tracing()` is on."""

    def __init__(self, files):
        self.hits = {Path(f).resolve(): set() for f in files}
        self._by_name = {}  # a code object's file name -> its hit set, or None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._by_name:
            self._by_name[name] = self.hits.get(Path(name).resolve())
        hits = self._by_name[name]
        if hits is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    @contextmanager
    def tracing(self):
        before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(before[0])
            threading.settrace(before[1])

    def missed(self, root: Path) -> list:
        """`path:line: text` for each indented statement line that never ran."""
        out = []
        for path, hits in sorted(self.hits.items()):
            source = path.read_text()
            text = source.splitlines()
            for n in sorted(statement_lines(source) - hits):
                out.append(f"{path.relative_to(root)}:{n}: {text[n - 1].strip()}")
        return out


def main(argv: list) -> int:
    sys.path.insert(0, str(SRC.parent))  # the package the collector watches
    collector = Collector(sorted(SRC.glob("*.py")))
    with collector.tracing():
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                            str(ROOT / "bench"), *argv])
    lines = collector.missed(ROOT)
    print(*lines, sep="\n")
    print(f"{len(lines)} indented src/ lines never ran")
    return int(code) or int(bool(lines))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
