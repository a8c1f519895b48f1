"""List the statements of lacuna's functions that the benchmark traffic never runs.

Usage::

    python3 tools/reached_lines.py CHECKOUT SEED

CHECKOUT is a lacuna source tree.  The script runs the traffic of
``tools/report_digests.py`` on it under ``sys.settrace``: every classify
case of the exact_generic and exact_circle workloads at SEED, census
included, with the report rendered as JSON and text, and every plusdim job
of the corpus.  It then prints one line per statement inside a function of
``CHECKOUT/src/lacuna`` that no line event reached::

    <file>:<line>: <function>: <first line of the statement>

and last a count.  A statement counts as reached when any of its own lines
runs: all of a simple statement's lines, the header lines of a compound
one.  Nothing is written to the checkout: ``perfbench.cases`` is only
imported, and no bytecode is cached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import report_digests  # noqa: E402  (the sibling script, on sys.path[0])

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _own_statements(node: ast.AST):
    """Statements of node's body at any depth, short of nested definitions'
    bodies (a nested ``def`` statement itself runs in node)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        if not isinstance(child, _DEFS):
            yield from _own_statements(child)


def _statements(path: Path):
    """(function, first line, last own line, source line) for each statement
    inside a function of the file; docstrings and global declarations,
    which compile to no code, are left out."""
    lines = path.read_text().splitlines()
    for name, func in _functions(ast.parse("\n".join(lines))):
        head = func.body[0]
        for stmt in _own_statements(func):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                stmt is head and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            ):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            body = getattr(stmt, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
            yield name, first, max(first, last), lines[stmt.lineno - 1].strip()


def _tracer(files: set[str], hits: set[tuple[str, int]]):
    """A sys.settrace hook that records (file, line) of every line event in files."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return call


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/reached_lines.py CHECKOUT SEED", file=sys.stderr)
        return 1
    root = Path(argv[0]).resolve()
    paths = sorted((root / "src" / "lacuna").glob("*.py"))
    hits: set[tuple[str, int]] = set()
    sys.settrace(_tracer({str(p) for p in paths}, hits))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            report_digests.main([str(root), argv[1]])
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in paths:
        for name, first, last, text in _statements(path):
            total += 1
            if not any((str(path), line) in hits for line in range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(root)}:{first}: {name}: {text}")
    print(f"{missed} of {total} statements inside functions not reached")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
