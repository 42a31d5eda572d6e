"""List the statements of `src/boolmin` that a pytest run never executes.

    python3 tools/line_coverage.py                 # the whole suite
    python3 tools/line_coverage.py tests/test_post.py -k closure

The arguments are passed to pytest, which runs in this process under
`sys.settrace`.  Only frames of the package's modules are traced line by
line; every other frame costs one call of the global trace function, so the
whole suite runs several times slower than untraced.  Run it from the root
of a checkout: the package is imported from `src/`.

For each module with statements never executed, one line gives the module
and their count, and one line per statement gives its path, line and first
source line.  A last line gives the total and how many of them are `raise`
statements.  Docstrings and `def`/`class` lines are not statements here.
A compound statement counts as executed when its header runs (the lines up
to its first body statement); `try:`, `global` and `nonlocal` compile to no
code of their own and are left out.  Code that only runs in a subprocess a
test starts (`python -m boolmin.cli`, the demos) is not seen, so it is
listed as never executed.  The exit code is pytest's.
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "boolmin")

_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global, ast.Nonlocal)


def statement_spans(source: str) -> list[tuple[int, int, ast.stmt]]:
    """(first line, last line, node) of each statement counted, in source
    order.  A compound statement spans its header only."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant, which compiles to nothing
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last), node))
    return sorted(spans, key=lambda span: span[0])


def trace_lines(run, paths: list[str]) -> tuple[object, dict[str, set[int]]]:
    """Call `run()` with every line event in the given files recorded;
    returns its result and the lines hit per file."""
    hits = {os.path.realpath(p): set() for p in paths}
    tracers: dict[str, object] = {}  # file name as compiled -> local tracer or None

    def tracer_for(filename: str):
        lines = hits.get(os.path.realpath(filename))
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename, tracers)
        if local is tracers:
            local = tracers[filename] = tracer_for(filename)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def report(hits: dict[str, set[int]]) -> list[str]:
    """The report lines for the recorded hits (see the module docstring)."""
    out = []
    total = raises = 0
    for path in sorted(hits):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        missed = [
            (first, node) for first, last, node in statement_spans(source)
            if hits[path].isdisjoint(range(first, last + 1))
        ]
        if not missed:
            continue
        name = os.path.relpath(path, ROOT)
        out.append(f"{name}: {len(missed)} never executed")
        for first, node in missed:
            out.append(f"  {name}:{first}: {lines[first - 1].strip()}")
        total += len(missed)
        raises += sum(isinstance(node, ast.Raise) for _, node in missed)
    out.append(f"total={total} raise={raises}")
    return out


def main(argv: list[str] | None = None) -> int:
    import pytest

    sys.path.insert(0, SRC)
    paths = sorted(
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    args = list(sys.argv[1:] if argv is None else argv)
    code, hits = trace_lines(lambda: pytest.main(args), paths)
    print("\n".join(report(hits)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
