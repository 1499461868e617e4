"""The statements of `src/` that no test executes.

Runs the tier-1 suite in process under a `sys.settrace` line tracer and then
lists, per file, each statement of `src/cartierlab` whose lines never ran.
A statement counts as run when any line of its header ran: the whole of a
simple statement, or the lines before the body of a compound one (its
decorators included). Docstrings are left out, as are statements that
compile to no code and every statement on or under a line that carries
`# pragma: no cover`. Only the standard library is needed besides pytest;
calls made in child processes are not seen. It takes about three times as
long as the suite.

Run it from a checkout; it imports the package from that checkout's `src/`:

    python tests/line_trace.py [PYTEST ARGS ...]

The arguments, `-q -p no:cacheprovider tests` by default, go to pytest. The
last line is the total count. The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "cartierlab") + os.sep
PRAGMA = "# pragma: no cover"


def trace_suite(args: list[str]) -> tuple[int, set]:
    """Run pytest with `args` under the tracer: (exit code, {(file, line)})."""
    import pytest

    hits: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.path.insert(0, SRC)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def code_lines(source: str, path: str) -> set:
    """Every line that the compiled file can report as run."""
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _is_docstring(node, parent) -> bool:
    body = getattr(parent, "body", None)
    return (
        bool(body) and body[0] is node and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def missed_statements(path: str, ran: set) -> list[int]:
    """First lines of the statements of one file whose header never ran."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    text_lines = source.splitlines()
    compiled = code_lines(source, path)
    missed = []

    def visit(parent):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, None) or ():
                if not isinstance(node, ast.stmt):
                    visit(node)  # except handlers and match cases hold statements
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                header = range(first, max(first, last) + 1)
                if any(PRAGMA in text_lines[i - 1] for i in header):
                    continue
                if not _is_docstring(node, parent):
                    lines = compiled.intersection(header)
                    if lines and lines.isdisjoint(ran):
                        missed.append(node.lineno)
                visit(node)

    visit(ast.parse(source, path))
    return sorted(missed)


def main(argv: list[str]) -> int:
    code, hits = trace_suite(argv or ["-q", "-p", "no:cacheprovider",
                                      os.path.join(ROOT, "tests")])
    ran: dict = {}
    for filename, line in hits:
        ran.setdefault(filename, set()).add(line)
    total = 0
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            missed = missed_statements(path, ran.get(path, set()))
            total += len(missed)
            if missed:
                print(f"{os.path.relpath(path, ROOT)} ({len(missed)}): "
                      + ", ".join(map(str, missed)))
    print(f"{total} statements of src/ not executed by the tests")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
