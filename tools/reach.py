"""List the function-body statements of ``src/sacekit`` that a pytest run never reaches.

Usage, from the root of a checkout::

    python3 tools/reach.py [pytest arguments ...]

for example ``python3 tools/reach.py -q -p no:cacheprovider tests
--ignore=tests/test_acceptance.py``. The arguments go to ``pytest.main``
unchanged, and pytest runs in this process with ``src`` first on
``sys.path``, under a standard-library ``sys.settrace`` line tracer (also
set for new threads) that records the lines run in each ``src/sacekit``
module; no other frame is traced line by line.

The statements are read from each module's syntax tree: every statement
inside a function or method body, nested ones included, apart from the
docstring and ``global``/``nonlocal``, which run no code. A statement
counts as reached if any of its lines ran, so a condition written over
several lines, such as ``if (`` ... ``):``, is not reported when only one
of its lines is traced, and a compound statement whose body ran is reached.
Only the outermost unreached statements are listed, one per line as
``module.py:first[-last]`` and the statement's first source line; a
function none of whose statements ran is listed once, by its name.

Runs in a subprocess are not traced, so the CLI tests that start
``python -m sacekit`` count for nothing here; ``cli.main`` called in
process does. The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sacekit")


def blocks(stmt):
    """The statement lists nested in ``stmt``; a function's without its docstring."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body]
    nested = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
    nested += [clause.body for clause in getattr(stmt, "handlers", [])]
    return nested + [case.body for case in getattr(stmt, "cases", [])]


def function_statements(tree):
    """{function: [(statement, enclosing statement or None), ...]} of a module.

    The keys are the functions and methods not nested in another function;
    a nested function's statements belong to the function it is defined in,
    enclosed by its ``def``.
    """
    found = {}

    def walk(body, function, parent):
        for stmt in body:
            if function is None and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[stmt] = []
                walk(blocks(stmt)[0], stmt, None)
                continue
            if function is not None and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                found[function].append((stmt, parent))
            for block in blocks(stmt):
                walk(block, function, stmt if function is not None else None)

    walk(tree.body, None, None)
    return found


def span(stmt):
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", []))])
    return first, stmt.end_lineno


def unreached(path, ran):
    """(first, last, text) of each outermost unreached statement in ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    out = []
    for function, statements in function_statements(ast.parse(source)).items():
        missed = {
            stmt for stmt, _ in statements
            if not any(line in ran for line in range(span(stmt)[0], span(stmt)[1] + 1))
        }
        if not missed:
            continue
        if len(missed) == len(statements):
            first, last = span(statements[0][0])[0], function.end_lineno
            out.append((first, last, f"{function.name}: no statement ran"))
            continue
        for stmt, parent in statements:
            if stmt in missed and parent not in missed:
                first, last = span(stmt)
                out.append((first, last, lines[first - 1].strip()))
    return sorted(out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modules = {
        os.path.realpath(os.path.join(PACKAGE, name)): set()
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py")
    }
    lookup = {}

    def local(frame, event, arg):
        if event == "line":
            lookup[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lookup:
            lookup[name] = modules.get(os.path.realpath(name))
        return local if lookup[name] is not None else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print("function-body statements of src/sacekit that no traced test reached:")
    for path, ran in modules.items():
        for first, last, text in unreached(path, ran):
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"{os.path.basename(path)}:{where}  {text}")
            total += 1
    print(f"{total} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
