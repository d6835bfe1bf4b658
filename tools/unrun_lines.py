"""Function-body statements of ``src/tdual`` that the Tier-1 suite never runs.

Usage:
    python3 tools/unrun_lines.py [PYTEST_ARG ...]

The script runs the Tier-1 suite in this process: ``pytest -q
--continue-on-collection-errors tests`` with hypothesis's seed fixed at 0,
plus any extra arguments, such as ``--deselect NODEID``.  A pytest plugin
traces the frames whose code lives in ``src/tdual``.  The script then lists
every statement inside a function body that never ran.  A statement is an
AST statement; docstrings are left out.  A compound statement (``if``,
``for``, ``try``, ...) counts as run when a line of its header or any
statement inside it ran.

Each statement is keyed by module, qualified function name and statement
text, whitespace collapsed, not by line number, so that an edit elsewhere in a
file does not move a key.  ``tools/unrun_allowlist.txt`` lists the statements
that may stay unrun, one a line::

    module | qualified.name | statement text | reason

Lines starting with ``#`` and blank lines are ignored.  The script exits 1
when the suite fails, when a statement that never ran is not in the
allowlist, or when an allowlist entry names no unrun statement (it now runs,
or it is gone); otherwise 0.  A missing statement is printed after its file
and line as an allowlist line with the reason ``<reason>``.

Tracing stops in a code object once every line in it has run.  The traced
suite takes about 4-5 minutes on a 2-CPU x86-64 host, against about 1.5
untraced.  No Tier-1 test starts a subprocess, so the trace sees every call.
The script uses only the standard library and pytest.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdual"
ALLOWLIST = ROOT / "tools" / "unrun_allowlist.txt"

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
             ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Match) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement, in order."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += getattr(stmt, field, None) or []
    for handler in getattr(stmt, "handlers", None) or []:
        out += handler.body
    for case in getattr(stmt, "cases", None) or []:
        out += case.body
    return out


class Statement:
    """One function-body statement: its key and the lines that mark it run."""

    def __init__(self, module: str, qualname: str, node: ast.stmt, lines: list[str]):
        self.module, self.qualname, self.node = module, qualname, node
        if isinstance(node, _COMPOUND):
            inner = _children(node)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = (inner[0].lineno - 1) if inner else node.end_lineno
            self.lines = set(range(first, max(first, last) + 1))
            text = lines[node.lineno - 1]
        else:
            self.lines = set(range(node.lineno, node.end_lineno + 1))
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        self.text = " ".join(text.split())
        self.inner: list[Statement] = []

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.qualname, self.text


def function_statements(module: str, source: str) -> dict[str, list[Statement]]:
    """Qualified function name -> the top-level statements of its body (each
    holding its inner statements), for every function in ``source``; nested
    functions and methods get their own entries, named ``outer.inner``."""
    lines = source.splitlines()
    found: dict[str, list[Statement]] = {}

    def body(stmts, qualname):
        out = []
        for stmt in stmts:
            s = Statement(module, qualname, stmt, lines)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope(stmt, f"{qualname}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                for child in stmt.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        scope(child, f"{qualname}.{stmt.name}.{child.name}")
            else:
                s.inner = body(_children(stmt), qualname)
            out.append(s)
        return out

    def scope(fn, qualname):
        found[qualname] = body(fn.body[_is_docstring(fn.body[0]):], qualname)

    def visit(stmts, prefix):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope(stmt, prefix + stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, prefix + stmt.name + ".")
            elif isinstance(stmt, _COMPOUND):
                visit(_children(stmt), prefix)

    visit(ast.parse(source).body, "")
    return found


def package_statements() -> dict[str, dict[str, list[Statement]]]:
    """Module name -> ``function_statements`` of every ``src/tdual`` module."""
    return {path.stem: function_statements(path.stem, path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def unrun(statements: list[Statement], ran: set[int]) -> tuple[bool, list[Statement]]:
    """Whether any of ``statements`` ran, and those that did not."""
    any_ran, missing = False, []
    for s in statements:
        inner_ran, inner_missing = unrun(s.inner, ran)
        if inner_ran or s.lines & ran:
            any_ran = True
            missing += inner_missing
        else:
            missing.append(s)
            missing += flatten(s.inner)
    return any_ran, missing


def flatten(statements):
    for s in statements:
        yield s
        yield from flatten(s.inner)


def read_allowlist(text: str) -> dict[tuple[str, str, str], str]:
    """(module, qualified name, statement text) -> reason, from the
    allowlist's ``module | qualname | statement | reason`` lines."""
    entries = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(" | ")
        if len(parts) < 4:
            raise ValueError(f"allowlist line {number}: expected "
                             f"'module | qualname | statement | reason': {line!r}")
        module, qualname, reason = parts[0].strip(), parts[1].strip(), parts[-1].strip()
        statement = " ".join(" | ".join(parts[2:-1]).split())
        entries[(module, qualname, statement)] = reason
    return entries


class LineTracer:
    """A pytest plugin that records the lines run in ``src/tdual`` code.

    A code object whose every line has run is no longer traced: the frames
    running it stop reporting lines, and new frames of it are not traced."""

    def __init__(self, package: Path):
        self.prefix = str(package.resolve()) + "/"
        self.ran: dict[str, set[int]] = {}
        self._todo: dict = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        todo = self._todo.get(code)
        if todo is None:
            if not code.co_filename.startswith(self.prefix):
                return None
            # The def line (or first decorator's) holds only the frame's
            # set-up and reports no line event.
            todo = self._todo[code] = {line for _, line in dis.findlinestarts(code)
                                       if line is not None and line != code.co_firstlineno}
            self.ran.setdefault(code.co_filename, set())
        if not todo:
            return None
        ran = self.ran[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                todo.discard(line)
                if not todo:
                    frame.f_trace_lines = False
            return local

        return local

    def pytest_configure(self, config):
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)


def report(ran_by_file: dict[str, set[int]], allowlist: dict) -> tuple[list[str], list[str]]:
    """(allowlist lines for unrun statements not in ``allowlist``, allowlist
    entries that name no unrun statement)."""
    missing, seen = [], set()
    for module, functions in package_statements().items():
        ran = ran_by_file.get(str((PACKAGE / f"{module}.py").resolve()), set())
        for qualname, statements in functions.items():
            for s in unrun(statements, ran)[1]:
                seen.add(s.key)
                if s.key not in allowlist:
                    missing.append(f"{module}.py:{s.node.lineno}  "
                                   + " | ".join(s.key + ("<reason>",)))
    stale = [" | ".join(key) for key in allowlist if key not in seen]
    return missing, stale


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(PACKAGE)
    # hypothesis draws its examples at random: a fixed seed keeps the
    # statements its tests reach the same from run to run
    status = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
                          str(ROOT / "tests"), *argv], plugins=[tracer])
    missing, stale = report(tracer.ran, read_allowlist(ALLOWLIST.read_text()))
    total = sum(len(list(flatten(stmts))) for functions in package_statements().values()
                for stmts in functions.values())
    print(f"\n{total} function-body statements in src/tdual")
    for line in missing:
        print(f"UNRUN  {line}")
    for line in stale:
        print(f"STALE  {line}  (runs now or is gone: remove it from the allowlist)")
    if status != 0:
        print(f"the suite failed (pytest exit status {int(status)})")
    return 1 if missing or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
