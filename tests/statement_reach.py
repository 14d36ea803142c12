"""Statement reach of tier-1 over src/toric_dmod, gated by an allowlist.

Runs the tier-1 suite in this process through ``pytest.main`` under a
``sys.settrace`` line tracer that follows only the package's files, then
compares the statements that never ran with ``tests/unreached.txt``. It fails
when tier-1 fails, when a statement that did not run is not listed, and when
a listed statement ran or names no statement. Code that the suite runs only
in a child process (``python -m toric_dmod.cli``) counts as not reached.

A statement is any ``ast`` statement of a module except docstrings, imports,
``def`` and ``class`` headers, ``try`` headers and ``global``/``nonlocal``
(none of these is a line of its own that can be left unrun). It owns its
lines, less those of the statements nested in it: a compound statement
owns its header. It is reached when a line event falls on a line it owns.

The allowlist has one statement a line, three tab-separated fields:
  where   the module, then the enclosing classes and functions, dotted
          (``fan_cox.Fan.__init__``; ``cli`` for the module level)
  text    the statement's first line, stripped
  reason  why it stays although tier-1 does not reach it
Each entry must name exactly one statement. Blank lines and lines that
start with ``#`` are skipped.

Run from anywhere, with pytest installed (about two and a half times as
long as tier-1):  python tests/statement_reach.py
Exit status: pytest's when tier-1 fails, else 1 when the statements that
did not run differ from the list, else 0.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toric_dmod"
ALLOWLIST = ROOT / "tests" / "unreached.txt"

# statements that own no line of their own
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
             ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)


class Statement:
    """One counted statement: where it is, its first line and the lines it owns."""

    __slots__ = ("module", "where", "text", "lineno", "lines")

    def __init__(self, module, where, text, lineno, lines):
        self.module = module
        self.where = where
        self.text = text
        self.lineno = lineno
        self.lines = lines


def _is_docstring(stmt, body) -> bool:
    return (stmt is body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def _children(stmt):
    """The statement lists nested directly in a statement."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(stmt, field, [])
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
    for case in getattr(stmt, "cases", []):
        yield case.body


def module_statements(path: pathlib.Path) -> list[Statement]:
    """The counted statements of one module, in source order."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    module = path.stem
    found = []

    def visit(body, where):
        for stmt in body:
            inner = where
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{stmt.name}"
            nested = [s for block in _children(stmt) for s in block]
            if not isinstance(stmt, UNCOUNTED) and not _is_docstring(stmt, body):
                end = min((s.lineno for s in nested), default=stmt.end_lineno + 1)
                owned = frozenset(range(stmt.lineno, max(end, stmt.lineno + 1)))
                found.append(Statement(module, where, lines[stmt.lineno - 1].strip(),
                                       stmt.lineno, owned))
            for block in _children(stmt):
                visit(block, inner)

    visit(ast.parse(source).body, module)
    return found


def package_statements() -> dict[str, list[Statement]]:
    """File path -> its counted statements, for every module of the package."""
    return {os.path.realpath(path): module_statements(path)
            for path in sorted(PACKAGE.glob("*.py"))}


def read_allowlist() -> list[tuple[str, str, str]]:
    """(where, text, reason) of each entry; ValueError on a malformed line."""
    entries = []
    for number, line in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(f.strip() for f in fields):
            raise ValueError(f"{ALLOWLIST.name}:{number}: want where<TAB>text<TAB>reason")
        entries.append(tuple(f.strip() for f in fields))
    return entries


def listed_statements(statements, entries) -> tuple[dict, list[str]]:
    """Each entry's one statement, keyed (where, text), and a problem line
    for every entry that names none or more than one, or repeats another."""
    by_key: dict[tuple[str, str], list[Statement]] = {}
    for stmt in (s for found in statements.values() for s in found):
        by_key.setdefault((stmt.where, stmt.text), []).append(stmt)
    named, problems = {}, []
    for where, text, _ in entries:
        matches = by_key.get((where, text), [])
        if (where, text) in named:
            problems.append(f"listed twice: {where}: {text}")
        elif len(matches) != 1:
            problems.append(f"names {len(matches)} statements, not 1: {where}: {text}")
        else:
            named[where, text] = matches[0]
    return named, problems


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 in this process; pytest's exit code and the package lines
    that ran, by file."""
    def line_tracer(add):
        def trace(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace
        return trace

    hits = {name: set() for name in package_statements()}
    local = {name: line_tracer(seen.add) for name, seen in hits.items()}

    by_filename = {}    # a code object's file name as imported -> its tracer or None

    def call_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return by_filename[filename]
        except KeyError:
            tracer = by_filename[filename] = local.get(os.path.realpath(filename))
            return tracer

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    code, hits = run_traced()
    if code:
        print(f"statement reach: tier-1 failed (pytest exit {code})")
        return code
    statements = package_statements()
    unreached = {s for name, found in statements.items() for s in found
                 if not s.lines & hits[name]}
    named, problems = listed_statements(statements, read_allowlist())
    listed = set(named.values())
    for what, group in (("not reached and not listed", unreached - listed),
                        ("listed but reached", listed - unreached)):
        problems += [f"{what}: {s.module}.py:{s.lineno}: {s.where}: {s.text}"
                     for s in sorted(group, key=lambda s: (s.module, s.lineno))]
    total = sum(map(len, statements.values()))
    print(f"statement reach: {total - len(unreached)} of {total} statements run, "
          f"{len(unreached)} not, {len(listed)} listed")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
