"""Statement coverage of the package by tier-1, with the standard library alone.

From the repository root, with a Python that has pytest and hypothesis::

    python research/coverage.py

A trace function is set with ``sys.settrace`` and ``threading.settrace``
before the package is first imported; tier-1 then runs in this process
through ``pytest.main``, with criterion 4 deselected (it fails by design: see
``tests/test_acceptance.py``). Only frames whose code lies in
``src/matroid_greedy`` are traced line by line; on a 2-vCPU VM the run took
62 s, against 17 s for tier-1 untraced. It is not part of tier-1.

A statement ran when a line event fired on one of its own lines that carries
bytecode. Its own lines are its lines outside the statements nested in it,
with its decorators; a docstring carries no bytecode and is never listed.
Each statement that never ran is printed as ``path:line: source``, in file
order, and a count follows on stderr. Code that runs only in a subprocess,
such as ``cli.console_main`` under the CLI tests, is out of the tracer's
sight and is listed too. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matroid_greedy"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_04_dominance_grids"


def bytecode_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it that carry bytecode."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= bytecode_lines(const)
    return lines


def statements(tree: ast.AST) -> list[tuple[ast.stmt, set[int]]]:
    """Every statement of ``tree`` with its own lines, in file order."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node, own))
    out.sort(key=lambda pair: pair[0].lineno)
    return out


def missed_statements(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement in ``path`` none of whose own lines ran."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    executable = bytecode_lines(compile(source, str(path), "exec"))
    missed = []
    for node, own in statements(ast.parse(source)):
        own &= executable
        if own and not own & hit:
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return missed


def main() -> int:
    if "matroid_greedy" in sys.modules:
        raise SystemExit("the package is already imported; its module lines would be missed")
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    traced: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = traced.get(name)
        if inside is None:
            inside = traced[name] = os.path.realpath(name).startswith(prefix)
        return local if inside else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", CRITERION_4])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    by_path: dict[str, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        by_path[os.path.realpath(name)] |= lines
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in missed_statements(path, by_path[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements never ran", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
