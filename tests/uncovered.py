"""The library statements that no test executes, found with the standard library alone.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only frames of ``src/qfeedback``, then prints every statement of
the library that no line event reached, one per line as ``path:line: source``,
and a count per module.  ``raise`` statements are left out (an unreached error
path is listed by its guard, if at all), and so are docstrings, which run no
code.  A statement counts as executed when any line it spans was reached, so
a compound statement counts by its header or any line of its body.

    PYTHONPATH=src python tests/uncovered.py [extra pytest arguments]

Extra arguments go to pytest, so ``tests/test_protocol.py`` or ``-k validate``
narrows the run.  Code run in a subprocess (the CLI tests that start
``python -m qfeedback``) is not traced.  The tracer roughly doubles the
suite's time.  The exit status is pytest's.  Not a test module: pytest does
not collect it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qfeedback"


def statements(source: str):
    """(first line, last line) of every statement that runs code, raises and docstrings left out."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield first, node.end_lineno


def uncovered(source: str, hits: set[int]) -> list[int]:
    """First lines of the statements of ``source`` that no line in ``hits`` falls inside."""
    return sorted({a for a, b in statements(source) if not any(k in hits for k in range(a, b + 1))})


def traced_run(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines reached in each library file."""
    prefix = str(SRC)
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(args) -> int:
    status, hits = traced_run(args or [str(ROOT / "tests")])
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = uncovered(source, hits.get(str(path), set()))
        for k in missed:
            print(f"{path.relative_to(ROOT)}:{k}: {lines[k - 1].strip()}")
        total += len(missed)
        print(f"# {path.relative_to(ROOT)}: {len(missed)} statements not executed")
    print(f"# {total} statements not executed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
