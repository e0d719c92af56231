"""Source hygiene checks written with the standard library's ``ast``.

No linter is a dependency, so the two checks that matter here are made by
hand: every import in the library is used, and every function the benchmark's
span tracer wraps still exists under its name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qfeedback"


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module never reads.

    A line marked ``# noqa: F401`` (a deliberate re-export) is exempt, and so
    are ``__future__`` imports.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = "import os\nfrom a import b, c  # noqa: F401\nfrom d import e\nprint(e)\n"
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for mod, attr in spans.TRACED
        if not callable(getattr(importlib.import_module(f"qfeedback.{mod}"), attr, None))
    ]
    assert missing == []
