"""Source hygiene checks written with the standard library's ``ast``.

No linter is a dependency, so the checks that matter here are made by hand:
every import in the library is used and sits in its module's import block,
every module-private definition is named somewhere else, and every function
the benchmark's span tracer wraps still exists under its name.  Tolerances
and floors are module constants: no function takes one as a parameter, so no
caller can loosen a check per call.
"""

import ast
import importlib
import importlib.util
import re
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


def function_imports(source: str) -> list[str]:
    """Import statements inside a function or method body, nested functions included."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    out.add(inner.lineno)
    return [f"line {line}" for line in sorted(out)]


def test_function_import_detector():
    source = "import os\n\ndef f():\n    def g():\n        import re\n\nclass C:\n    def h(self):\n        from a import b\n"
    assert function_imports(source) == ["line 5", "line 9"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


def loosening_parameters(source: str) -> list[str]:
    """Parameters named ``tol`` or ``floor`` of every function, nested ones and methods included."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in ("tol", "floor"):
                    out.append(f"{getattr(node, 'name', 'lambda')}({arg.arg}) line {arg.lineno}")
    return out


def test_loosening_parameter_detector():
    source = "def f(x, tol=1e-9):\n    def g(*, floor):\n        pass\n\nclass C:\n    def h(self, tolerance):\n        pass\n"
    assert loosening_parameters(source) == ["f(tol) line 1", "g(floor) line 2"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tolerance_or_floor_parameters(path):
    assert loosening_parameters(path.read_text()) == []


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


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private functions, classes and constants: name -> line."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            targets = [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [(node.target.id, node.lineno)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = line
    return out


def unnamed_privates(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Private definitions in ``sources`` that no other line of ``sources`` or ``readers`` names."""
    lines = [
        (path, number, text)
        for path, source in {**sources, **readers}.items()
        for number, text in enumerate(source.splitlines(), start=1)
    ]
    unused = []
    for path, source in sources.items():
        for name, line in private_definitions(source).items():
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for p, number, text in lines if (p, number) != (path, line)):
                unused.append(f"{path}:{line} {name}")
    return unused


def test_unnamed_private_detector():
    sources = {
        "a.py": "def _used():\n    pass\n\n_LEFT = 1\n\nclass _Gone:\n    pass\n",
        "b.py": "from a import _used\n_TRACED_ONLY = 2\n",
    }
    readers = {"spans.py": 'TRACED = (("b", "_TRACED_ONLY"),)\n'}
    assert unnamed_privates(sources, readers) == ["a.py:4 _LEFT", "a.py:6 _Gone"]


def test_every_private_definition_is_named_elsewhere():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {"spans.py": (ROOT / "bench" / "spans.py").read_text()}
    assert unnamed_privates(sources, readers) == []
