"""Source hygiene checks written with the standard library's ``ast``.

No linter is a dependency, so the checks that matter here are made by hand:
every import in the library is used and sits in its module's import block,
every module-private definition is named somewhere else, every top-level
function and class has a caller in the library or is exported or traced,
every name the package exports is used in the library or named in the
README, every function the benchmark's span tracer wraps still exists under
its name, no module keeps state between calls (no ``global``, no memoizing
decorator, no lower-case module-level container), and the README's example
runs as written.  Tolerances and floors are module constants: no
function takes one as a parameter, so no caller can loosen a check per call.  The count
of settable values may only fall, so a new knob shows up in the diff, and so may the
library's line count.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
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


def settable_values(source: str) -> int:
    """Every parameter default of every ``def``, plus every class field given a value."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_value_counter():
    source = "def f(a, b=1, *, c=2, d):\n    def g(x=0):\n        pass\n\nclass C:\n    x: int = 1\n    y: int\n    z = 3\n"
    assert settable_values(source) == 4


# The library's settable values; lower it when a change removes one.
SETTABLE_VALUES = 23


def test_settable_values_do_not_grow():
    assert sum(settable_values(p.read_text()) for p in SRC.glob("*.py")) <= SETTABLE_VALUES


# The library's line count, counted as bench/run.py's ``src_lines`` counts it.  A change that must grow the
# library raises it in the same diff and says why.
SRC_LINES = 3662  # +5: quantum.law_defects and check_law, the one codeword-law rule, replace four inline checks


def test_src_lines_do_not_grow():
    assert sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("*.py"))) <= SRC_LINES


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def process_state(source: str) -> list[str]:
    """``global`` statements, ``functools.cache``/``lru_cache`` decorators, and
    module-level containers whose name is not ALL_CAPS.

    State that outlives a call belongs to an object the caller makes and
    passes; a mutable module-level name or a memoizing decorator is shared by
    every caller in the process.  An ALL_CAPS container is a constant table.
    """
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out.append(f"global {', '.join(node.names)} line {node.lineno}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    out.append(f"@{name} on {node.name} line {dec.lineno}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        called = call.attr if isinstance(call, ast.Attribute) else getattr(call, "id", None)
        if isinstance(value, CONTAINERS) or called in CONTAINER_CALLS:
            for t in targets:
                if isinstance(t, ast.Name) and t.id != t.id.upper():
                    out.append(f"container {t.id} line {node.lineno}")
    return out


def test_process_state_detector():
    source = (
        "import functools\n_TABLE = {1: 2}\n_seen = {}\nhits: list = []\nlog = collections.deque()\n"
        "N = 3\n\n@functools.lru_cache(maxsize=None)\ndef f():\n    global N\n\n@cache\ndef g():\n"
        "    local = {}\n"
    )
    assert process_state(source) == [
        "@lru_cache on f line 8",
        "@cache on g line 12",
        "global N line 10",
        "container _seen line 3",
        "container hits line 4",
        "container log line 5",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_wide_state(path):
    assert process_state(path.read_text()) == []


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


def uncalled_definitions(sources: dict[str, str], public: set[str]) -> list[str]:
    """Top-level functions and classes that no other top-level statement of ``sources`` reads and ``public`` does not name.

    A read is a bare name or an attribute of that name; a definition that
    only reads itself (recursion) has no caller.
    """
    defined, readers = [], {}
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path, node.lineno, node.name))
            for inner in ast.walk(node):
                name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
                if isinstance(inner, (ast.Name, ast.Attribute)):
                    readers.setdefault(name, set()).add((path, node.lineno))
    return [
        f"{path}:{line} {name}"
        for path, line, name in defined
        if name not in public and not readers.get(name, set()) - {(path, line)}
    ]


def test_uncalled_definition_detector():
    sources = {
        "a.py": "def used():\n    pass\n\ndef alone(k):\n    return alone(k - 1)\n\nclass Kept:\n    pass\n",
        "b.py": "import a\n\ndef caller():\n    return a.used()\n",
    }
    assert uncalled_definitions(sources, {"Kept"}) == ["a.py:4 alone", "b.py:3 caller"]


def test_every_definition_has_a_caller():
    # Public means exported by __init__.py or wrapped by the benchmark's span tracer.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert uncalled_definitions(sources, exported | {attr for _, attr in spans.TRACED}) == []


def uncalled_exports(init: str, sources: list[str], readme: str) -> list[str]:
    """Names ``init`` imports from its submodules that no source reads and the README does not name."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in exported if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_uncalled_export_detector():
    init = "from .a import f, g, h  # noqa: F401\nfrom os import path\n"
    sources = ["def f():\n    pass\n\ndef g():\n    return f()\n\ndef h():\n    pass\n"]
    assert uncalled_exports(init, sources, "Call `g` for the answer.") == ["h"]


def test_every_export_is_used_or_documented():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    init = (SRC / "__init__.py").read_text()
    assert uncalled_exports(init, sources, (ROOT / "README.md").read_text()) == []


def test_readme_example_runs():
    # The README's one Python block, run as written: its last print is the
    # n=1 optimizer rate, documented there as ~0.7136 bits per use.
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert abs(float(out.getvalue().splitlines()[-1]) - 0.7136) <= 1e-3
