"""Source hygiene, checked with ``ast``: no imported name goes unused in the
package or its tests, and no function in the package ignores a parameter.

Re-exports in ``__init__.py`` and ``from __future__`` imports are exempt.
Parameters are checked in the package only: pytest reads test parameters
(fixtures) by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "treeot").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def read_names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = read_names(tree)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def unused_parameters(source: str) -> list[str]:
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *(p for p in (a.vararg, a.kwarg) if p)]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = set().union(*(read_names(stmt) for stmt in body))
        name = getattr(fn, "name", "lambda")
        found += [f"line {fn.lineno}: {name}({p.arg})" for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", [p for p in PACKAGE + TESTS if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_the_scans_flag_what_they_look_for():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from pathlib import Path, PurePath\n\n"
              "def f(a, b, *rest, key=None, **extra):\n    return a + np.sum(rest) + len(extra)\n\n"
              "g = lambda x, y: x + Path().stat().st_size\n")
    assert unused_imports(source) == ["line 2: os", "line 4: PurePath"]
    assert unused_parameters(source) == ["line 6: f(b)", "line 6: f(key)", "line 9: lambda(y)"]
