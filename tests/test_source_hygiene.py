"""Source hygiene, checked with ``ast``: no imported name goes unused in the
package or its tests, no function in the package ignores a parameter, and
the package writes files only through ``fileio._write_text``.

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


#: ``os.open`` flags that open a file for writing
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def file_writes(source: str, writer: str | None = None) -> list[str]:
    """Calls that write a file, outside the function named ``writer``:
    ``write_text`` and ``write_bytes``; ``open`` or ``x.open`` with a mode
    that writes or is not a string literal; ``os.open`` with a writing flag
    or with flags other than ``os.O_*`` names."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == writer
              for node in ast.walk(fn)}
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in exempt:
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append((call.lineno, name))
        elif name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            flags = call.args[1] if len(call.args) > 1 else ast.Constant(0)
            named = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in ast.walk(flags) if isinstance(n, (ast.Attribute, ast.Name))}
            if named & WRITE_FLAGS or not named or any(n != "os" and not n.startswith("O_") for n in named):
                found.append((call.lineno, "os.open"))
        elif name == "open":
            # the mode follows the file in open(file, mode) and comes first in x.open(mode)
            args = call.args[1:] if isinstance(func, ast.Name) else call.args
            modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + args[:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                found.append((call.lineno, "open"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_files_are_written_only_by_the_writer(path):
    source = path.read_text(encoding="utf-8")
    assert file_writes(source, "_write_text" if path.name == "fileio.py" else None) == []


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


def test_the_write_scan_flags_what_it_looks_for():
    source = ("import os\nfrom pathlib import Path\n\n"
              "def _write_text(path, text):\n"
              "    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n"
              "    Path(path).write_text(text)\n\n"
              "def save(path, text, mode):\n"
              "    Path(path).write_text(text)\n"
              "    Path(path).write_bytes(b'')\n"
              "    open(path, 'w').write(text)\n"
              "    open(path, mode='ab')\n"
              "    open(path, mode)\n"
              "    Path(path).open('r+')\n"
              "    os.open(path, os.O_RDWR)\n"
              "    os.open(path, flags)\n\n"
              "def load(path):\n"
              "    open(path).read()\n"
              "    open(path, 'rb')\n"
              "    Path(path).open(encoding='utf-8')\n"
              "    os.open(path, os.O_RDONLY)\n"
              "    Path(path).read_text()\n")
    assert file_writes(source, "_write_text") == [
        "line 9: write_text", "line 10: write_bytes", "line 11: open", "line 12: open",
        "line 13: open", "line 14: open", "line 15: os.open", "line 16: os.open"]
    assert file_writes(source)[:2] == ["line 5: os.open", "line 6: write_text"]
