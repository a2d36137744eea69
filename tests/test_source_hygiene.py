"""Source hygiene, checked with ``ast``: no imported name goes unused in the
package or its tests, no function in the package ignores a parameter, the
package writes files only through ``fileio._write_text``, and it imports
only the standard library, numpy and itself, which is also all that
``pyproject.toml`` lists as dependencies. Also, the
status and stop codes of ``_kernel.c``'s enum are those ``_kernels.py``
reads, ``_kernel.c`` compiles without a warning, and it exports exactly the
functions that ``_kernels.py`` declares.

Re-exports in ``__init__.py`` and ``from __future__`` imports are exempt.
Parameters are checked in the package only: pytest reads test parameters
(fixtures) by name.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treeot import _kernels

from conftest import c_compiler_found

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


#: top-level modules the package may import besides the standard library
ALLOWED_IMPORTS = {"numpy", "treeot"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of a module outside the standard library and
    ``ALLOWED_IMPORTS``; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names | ALLOWED_IMPORTS]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_the_import_scan_flags_scipy():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "import scipy\nimport scipy.sparse as sp\nfrom scipy.sparse import csgraph\n"
              "from . import graphs\nfrom .graphs import build_graph\nfrom treeot import cli\n"
              "def f():\n    import networkx\n")
    assert foreign_imports(source) == ["line 4: scipy", "line 5: scipy.sparse",
                                       "line 6: scipy.sparse", "line 11: networkx"]


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


#: the C names of the codes that ``_kernels`` keys by message
CODE_MESSAGES = {
    "CHAIN_NO_NEIGHBOUR": "the root has no graph neighbour",
    "CHAIN_DEGREE_TOO_LARGE": "a vertex degree of 2^32 or more is not supported",
    "WILSON_BAD_VERTEX_COUNT": "a vertex count of 0 or of 2^32 or more is not supported",
    "WILSON_NO_NEIGHBOUR": "a random walk reached a vertex with no graph neighbour",
}


def c_enum(source: str) -> dict[str, int]:
    """Names and values of the first ``enum { ... };`` of a C source."""
    body = re.search(r"\benum\s*\{(.*?)\};", source, re.S).group(1)
    return {name: int(value) for name, value in re.findall(r"(\w+)\s*=\s*(-?\d+)", body)}


def python_codes() -> dict[str, int]:
    """Every status and stop code that ``_kernels`` reads, by its C name:
    ``_C_STATUS`` by message, the ``PLAN_*``, ``FLOW_*``, ``TREE_*``,
    ``STOP_*`` and ``PATH_*`` constants by name, and the tables keyed by
    them."""
    by_message = {m: c for c, m in _kernels._C_STATUS.items()}
    codes = {"CHAIN_OK": 0, **{name: by_message.pop(m) for name, m in CODE_MESSAGES.items()}}
    assert not by_message, f"codes with no C name: {by_message}"
    codes.update({name: value for name, value in vars(_kernels).items()
                  if name.startswith(("PLAN_", "FLOW_", "TREE_", "STOP_", "PATH_"))
                  and isinstance(value, int)})
    assert set(_kernels._FLOW_ERRORS) == {v for k, v in codes.items() if k.startswith("FLOW_")}
    assert set(_kernels._TREE_ERRORS) == {v for k, v in codes.items() if k.startswith("TREE_")}
    assert set(_kernels.STOP_REASONS) == {v for k, v in codes.items() if k.startswith("STOP_")}
    assert set(_kernels._PATH_ERRORS) == {v for k, v in codes.items() if k.startswith("PATH_")}
    return codes


def code_mismatches(source: str) -> list[str]:
    c, py = c_enum(source), python_codes()
    return [f"{name}: C {c.get(name)}, python {py.get(name)}"
            for name in sorted(c.keys() | py.keys()) if c.get(name) != py.get(name)]


def test_kernel_codes_match_the_c_enum():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert len(c_enum(source)) == 19
    assert code_mismatches(source) == []


def test_the_code_check_flags_a_mismatched_copy():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    mutants = {
        "STOP_CERTIFIED = 15": "STOP_CERTIFIED = 16",
        "FLOW_BAD_COST = 7,\n    FLOW_BUDGET = 8,": "FLOW_BAD_COST = 8,\n    FLOW_BUDGET = 7,",
        "    TREE_UNREACHED = 12,\n": "",
        "    STOP_MAX_ITERS = 13,\n": "    STOP_MAX_ITERS = 13,\n    STOP_EXTRA = 16,\n",
        "CHAIN_NO_NEIGHBOUR = 1": "CHAIN_NO_NEIGHBOR = 1",
        "PATH_BAD_WEIGHT = 17,\n    PATH_UNREACHED = 18,": "PATH_BAD_WEIGHT = 18,\n    PATH_UNREACHED = 17,",
    }
    for old, new in mutants.items():
        assert source.count(old) == 1
        assert code_mismatches(source.replace(old, new)) != [], old


@pytest.mark.skipif(not c_compiler_found(), reason="no C compiler")
def test_c_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run([*_kernels._compiler(), *_kernels.C_FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernel.so"), str(_kernels.C_SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def exported_functions(source: str) -> set[str]:
    """Names of the ``treeot_*`` functions a C source defines without
    ``static``, from definitions that start a line."""
    return set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(treeot_\w+)\s*\(", source, re.M))


def test_every_exported_c_function_is_declared():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert exported_functions(source) == set(_kernels.C_SIGNATURES)


def test_the_export_scan_flags_what_it_looks_for():
    source = ("static double helper(int x)\n{\n    return treeot_inner(x);\n}\n"
              "static int treeot_private(int64_t n)\n{\n}\n"
              "double treeot_array_sum(const double *a, int64_t n)\n{\n}\n"
              "int treeot_wilson(int64_t n,\n                  double *w)\n{\n}\n")
    assert exported_functions(source) == {"treeot_array_sum", "treeot_wilson"}
