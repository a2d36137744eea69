"""Source hygiene, checked with ``ast``: no imported name goes unused in the
package or its tests, no function in the package ignores a parameter, the
package writes files only through ``fileio._write_text``, and it imports
only the standard library, numpy and itself, which is also all that
``pyproject.toml`` lists as dependencies; its ``test`` extra lists every
module that a test skips without. Also, the
status and stop codes of ``_kernel.c``'s enum are those ``_kernels.py``
reads, only ``_kernels._c_call`` turns arrays and generators into C
pointers, ``_kernel.c`` compiles as C99 without a warning, and it exports exactly
the functions that ``_kernels.py`` declares, each returning an ``int``
status and taking its reference kernel's argument list, and every kernel
has a caller in the package outside ``_kernels.py``, so none is kept for
parity tests alone. Every package name that the
benchmark harness (``perfbench/``) reads still resolves, so removing one
fails here rather than in the benchmark.

Re-exports in ``__init__.py`` and ``from __future__`` imports are exempt.
Parameters are checked in the package only: pytest reads test parameters
(fixtures) by name.
"""

import ast
import ctypes
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treeot
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


def project_requirements(key: str | None = None) -> list[str]:
    """Names of the ``pyproject.toml`` dependencies, or of its optional
    ``key`` extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    deps = project["dependencies"] if key is None else project["optional-dependencies"][key]
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps]


def test_numpy_is_the_only_dependency():
    assert project_requirements() == ["numpy"]


def importorskip_modules(source: str) -> set[str]:
    """The modules named by a string literal passed to ``importorskip``."""
    return {call.args[0].value for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "importorskip"
            and call.args and isinstance(call.args[0], ast.Constant)}


def test_every_module_a_test_may_skip_on_is_in_the_test_extra():
    """``pip install -e .[test]`` installs what the tests need, so none of
    them skips for a missing module; ``tomllib`` is standard from 3.11."""
    skipped = set().union(*(importorskip_modules(p.read_text(encoding="utf-8")) for p in TESTS))
    assert {"hypothesis", "networkx", "tomllib"} <= skipped
    assert skipped - {"tomllib"} <= set(project_requirements("test"))


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
    "CHAIN_DEGREE_TOO_LARGE": "C kernel stopped: a degree or arc count of 2^32 or more is not supported",
    "WILSON_BAD_VERTEX_COUNT":
        "C kernel stopped: a vertex count of 0 or of 2^32 or more is not supported",
    "WILSON_NO_NEIGHBOUR":
        "C kernel stopped: a random walk reached a vertex with no graph neighbour",
}


def c_enum(source: str) -> dict[str, int]:
    """Names and values of the first ``enum { ... };`` of a C source."""
    body = re.search(r"\benum\s*\{(.*?)\};", source, re.S).group(1)
    return {name: int(value) for name, value in re.findall(r"(\w+)\s*=\s*(-?\d+)", body)}


def python_codes() -> dict[str, int]:
    """Every status and stop code that ``_kernels`` reads, by its C name: the
    ``PLAN_*``, ``FLOW_*`` and ``STOP_*`` constants and
    ``NO_MEMORY`` by name, the other keys of the one status table ``_STATUS_ERRORS`` by
    message, and the stop reasons. The table holds every failure status."""
    codes = {name: value for name, value in vars(_kernels).items()
             if (name.startswith(("PLAN_", "FLOW_", "STOP_")) or name == "NO_MEMORY")
             and isinstance(value, int)}
    by_message = {m: c for c, (_, m) in _kernels._STATUS_ERRORS.items() if c not in codes.values()}
    codes.update({"CHAIN_OK": 0, **{name: by_message.pop(m) for name, m in CODE_MESSAGES.items()}})
    assert not by_message, f"codes with no C name: {by_message}"
    stops = {v for k, v in codes.items() if k.startswith("STOP_")}
    assert set(_kernels.STOP_REASONS) == stops
    assert set(_kernels._STATUS_ERRORS) == set(codes.values()) - stops - {0}
    return codes


def code_mismatches(source: str) -> list[str]:
    c, py = c_enum(source), python_codes()
    return [f"{name}: C {c.get(name)}, python {py.get(name)}"
            for name in sorted(c.keys() | py.keys()) if c.get(name) != py.get(name)]


def test_kernel_codes_match_the_c_enum():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert len(c_enum(source)) == 12
    assert code_mismatches(source) == []


def test_the_code_check_flags_a_mismatched_copy():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    mutants = {
        "STOP_CERTIFIED = 15": "STOP_CERTIFIED = 16",
        "FLOW_BAD_COST = 7,\n    FLOW_BUDGET = 8,": "FLOW_BAD_COST = 8,\n    FLOW_BUDGET = 7,",
        "    FLOW_INFEASIBLE = 9,\n": "",
        "    STOP_MAX_ITERS = 13,\n": "    STOP_MAX_ITERS = 13,\n    STOP_EXTRA = 16,\n",
        "CHAIN_DEGREE_TOO_LARGE = 2": "CHAIN_DEGREE_TOO_BIG = 2",
        "PLAN_NO_MATCH = 5,": "PLAN_NO_MATCH = 17,",
    }
    for old, new in mutants.items():
        assert source.count(old) == 1
        assert code_mismatches(source.replace(old, new)) != [], old


def ctypes_pointers(source: str, marshal: str = "_c_call") -> list[str]:
    """Reads of ``.ctypes.data``, ``.ctypes.bit_generator`` or a bit
    generator's ``.capsule`` outside the function named ``marshal``, the one
    place that turns arrays and generators into C pointers."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == marshal for node in ast.walk(fn)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and id(node) not in exempt and (
                 node.attr == "capsule" or node.attr in ("data", "bit_generator")
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "ctypes")]
    return [f"line {node.lineno}: .{'' if node.attr == 'capsule' else 'ctypes.'}{node.attr}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_marshalling_helper_takes_pointers(path):
    assert ctypes_pointers(path.read_text(encoding="utf-8")) == []


def test_the_pointer_scan_flags_a_stray_one():
    source = ("def _c_call(fn, a, rng):\n"
              "    bit_generator = rng.bit_generator\n"
              "    return fn(a.ctypes.data, bit_generator.capsule)\n\n"
              "def run(fn, a, rng):\n"
              "    return fn(a.ctypes.data, rng.bit_generator.ctypes.bit_generator, a.ctypes.shape,\n"
              "              rng.bit_generator.capsule)\n")
    assert ctypes_pointers(source) == ["line 6: .ctypes.data", "line 6: .ctypes.bit_generator",
                                       "line 7: .capsule"]
    assert len(ctypes_pointers(source, marshal="run")) == 2


@pytest.mark.skipif(not c_compiler_found(), reason="no C compiler")
def test_c_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run([*_kernels._compiler(), *_kernels.C_FLAGS, "-std=c99", "-Wpedantic",
                           "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "kernel.so"), str(_kernels.C_SOURCE), "-lm"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def exported_functions(source: str) -> set[str]:
    """Names of the ``treeot_*`` functions a C source defines without
    ``static``, from definitions that start a line."""
    return set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(treeot_\w+)\s*\(", source, re.M))


def test_every_exported_c_function_is_declared():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert exported_functions(source) == {f"treeot_{name}" for name in _kernels.C_SIGNATURES}


#: the ctypes type that each C non-pointer parameter type is declared with;
#: every pointer is ``c_void_p``
C_TYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


def c_prototypes(source: str) -> dict[str, tuple[str, list[tuple[str, str]]]]:
    """``(return type, [(type, name), ...])`` of every exported
    ``treeot_<name>`` function of a C source, by ``<name>``, read off its
    definition."""
    found = {}
    for ret, name, params in re.findall(r"^(?!static\b)(\w+)\s+treeot_(\w+)\s*\(([^)]*)\)",
                                        source, re.M):
        found[name] = (ret, [re.fullmatch(r"(.*?)\s*(\w+)", " ".join(p.split())).groups()
                             for p in params.split(",")])
    return found


def signature_mismatches(source: str) -> list[str]:
    """Kernels whose ``C_SIGNATURES`` argtypes differ from their C definition's."""
    declared = _kernels.C_SIGNATURES
    defined = {name: [ctypes.c_void_p if "*" in kind else C_TYPES[kind.split()[-1]]
                      for kind, _ in params]
               for name, (_, params) in c_prototypes(source).items()}
    return [f"{name}: declared {declared.get(name)}, defined {defined.get(name)}"
            for name in sorted(declared.keys() | defined.keys())
            if declared.get(name) != defined.get(name)]


def not_returning_int(source: str) -> list[str]:
    return sorted(f"treeot_{name}" for name, (ret, _) in c_prototypes(source).items() if ret != "int")


def reference_parameters(source: str) -> dict[str, list[str]]:
    """The parameter names of every top-level function of a Python source."""
    return {fn.name: [a.arg for a in fn.args.args]
            for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}


def abi_mismatches(py_source: str, c_source: str) -> list[str]:
    """Kernels whose reference in ``py_source`` and C function in
    ``c_source`` do not take one argument list: the same names in the same
    order, as many as ``C_SIGNATURES`` declares argtypes, and the numpy
    ``Generator`` ``rng``, where there is one, where C takes its bit
    generator's ``bitgen_t`` (the one ``bitgen_t *`` parameter)."""
    references, prototypes = reference_parameters(py_source), c_prototypes(c_source)
    found = []
    for name, argtypes in _kernels.C_SIGNATURES.items():
        py_names = references.get(name)
        params = prototypes.get(name, ("", []))[1]
        c_names = [param for _, param in params]
        generators = [param for kind, param in params if kind == "bitgen_t *"]
        if py_names != c_names or len(c_names) != len(argtypes) or (
                generators != [p for p in c_names if p == "rng"]):
            found.append(f"{name}: python {py_names}, C {params}, {len(argtypes)} argtypes")
    return found


def test_every_c_prototype_matches_its_declaration():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert len(c_prototypes(source)) == len(_kernels.C_SIGNATURES) == 7
    assert signature_mismatches(source) == []


def test_the_target_rule_is_computed_in_annealing_only():
    # the chain kernels stop at the best cost they are given
    sources = {path.name: path.read_text(encoding="utf-8") for path in (*PACKAGE, _kernels.C_SOURCE)}
    rule = "1e-9 * min(1.0, abs(target))"
    assert {name: text.count(rule) for name, text in sources.items() if rule in text} == {
        "annealing.py": 1}
    assert "1e-9" not in sources["_kernels.py"] + sources["_kernel.c"]


def test_every_exported_c_function_returns_an_int_status():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert not_returning_int(source) == []
    mutant = source.replace("int treeot_tree_potential(", "void treeot_tree_potential(")
    assert not_returning_int(mutant) == ["treeot_tree_potential"]


def test_every_reference_shares_its_c_argument_list():
    py_source = (ROOT / "src" / "treeot" / "_kernels.py").read_text(encoding="utf-8")
    c_source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    assert abi_mismatches(py_source, c_source) == []
    # the python backend runs the references that this reads
    assert all(getattr(_kernels, name) is _kernels._load_python()._run[name]
               for name in _kernels.C_SIGNATURES)


def test_the_abi_check_flags_a_dropped_or_renamed_argument():
    py_source = (ROOT / "src" / "treeot" / "_kernels.py").read_text(encoding="utf-8")
    c_source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    py_mutants = {
        "def tree_potential(n, parent, order, wpar, sums, u):":
            "def tree_potential(parent, order, wpar, sums, u):",
        "def wilson_tree(n, indptr, indices, adj_w, rng, parent, wpar, out_root):":
            "def wilson_tree(n, indptr, indices, adj_w, parent, wpar, out_root):",
    }
    c_mutants = {
        # a parameter dropped
        "const int64_t *by_source, double *out)": "double *out)",
        # the generator under another name
        "bitgen_t *rng, int64_t *parent,": "bitgen_t *bitgen, int64_t *parent,",
    }
    for old, new in py_mutants.items():
        assert py_source.count(old) == 1
        assert abi_mismatches(py_source.replace(old, new), c_source) != [], old
    for old, new in c_mutants.items():
        assert c_source.count(old) == 1
        assert abi_mismatches(py_source, c_source.replace(old, new)) != [], old


def test_the_prototype_check_flags_a_mismatched_copy():
    source = _kernels.C_SOURCE.read_text(encoding="utf-8")
    mutants = {
        # a parameter dropped
        " double price_rtol,": "",
        # double and int64_t swapped
        "int64_t max_iters, double beta0": "double max_iters, int64_t beta0",
    }
    for old, new in mutants.items():
        assert source.count(old) == 1
        assert signature_mismatches(source.replace(old, new)) != [], old


def test_the_export_scan_flags_what_it_looks_for():
    source = ("static double helper(int x)\n{\n    return treeot_inner(x);\n}\n"
              "static int treeot_private(int64_t n)\n{\n}\n"
              "double treeot_array_sum(const double *a, int64_t n)\n{\n}\n"
              "int treeot_wilson(int64_t n,\n                  double *w)\n{\n}\n")
    assert exported_functions(source) == {"treeot_array_sum", "treeot_wilson"}


def kernel_calls(source: str) -> set[str]:
    """Names of the methods that a source calls on ``kernels()``, as in
    ``_kernels.kernels().dp_plan(...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)):
            callee = node.func.value.func
            if getattr(callee, "attr", getattr(callee, "id", None)) == "kernels":
                found.add(node.func.attr)
    return found


def test_every_kernel_is_called_by_the_package():
    called = set().union(*(kernel_calls(path.read_text(encoding="utf-8"))
                           for path in PACKAGE if path.name != "_kernels.py"))
    assert sorted(set(_kernels.C_SIGNATURES) - called) == []


def test_the_caller_scan_flags_what_it_looks_for():
    source = ("from . import _kernels\n"
              "a = _kernels.kernels().dp_plan(t, xi, 0.0)\n"
              "b = kernels().tree_pairs(t, x, y, None)\n"
              "c = _kernels.wilson_tree(n, indptr, indices, adj_w, rng, parent, wpar, root)\n"
              "d = other().tree_potential(t, xi)\n")
    assert kernel_calls(source) == {"dp_plan", "tree_pairs"}


def layer_functions(source: str) -> list[str]:
    """``module.name`` of every function in the ``LAYER_FUNCTIONS`` literal
    of a perfbench ``spans.py`` source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]:
            layers = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in layers.values() for name in names]
    raise AssertionError("no LAYER_FUNCTIONS assignment")


def unresolved(names) -> list[str]:
    """The ``module.name`` entries that are not attributes of ``treeot.module``."""
    missing = []
    for entry in names:
        module, name = entry.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"treeot.{module}"), name):
            missing.append(entry)
    return missing


def test_every_name_the_benchmark_reads_resolves():
    import treeot.cli

    names = layer_functions((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    assert {"graphs.all_pairs_shortest_paths", "trees.tree_distance_matrix",
            "oracle.exact_k_distance", "oracle.lipschitz_violation"} <= set(names)
    assert unresolved(names) == []
    assert callable(treeot.numba_enabled)
    assert treeot.cli.all_pairs_shortest_paths is treeot.graphs.all_pairs_shortest_paths
    g = treeot.grid_graph(2)
    exact = treeot.exact_k_distance(treeot.all_pairs_shortest_paths(g), [1, 0, 0, 0], [0, 0, 0, 1])
    assert abs(exact.value - 0.5) <= 1e-12


def test_the_name_scan_flags_what_it_looks_for():
    source = ('"""doc"""\nOTHER = {"x": ("graphs", ("nope",))}\n'
              'LAYER_FUNCTIONS = {"graphs": ("graphs", ("build_graph", "floyd_warshall")),\n'
              '                   "oracle": ("oracle", ("check_lipschitz",))}\n')
    names = layer_functions(source)
    assert names == ["graphs.build_graph", "graphs.floyd_warshall", "oracle.check_lipschitz"]
    assert unresolved(names) == ["graphs.floyd_warshall", "oracle.check_lipschitz"]
