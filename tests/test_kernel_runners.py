"""Every ``Kernels`` method checks its inputs in one place that both backends
share, so a malformed call raises the same exception with the same message on
every backend, the plain-Python reference included. A kernel that walks a
graph or a tree takes only a ``WeightedGraph`` or ``RootedTree``, proven when
it was built: a malformed CSR or parent link raises at construction, the same
way on every backend. A kernel that draws random numbers takes only a numpy
``Generator``, on any bit generator, and leaves it at the same position on
every backend."""

import json
import os

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import TreeOTError
from treeot.trees import RootedTree

from conftest import compiled_backends, raised, run_python

N = 9  # vertices of the 3x3 lattice that every call runs on

#: every kernel's arguments, by name, in order
SIGNATURES = {
    "anneal_chain": "tree graph xi_node max_iters beta0 eta record_every stop_at rng",
    "wilson_tree": "graph rng",
    "dp_plan": "tree mu nu xi zero_tol",
    "network_simplex": "supply tail head cost",
    "tree_potential": "tree xi_cum",
    "tree_pairs": "tree xs ys mass",
    "pair_distances": "graph xs ys",
}

#: case: the argument it breaks and the malformed value made from the good one
#: (besides the ``int32-<argument>`` and ``short-<argument>`` cases); a
#: ``graph`` argument is built from ``indptr``, ``indices`` and ``adj_w``, and a
#: ``tree`` from ``root``, ``parent`` and ``wpar``
CASES = {
    "parent-link-minus-2": ("parent", lambda p: np.where(p == p.max(), -2, p)),
    "parent-link-out-of-range": ("parent", lambda p: np.where(p == p.max(), N, p)),
    "neighbour-out-of-range": ("indices", lambda a: a + 1),
    "vertex-without-neighbour": ("indptr", lambda a: np.r_[0, 0, a[2:]]),
    "arc-endpoint-out-of-range": ("head", lambda a: a + 1),
    "pair-vertex-out-of-range": ("xs", lambda a: a + 1),
    "negative-arc-cost": ("cost", lambda a: -a),
    "negative-arc-weight": ("adj_w", lambda a: -a),
    "root-out-of-range": ("root", lambda r: N),
    "record-every-0": ("record_every", lambda r: 0),
}

KERNEL_CASES = {
    "anneal_chain": ["parent-link-minus-2", "parent-link-out-of-range", "root-out-of-range",
                     "record-every-0", "neighbour-out-of-range", "vertex-without-neighbour",
                     "int32-xi_node", "short-xi_node"],
    "wilson_tree": ["neighbour-out-of-range", "vertex-without-neighbour", "int32-indptr",
                    "int32-indices", "short-adj_w"],
    "dp_plan": ["parent-link-minus-2", "parent-link-out-of-range", "short-xi", "short-mu",
                "short-nu"],
    "network_simplex": ["arc-endpoint-out-of-range", "negative-arc-cost", "int32-tail",
                        "short-tail"],
    "tree_potential": ["parent-link-minus-2", "parent-link-out-of-range", "short-wpar",
                       "short-xi_cum"],
    "tree_pairs": ["parent-link-minus-2", "parent-link-out-of-range", "pair-vertex-out-of-range",
                   "int32-xs", "short-wpar"],
    "pair_distances": ["neighbour-out-of-range", "pair-vertex-out-of-range", "negative-arc-weight",
                       "int32-indptr", "short-adj_w"],
}


def arguments() -> dict:
    """Well-formed arguments of every kernel, by name: a 3x3 lattice, a
    Wilson tree of it, a balanced imbalance ``xi`` and ``mu``, ``nu`` whose
    difference it is (the kernels read no mass), as fresh arrays, since some
    kernels write into theirs."""
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    xi = np.linspace(-0.4, 0.4, N)
    return {
        "mu": np.maximum(xi, 0.0) + 0.1, "nu": np.maximum(-xi, 0.0) + 0.1,
        "parent": t.parent.copy(), "wpar": t.weight_to_parent.copy(), "root": t.root,
        "xi_cum": ot.subtree_aggregate(t, xi), "xi_node": xi.copy(), "xi": xi.copy(),
        "supply": xi.copy(), "indptr": g.indptr.copy(),
        "indices": g.indices.copy(), "adj_w": g.weights.copy(), "tail": g.arc_tails(),
        "head": g.indices.copy(), "cost": g.weights.copy(),
        "xs": np.arange(N, dtype=np.int64), "ys": np.arange(N, dtype=np.int64)[::-1].copy(),
        "mass": None, "max_iters": 50, "beta0": 1.0, "eta": 0.05, "record_every": 10,
        "stop_at": np.nan,
        "rng": np.random.default_rng(1), "zero_tol": 1e-14,
    }


def call(kernel_fn, kernel: str, case: str | None = None, rng=None):
    """``kernel_fn`` (the entry ``kernel`` of some backend) on the arguments
    of ``kernel``, the one that ``case`` breaks broken, drawing from ``rng``
    where it is given. A ``graph`` and a ``tree``, each where the kernel
    takes one, are built here, in the call, from their arrays (the raw arrays
    themselves for ``raw-structure``), on the backend that ``kernels()``
    returns."""
    args = arguments()
    if rng is not None:
        args["rng"] = rng
    kind, _, name = (case or "").partition("-")
    if kind == "int32":
        args[name] = args[name].astype(np.int32)
    elif kind == "short":
        args[name] = args[name][:-1]
    elif case and case != "raw-structure":
        name, bad = CASES[case]
        args[name] = bad(args[name])
    names = SIGNATURES[kernel].split()
    raw = {"graph": ("indptr", "indices", "adj_w"), "tree": ("root", "parent", "wpar")}
    if case == "raw-structure":
        args.update({key: tuple(args[a] for a in parts) for key, parts in raw.items()})
    else:
        if "graph" in names:
            args["graph"] = ot.WeightedGraph(n=N, indptr=args["indptr"], indices=args["indices"],
                                             weights=args["adj_w"])
        if "tree" in names:
            args["tree"] = RootedTree(args["root"], args["parent"], args["wpar"])
    return kernel_fn(*[args[a] for a in names])


def outcome(loaded, backend: str, kernel: str, case: str | None = None):
    """What ``call`` raises with ``backend``'s entry, the graph or tree built
    on that backend too: ``(type, message)``, or ``None``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "kernels", lambda: loaded[backend])
        return raised(call, getattr(loaded[backend], kernel), kernel, case)


@pytest.fixture(scope="module")
def loaded():
    return {backend: _kernels._LOADERS[backend]() for backend in ["python", *compiled_backends()]}


def test_every_kernel_has_cases(loaded):
    assert set(KERNEL_CASES) == set(SIGNATURES) == set(_kernels.C_SIGNATURES)
    assert len(WALKS) == 6
    for kernel in SIGNATURES:
        assert outcome(loaded, "python", kernel) is None


@pytest.mark.parametrize("kernel, case", [(k, c) for k, cases in KERNEL_CASES.items() for c in cases])
def test_malformed_input_raises_alike_on_every_backend(kernel, case, loaded):
    expected = outcome(loaded, "python", kernel, case)
    assert expected is not None and issubclass(expected[0], (ValueError, RuntimeError, TreeOTError))
    for backend in compiled_backends():
        assert outcome(loaded, backend, kernel, case) == expected


WALKS = [k for k, names in SIGNATURES.items() if {"graph", "tree"} & set(names.split())]


@pytest.mark.parametrize("kernel", WALKS)
def test_walks_take_only_a_proven_graph_or_tree(kernel, loaded):
    expected = outcome(loaded, "python", kernel, "raw-structure")
    # the chain, which takes both, checks its tree first
    kind = "RootedTree" if "tree" in SIGNATURES[kernel].split() else "WeightedGraph"
    assert expected[0] is TypeError and expected[1].endswith(f"needs a {kind}, not tuple")
    for backend in compiled_backends():
        assert outcome(loaded, backend, kernel, "raw-structure") == expected


# Two inputs that once crashed or hung a kernel, each run in a child
# interpreter under a time limit, so a crash or a hang fails one test. The
# chain, which once took raw parent links, now starts only from a RootedTree,
# so links with a two-cycle are refused when that tree is built.
CHAIN_ON_A_TWO_CYCLE = """
import numpy as np
import treeot as ot
from treeot.trees import RootedTree
g = ot.grid_graph(3)
t = ot.random_spanning_tree(g, np.random.default_rng(0))
a, b = [v for v in range(g.n) if v != t.root][:2]
parent = t.parent.copy()
parent[a], parent[b] = b, a
try:
    RootedTree(t.root, parent, t.weight_to_parent)
except Exception as exc:
    print(type(exc).__name__, t.root, exc)
"""

DISCONNECTED_CSR = """
import numpy as np
import treeot as ot
from treeot import _kernels
csr = np.array([0, 1, 2, 3, 4]), np.array([1, 0, 3, 2]), np.ones(4)
for build in (lambda: ot.WeightedGraph(n=4, indptr=csr[0], indices=csr[1], weights=csr[2]),
              lambda: _kernels.kernels().wilson_tree(csr, np.random.default_rng(0))):
    try:
        build()
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("backend", ["python", *compiled_backends()])
def test_chain_on_two_linked_vertices_raises_not_spanning(backend):
    proc = run_python(CHAIN_ON_A_TWO_CYCLE, backend, timeout=20)
    assert proc.returncode == 0, proc.stderr
    kind, root, message = proc.stdout.strip().split(" ", 2)
    assert kind == "NotSpanningError"
    assert message == f"parent links are not a tree rooted at {root}: parent links do not reach every vertex"


@pytest.mark.parametrize("backend", ["python", *compiled_backends()])
def test_disconnected_csr_is_refused_before_any_walk(backend):
    proc = run_python(DISCONNECTED_CSR, backend, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["DisconnectedError graph is not connected",
                                        "TypeError Wilson tree: needs a WeightedGraph, not tuple"]


# A child interpreter lowers its own address-space limit to 80 bytes a vertex
# above what it has mapped: room for the chain's outputs (4 words a vertex),
# not for its scratch (over 10 words a vertex on the lattice, in C or in
# Python), which, given no tree, it allocates before it draws its start. A
# fixed mmap threshold makes glibc map every block over 128 KiB afresh, where
# the limit applies, rather than reuse the heap that building the graph freed.
SCRATCH_PAST_THE_LIMIT = """
import json, resource
import numpy as np
import treeot as ot
from treeot import _kernels
from treeot.trees import RootedTree
p = 300
g = ot.grid_graph(p, 1.0)
v = np.arange(g.n)
parent = np.where(v % p > 0, v - 1, v - p)  # a comb: along each row, down the first column
parent[0] = -1
comb = RootedTree(0, parent, np.where(parent < 0, 0.0, 1.0))
xi, k = np.zeros(g.n), _kernels.kernels()
rng = np.random.default_rng(1)
rng.integers(0, 3)  # the generator now keeps a spare 32-bit half
before = rng.bit_generator.state
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (mapped + 80 * g.n, hard))
out = []
for tree in (comb, None):
    try:
        k.anneal_chain(tree, g, xi, 10, 1.0, 0.05, 10, float("nan"), rng)
    except MemoryError as exc:
        out.append([str(exc), rng.bit_generator.state == before])
print(json.dumps(out))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.parametrize("backend", ["python", *compiled_backends()])
def test_scratch_that_cannot_be_allocated_raises_memory_error(backend):
    proc = run_python(SCRATCH_PAST_THE_LIMIT, backend, timeout=60,
                      MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out) == 2 and all(untouched for _, untouched in out)
    if backend == "c":
        assert [message for message, _ in out] == [
            "C kernel stopped: its scratch space could not be allocated"] * 2


RANDOM_KERNELS = [k for k, names in SIGNATURES.items() if "rng" in names.split()]


def bit_exact(value):
    """``value`` with every array as its dtype and bytes, so that ``==``
    compares results bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(bit_exact, value))
    if isinstance(value, dict):
        return {key: bit_exact(item) for key, item in value.items()}
    return value


def ends_alike(loaded, kernel, make_rng) -> bool:
    """Whether every backend's ``kernel``, each drawing from a fresh
    ``make_rng()``, gives the same output bit for bit and leaves its
    generator in the same state, with the same next draws."""
    ends = {}
    for backend in loaded:
        rng = make_rng()
        start = bit_exact(rng.bit_generator.state)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "kernels", lambda: loaded[backend])
            out = call(getattr(loaded[backend], kernel), kernel, rng=rng)
        state = bit_exact(rng.bit_generator.state)
        assert state != start
        ends[backend] = (bit_exact(out), state, rng.integers(0, 1000), rng.random())
    return all(end == ends["python"] for end in ends.values())


@pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare-half"])
@pytest.mark.parametrize("kernel", RANDOM_KERNELS)
def test_random_kernels_leave_the_generator_alike_on_every_backend(kernel, spare, loaded):
    # spare-half: after integers(0, 3) the generator keeps the high half of
    # its last 64-bit output (has_uint32 == 1), which the kernel's first
    # 32-bit draw must take
    assert len(RANDOM_KERNELS) == 2

    def make_rng():
        rng = np.random.default_rng(seed)
        if spare:
            rng.integers(0, 3)
            assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    for seed in range(3):
        assert ends_alike(loaded, kernel, make_rng), seed


#: bit generators besides default_rng's PCG64, each with its own next_uint32
#: and next_double, which C calls through the bitgen_t
OTHER_BIT_GENERATORS = [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]


@pytest.mark.parametrize("kernel", RANDOM_KERNELS)
@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS, ids=lambda b: b.__name__)
def test_every_bit_generator_draws_alike_on_every_backend(bit_generator, kernel, loaded):
    for seed in range(3):
        assert ends_alike(loaded, kernel, lambda: np.random.Generator(bit_generator(seed))), seed


#: what is not a numpy Generator, as code, and how the message names it
NOT_A_GENERATOR = {
    "int": ("7", "int"),
    "RandomState": ("np.random.RandomState(7)", "RandomState"),
}

RANDOM_CALLS = """
import numpy as np
import treeot as ot
from treeot import _kernels
g = ot.grid_graph(3)
t = ot.random_spanning_tree(g, np.random.default_rng(0))
xi = np.linspace(-0.4, 0.4, g.n)
k = _kernels.kernels()
for draw in (lambda rng: ot.random_spanning_tree(g, rng),
             lambda rng: k.anneal_chain(t, g, xi, 50, 1.0, 0.05, 10, float("nan"), rng)):
    try:
        draw(RNG)
    except TypeError as exc:
        print(exc)
"""


@pytest.mark.parametrize("backend", ["python", *compiled_backends()])
@pytest.mark.parametrize("case", NOT_A_GENERATOR)
def test_random_kernels_need_a_pcg64_generator(case, backend):
    # any Generator is taken now, whatever its bit generator; the name stays
    # from when only PCG64 was. In a child interpreter, since an int once
    # reached C as the address of a bit generator and killed the process
    code, kind = NOT_A_GENERATOR[case]
    proc = run_python(RANDOM_CALLS.replace("RNG", code), backend, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{kernel}: needs a numpy Generator, not {kind}"
        for kernel in ("Wilson tree", "annealing chain")]
