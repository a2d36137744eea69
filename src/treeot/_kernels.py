"""The annealing, random-tree, tree-pass, transport-plan, exact-flow and
pair-distance kernels and the backends that run them.

``anneal_chain``, ``wilson_tree``, ``tree_potential``, ``dp_plan``,
``network_simplex``, ``tree_pairs`` and ``pair_distances`` below are the
reference kernels in plain Python.
``anneal_chain`` exchanges edges on cycles of a spanning tree through five
step functions, the one statement of its arithmetic and of the stop:
``exchange_cycle`` finds a cycle's breakpoints, ``breakpoint_costs`` prices
them, ``heat_bath`` draws the leaving edge, ``apply_exchange`` makes the
exchange, and ``certify`` proves the best tree optimal (its tree potential
is 1-Lipschitz on every graph edge), which ends the chain. Given no tree, it first draws one by
``wilson_tree``, so one call runs a whole chain. It writes one trace matrix
in ``TraceRecord``'s columns and stops at one best cost, ``stop_at``.
``tree_potential`` makes the subtree sums by ``subtree_sums``, the
leaves-to-root pass along a tree's ``order`` (by decreasing depth, then
increasing id, from the tree's numpy proof, the same on every backend), and
then the potential by the root-to-leaves one. The chain's trees are parent
links alone: it and ``certify`` order them by ``leaves_first`` and sum them
by ``subtree_sums`` along that queue, the only loop that adds a child's sum
into its parent's. ``dp_plan`` builds the dynamic-programming transport plan
in one leaves-first pass along a tree's ``order``: each vertex matches the
supplies and demands that meet there and hands the rest, of one sign, to its
parent; it writes the whole plan, those matches and the diagonal min(mu, nu),
in (row, col) order. ``network_simplex`` is the exact oracle's min-cost flow:
primal network simplex, which moves between spanning
trees of the flow network (here the source-to-sink transportation network,
or the graph's own arcs) with a dual potential at every step, and whose
optimal flow is basic, so its support is a forest. ``tree_pairs`` walks
vertex pairs to their lowest common ancestor for tree distances or plan
flows, and ``pair_distances`` runs Dijkstra from each distinct source of a
list of vertex pairs.

One ABI: each kernel has one argument list, shared by its reference here
and by ``treeot_<name>`` in ``_kernel.c``, whose ctypes argtypes
``C_SIGNATURES`` lists. It is ``n`` first, then the inputs, then the output
arrays that the caller allocates, and the kernel returns an int status, 0
on success. The kernels that draw random numbers take a numpy
``Generator``; C's ``rng`` is its bit generator's ``bitgen_t``, through whose
functions C draws as numpy does. Each implementation owns its scratch space: the
references but ``wilson_tree`` convert hot arrays to lists at entry, which
Python indexes faster, and the C functions allocate theirs and free it on every return
(``NO_MEMORY`` when that fails). Two backends run the kernels behind the
methods of one class, ``Kernels``, that both share: a method checks its
inputs, allocates the outputs, calls the backend and turns a failure
status into the exception of the one table ``_STATUS_ERRORS``. A kernel that walks a graph or a tree
takes a ``WeightedGraph`` or ``RootedTree``, whose construction proved it;
the chain takes the graph and a tree, or none and walks the tree it draws:

- ``c``: ``_kernel.c``, a transcription (the step functions as ``static``
  helpers) built on first use with the system C compiler and loaded through
  ``ctypes``, which releases the GIL; ``_c_call`` passes it the arrays and
  the generator's ``bitgen_t``;
- ``python``: the reference functions themselves.

``TREEOT_BACKEND`` names the backend. Unset, c is used if it loads, else
python with a warning. A named backend that cannot load, or an unknown name,
raises :class:`KernelBackendError`; there is no silent fallback. Traces,
trees, sums, potentials, plans, exact flows and distances are bit-identical
between backends: both draw from the caller's generator in the same way and
leave it at the same position, and do the same arithmetic in the same order
without fused multiply-adds.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import itertools
import math
import os
import platform
import shutil
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .errors import InputError, KernelBackendError, VertexRangeError
# graphs and trees import this module in turn; treeot/__init__ imports it
# first, so both are complete before any method reads these names
from .graphs import WeightedGraph
from .trees import RootedTree

C_SOURCE = Path(__file__).with_name("_kernel.c")
C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# dp_plan's status besides 0, shared with _kernel.c
PLAN_NO_MATCH = 5
# network_simplex's statuses besides 0, shared with _kernel.c
FLOW_BAD_COST = 7
FLOW_BUDGET = 8
FLOW_INFEASIBLE = 9
# a C kernel's status when it cannot allocate its scratch, shared with _kernel.c
NO_MEMORY = 16
#: the exception type and message of every failure status, the only place a
#: status becomes an exception (``u`` comes from the method); 2 to 4 and
#: ``NO_MEMORY`` come only from _kernel.c, past the methods' checks
_STATUS_ERRORS = {
    2: (ValueError, "C kernel stopped: a degree or arc count of 2^32 or more is not supported"),
    3: (ValueError, "C kernel stopped: a vertex count of 0 or of 2^32 or more is not supported"),
    4: (ValueError, "C kernel stopped: a random walk reached a vertex with no graph neighbour"),
    PLAN_NO_MATCH: (RuntimeError, "no matching vertex below {u}; residuals are inconsistent"),
    FLOW_BAD_COST: (RuntimeError, "an arc cost is negative or not finite"),
    FLOW_BUDGET: (RuntimeError, "pivot budget exhausted"),
    FLOW_INFEASIBLE: (RuntimeError, "the supplies cannot be met on these arcs"),
    NO_MEMORY: (MemoryError, "C kernel stopped: its scratch space could not be allocated"),
}
# why anneal_chain stopped, shared with _kernel.c
STOP_MAX_ITERS = 13
STOP_TARGET = 14
STOP_CERTIFIED = 15
STOP_REASONS = {STOP_MAX_ITERS: "max_iters", STOP_TARGET: "target", STOP_CERTIFIED: "certified"}
# proposals between the chain's fresh sums, which bound the updates' drift
RECOMPUTE_EVERY = 100_000
# relative slack of certify's Lipschitz test; it absorbs last-ulp differences
# in the edge comparison, not the rounding of u summed down the tree
CERT_RTOL = 1e-12
# an arc enters the network simplex's tree when its reduced cost is below
# -PRICE_RTOL * (largest arc cost): potentials summed down the tree round at
# about 1e-16 of it, and ties priced on that noise would pivot without end
PRICE_RTOL = 1e-12


class Kernels:
    """One backend's kernels, behind the methods that both backends share.
    ``run`` maps each kernel's name to the backend's function of the one
    argument list (see the module docstring). A method that walks a graph
    takes a :class:`WeightedGraph`, one that walks a tree a
    :class:`RootedTree` (each proven when it was built), one that draws
    random numbers a numpy ``Generator``, and raises
    ``TypeError`` for anything else. A method checks the other inputs, so
    that a malformed one raises the same exception with the same message on
    either backend (``ValueError``, or ``VertexRangeError`` for a pair vertex
    out of range), allocates the outputs, calls ``run`` on the object's
    arrays and raises the ``_STATUS_ERRORS`` entry of a failure status."""

    def __init__(self, name: str, run: dict):
        self.name = name
        self._run = run

    def anneal_chain(self, tree, graph, xi, max_iters, beta0, eta, record_every, stop_at, rng):
        """The chain of :func:`anneal_chain` on the graph from copies of the
        tree's links, or, with ``tree`` None, from the Wilson tree that the
        kernel draws first from ``rng``, refreshed every ``RECOMPUTE_EVERY``
        proposals, as ``(trace, max_drift, stop, root, (best_parent,
        best_wpar), (parent, wpar))``: ``trace`` is the rows written, the
        last one the stop's, the links are the best and the final tree's,
        both on the start's ``root``, and the final links are the best's
        own pair where no exchange followed the last best snapshot (the
        kernel's ``on_best``). A trace too long to allocate raises
        ``InputError``."""
        if tree is not None:
            _proven("annealing chain", tree, RootedTree)
        _proven("annealing chain", graph, WeightedGraph)
        _check_generator("annealing chain", rng)
        n = graph.n
        _check_arrays("annealing chain", (), ((xi, n),))
        if record_every < 1 or (tree is not None and tree.n != n):
            raise ValueError("annealing chain: record_every or parent count out of range")
        root, parent, wpar = ((-1, np.empty(n, dtype=np.int64), np.empty(n)) if tree is None else
                              (tree.root, tree.parent.copy(), tree.weight_to_parent.copy()))
        best_parent, best_wpar = np.empty_like(parent), np.empty_like(wpar)
        rows = max(max_iters, 0) // record_every + 2
        try:
            trace = np.empty((rows, 5))  # TraceRecord's columns; the kernel writes each row read
        except (ValueError, MemoryError):  # ValueError: numpy refuses the shape itself
            raise InputError(f"a trace of {rows} rows cannot be allocated: lower max_iters "
                             "(--iters) or raise record_every (--record-every)") from None
        out_d, out_i = np.empty(1), np.empty(4, dtype=np.int64)
        _check_status(self._run["anneal_chain"](
            n, root, parent, wpar, graph.indptr, graph.indices, graph.weights, xi, max_iters,
            beta0, eta, record_every, RECOMPUTE_EVERY, stop_at, CERT_RTOL, rng, best_parent,
            best_wpar, trace, out_d, out_i))
        records, stop, root, on_best = out_i.tolist()
        best = best_parent, best_wpar
        return trace[:records], out_d[0], stop, root, best, best if on_best else (parent, wpar)

    def wilson_tree(self, graph, rng):
        """``(root, parent, wpar)`` of :func:`wilson_tree`'s draw."""
        _proven("Wilson tree", graph, WeightedGraph)
        _check_generator("Wilson tree", rng)
        n = graph.n
        parent, wpar, root = np.empty(n, dtype=np.int64), np.empty(n), np.empty(1, dtype=np.int64)
        _check_status(self._run["wilson_tree"](n, graph.indptr, graph.indices, graph.weights, rng,
                                               parent, wpar, root))
        return int(root[0]), parent, wpar

    def tree_potential(self, tree, xi):
        """``(sums, u)``, the subtree sums of the values ``xi`` and the tree
        potential from one :func:`tree_potential` call, new float64 arrays."""
        _proven("tree potential", tree, RootedTree)
        sums = np.array(xi, dtype=np.float64)
        _check_arrays("tree potential", (), ((sums, tree.n),))
        u = np.zeros(tree.n)
        _check_status(self._run["tree_potential"](tree.n, tree.parent, tree.order,
                                                  tree.weight_to_parent, sums, u))
        return sums, u

    def dp_plan(self, tree, mu, nu, xi, zero_tol):
        """``(rows, cols, mass)``, the plan that :func:`dp_plan` writes,
        whose keys row * n + col must rise strictly and masses be positive
        and finite, before its status is read; else ``RuntimeError``."""
        _proven("plan kernel", tree, RootedTree)
        n = tree.n
        _check_arrays("plan kernel", (), ((mu, n), (nu, n), (xi, n)))
        rows, cols = np.empty(2 * n, dtype=np.int64), np.empty(2 * n, dtype=np.int64)
        mass, out_k = np.empty(2 * n), np.empty(2, dtype=np.int64)
        status = self._run["dp_plan"](n, tree.parent, tree.order, mu, nu,
                                      np.array(xi, dtype=np.float64), float(zero_tol), rows, cols,
                                      mass, out_k)
        count, u = out_k.tolist()
        rows, cols, mass = rows[:count], cols[:count], mass[:count]
        keys = rows * n + cols
        rising = keys[1:] > keys[:-1]
        if not rising.all():
            j = int(rising.argmin()) + 1
            r, c = int(rows[j]), int(cols[j])
            kind, fault = ("diagonal" if r == c else "off-diagonal",
                           "twice" if keys[j] == keys[j - 1] else "out of order")
            raise RuntimeError(f"plan construction wrote {kind} entry {(r, c)} {fault}")
        if not ((mass > 0.0) & (mass < math.inf)).all():
            raise RuntimeError("plan construction wrote a mass that is not positive and finite")
        _check_status(status, u=u)
        return rows, cols, mass

    def network_simplex(self, supply, tail, head, cost):
        """``(flow, pi, pivots)``: the arc flows and node potentials of
        :func:`network_simplex` at ``PRICE_RTOL`` as float64 arrays, and its
        pivot count."""
        n, m = supply.shape[0], cost.shape[0]
        _check_arrays("network simplex", ((tail, m), (head, m)), ((supply, n), (cost, m)))
        if m and not (0 <= min(tail.min(), head.min()) and max(tail.max(), head.max()) < n):
            raise ValueError("network simplex: arc endpoint out of range")
        flow, pi, pivots = np.empty(m), np.empty(n), np.zeros(1, dtype=np.int64)
        _check_status(self._run["network_simplex"](n, m, supply, tail, head, cost, PRICE_RTOL, flow,
                                                   pi, pivots))
        return flow, pi, int(pivots[0])

    def tree_pairs(self, tree, xs, ys, mass):
        """With ``mass`` None the tree distance of every pair, else the 2n
        edge flows of :func:`tree_pairs`."""
        _proven("tree pair walk", tree, RootedTree)
        n, k = tree.n, xs.shape[0]
        _check_arrays("tree pair walk", ((xs, k), (ys, k)), () if mass is None else ((mass, k),))
        _check_pairs(n, xs, ys)
        out = np.zeros(k if mass is None else 2 * n)
        _check_status(self._run["tree_pairs"](n, tree.parent, tree.depth, tree.weight_to_parent, k,
                                              xs, ys, mass, out))
        return out

    def pair_distances(self, graph, xs, ys):
        """The shortest-path distance of every pair, by :func:`pair_distances`
        on the pairs ordered by source (stably)."""
        _proven("shortest paths", graph, WeightedGraph)
        k = xs.shape[0]
        _check_arrays("shortest paths", ((xs, k), (ys, k)), ())
        _check_pairs(graph.n, xs, ys)
        out = np.empty(k)
        _check_status(self._run["pair_distances"](graph.n, graph.indptr, graph.indices,
                                                  graph.weights, k, xs, ys,
                                                  np.argsort(xs, kind="stable"), out))
        return out


_lock = threading.Lock()
_backend: Kernels | None = None


def kernel_backend() -> str:
    """Name of the backend that runs the kernels in this process."""
    return kernels().name


def numba_enabled() -> bool:
    """Always ``False``: no backend JIT-compiles the kernels. Kept because
    ``perfbench/run.py`` still reads it."""
    return False


def kernels() -> Kernels:
    """The kernels of the backend that runs them in this process, selected
    on the first call."""
    global _backend
    with _lock:
        if _backend is None:
            _backend = _select(os.environ.get("TREEOT_BACKEND", "").strip().lower())
        return _backend


def _select(name: str) -> Kernels:
    if name == "":
        try:
            return _load_c()
        except KernelBackendError as exc:
            warnings.warn(f"treeot runs the plain-Python kernels (c: {exc})",
                          RuntimeWarning, stacklevel=4)
        return _load_python()
    if name not in _LOADERS:
        raise KernelBackendError(
            f"TREEOT_BACKEND={name!r} is not one of {', '.join(_LOADERS)}")
    try:
        return _LOADERS[name]()
    except KernelBackendError as exc:
        raise KernelBackendError(f"TREEOT_BACKEND={name}: {exc}") from exc


def _load_python() -> Kernels:
    return Kernels("python", {name: globals()[name] for name in C_SIGNATURES})


def _proven(kernel: str, obj, kind: type) -> None:
    """Raise ``TypeError`` unless ``obj`` is a ``kind``, whose construction
    proved the graph or tree that the kernel walks."""
    if not isinstance(obj, kind):
        raise TypeError(f"{kernel}: needs a {kind.__name__}, not {type(obj).__name__}")


def _check_generator(kernel: str, rng) -> None:
    """Raise ``TypeError`` unless ``rng`` is a numpy ``Generator``, whose bit
    generator both backends draw through."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"{kernel}: needs a numpy Generator, not {type(rng).__name__}")


def _check_status(status: int, **context) -> None:
    """Raise the ``_STATUS_ERRORS`` entry of a nonzero kernel status, its
    message formatted with ``context``."""
    if status:
        kind, message = _STATUS_ERRORS[status]
        raise kind(message.format(**context))


def _check_arrays(kernel: str, ints, floats) -> None:
    """Raise unless every ``(array, size)`` pair is a contiguous 1-D array of
    the dtype and at least the size the kernels index."""
    for arrays, dtype in ((ints, np.int64), (floats, np.float64)):
        for a, size in arrays:
            if a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous or a.shape[0] < size:
                raise ValueError(f"{kernel}: needs contiguous {dtype.__name__} arrays of the "
                                 "input's sizes")


def _check_pairs(n: int, xs, ys) -> None:
    if xs.shape[0] and not (0 <= min(xs.min(), ys.min()) and max(xs.max(), ys.max()) < n):
        raise VertexRangeError(f"a pair vertex is out of range for n={n}")


#: ``PyCapsule_GetPointer`` with its own prototype, leaving the shared
#: ``ctypes.pythonapi`` entry as other code set it
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _c_call(fn, at, *args):
    """Call the C function ``fn``, passing an array as the address of its
    data and the numpy ``Generator`` at position ``at`` (None for a kernel
    that draws nothing) as the address of its bit generator's ``bitgen_t``,
    read off numpy's public ``bit_generator.capsule``. C draws through the
    bit generator's own functions under its lock, so that no other thread
    draws from it meanwhile."""
    c_args = [a.ctypes.data if isinstance(a, np.ndarray) else a for a in args]
    if at is None:
        return fn(*c_args)
    bit_generator = args[at].bit_generator
    with bit_generator.lock:
        c_args[at] = _capsule_pointer(bit_generator.capsule, b"BitGenerator")
        return fn(*c_args)


_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
#: the argtypes of ``treeot_<name>`` in ``_kernel.c``, the C function of the
#: reference kernel ``<name>`` below; each returns an ``int`` status
C_SIGNATURES = {
    "anneal_chain": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _F64, _F64, _I64, _I64,
                     _F64, _F64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "wilson_tree": [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    "dp_plan": [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR, _PTR],
    "network_simplex": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR],
    "tree_potential": [_I64, _PTR, _PTR, _PTR, _PTR, _PTR],
    "tree_pairs": [_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR],
    "pair_distances": [_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR],
}


def _load_c() -> Kernels:
    try:
        lib = ctypes.CDLL(str(build_c_kernel()))
    except OSError as exc:
        raise KernelBackendError(f"cannot load the C kernel ({exc})") from exc
    run = {}
    for name, argtypes in C_SIGNATURES.items():
        fn = getattr(lib, f"treeot_{name}")
        fn.restype, fn.argtypes = ctypes.c_int, argtypes
        params = globals()[name].__code__.co_varnames[:len(argtypes)]
        run[name] = functools.partial(_c_call, fn, params.index("rng") if "rng" in params else None)
    return Kernels("c", run)


def _compiler() -> list[str]:
    """Command of the C compiler: ``$CC`` if set, else cc, gcc or clang."""
    import shlex

    if os.environ.get("CC"):
        command = shlex.split(os.environ["CC"])
        candidates = [command]
    else:
        candidates = [["cc"], ["gcc"], ["clang"]]
    for command in candidates:
        path = shutil.which(command[0])
        if path:
            return [path, *command[1:]]
    raise KernelBackendError(
        "no C compiler found: none of " + ", ".join(c[0] for c in candidates) + " is on PATH")


def cache_dir() -> Path:
    """Where built kernels are kept: ``$TREEOT_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/treeot``, else ``~/.cache/treeot``."""
    if os.environ.get("TREEOT_CACHE_DIR"):
        return Path(os.environ["TREEOT_CACHE_DIR"])
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "treeot"


def build_c_kernel() -> Path:
    """Path of the shared library built from ``_kernel.c``, compiling it first
    unless the cache holds one for this source, compiler and flags."""
    # imported here, not at module level, so that importing treeot stays as light as before
    import hashlib
    import shlex
    import subprocess

    compiler = _compiler()
    source = C_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, shlex.join([*compiler, *C_FLAGS]).encode(), platform.machine().encode()]
    )).hexdigest()[:16]
    lib = cache_dir() / f"kernel-{key}.so"
    if lib.exists():
        return lib
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        # build under a unique name, then rename: no process loads a partial file
        fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=lib.parent)
        os.close(fd)
        try:
            proc = subprocess.run([*compiler, *C_FLAGS, "-o", tmp, str(C_SOURCE), "-lm"],
                                  capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise KernelBackendError(
                    f"{compiler[0]} failed on {C_SOURCE.name}: {proc.stderr.strip()[-800:]}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBackendError(f"cannot build the C kernel in {lib.parent} ({exc})") from exc
    return lib


_LOADERS = {"c": _load_c, "python": _load_python}


def leaves_first(parent):
    """The leaves-first queue (root last) of the tree given by parent links:
    the leaves by id, then each parent as its last child is reached."""
    pending = np.bincount(parent[parent >= 0], minlength=parent.shape[0]).tolist()
    parent = parent.tolist()
    queue = [v for v, k in enumerate(pending) if k == 0]
    for v in queue:  # the queue grows as it is walked
        p = parent[v]
        if p >= 0:
            pending[p] -= 1
            if pending[p] == 0:
                queue.append(p)
    return np.array(queue, dtype=np.int64)


def recompute_cumulative(parent, xi_node):
    """Fresh subtree sums of xi_node for the tree given by parent links, by
    ``subtree_sums`` along ``leaves_first``."""
    out = xi_node.copy()
    subtree_sums(parent.shape[0], parent, leaves_first(parent), out)
    return out


def tree_cost(parent, wpar, xi_cum):
    """Sum of w(x, parent) * |cumulative imbalance| over non-root vertices."""
    total = 0.0
    for v in range(len(parent)):
        if parent[v] >= 0:
            total += wpar[v] * abs(xi_cum[v])
    return total


def exchange_cycle(parent, wpar, xi_cum, a, b, w, mark, stamp):
    """``(pa, pb, t, wt)`` for the non-tree arc (a, b) of weight ``w``: the
    paths from a and b to their lowest common ancestor (excluded), climbed
    alternately and stamped in ``mark`` with 2·stamp + side, and the
    breakpoints of f(θ) = w|θ| + Σ_pb wpar·|ξ + θ| + Σ_pa wpar·|ξ − θ|, the
    cost of pushing θ from a to b, with their weights: 0 for the entering
    arc, then −ξ along ``pb``, then +ξ along ``pa``."""
    paths = ([a], [b])
    mark[a], mark[b] = 2 * stamp, 2 * stamp + 1
    for side in itertools.cycle((0, 1)):
        v = parent[paths[side][-1]]
        if v < 0:
            continue
        if mark[v] == 2 * stamp + 1 - side:
            del paths[1 - side][paths[1 - side].index(v):]
            break
        mark[v] = 2 * stamp + side
        paths[side].append(v)
    pa, pb = paths
    t = [0.0] + [-xi_cum[x] for x in pb] + [xi_cum[x] for x in pa]
    return pa, pb, t, [w] + [wpar[x] for x in pb + pa]


def breakpoint_costs(t, wt):
    """f(t[k]) = Σ_i wt[i]·|t[k] − t[i]| at every breakpoint k: summed at
    the least of them, then swept along them sorted by (t, index), each from
    the last by the slope between them."""
    order = sorted(range(len(t)), key=t.__getitem__)
    value = total = left = 0.0
    for i in order:
        value += wt[i] * (t[i] - t[order[0]])
        total += wt[i]
    f = [value] * len(t)
    for prev, i in zip(order, order[1:]):
        left += wt[prev]
        value += (t[i] - t[prev]) * (left - (total - left))
        f[i] = value
    return f


def heat_bath(f, fmin, beta, s, u):
    """The breakpoint that the draw ``u`` in [0, 1) picks: one at ``fmin``
    weighs 1, any other exp(−beta·(f − fmin)/s), or 0 where s is 0 (or beta
    inf); the first whose running weight exceeds u times the total."""
    running = list(itertools.accumulate(
        1.0 if x == fmin else math.exp(-(beta * (x - fmin) / s)) if s > 0.0 else 0.0 for x in f))
    return next(k for k, r in enumerate(running) if r > u * running[-1])


def apply_exchange(parent, wpar, xi_cum, pa, pb, a, b, w, k):
    """The exchange at breakpoint ``k`` > 0, in place: with its vertex c on
    ``pa``, θ = ξ_c is added along ``pb`` and taken above c, and a … c hang
    from b, each by its old parent's edge with θ minus that parent's old ξ;
    with c on ``pb``, a and b trade roles. The root never moves."""
    cut, other, hang, k = (pa, pb, b, k - 1 - len(pb)) if k > len(pb) else (pb, pa, a, k - 1)
    theta = xi_cum[cut[k]]
    for x in other:
        xi_cum[x] += theta
    for x in cut[k + 1:]:
        xi_cum[x] -= theta
    for i in range(k, 0, -1):
        parent[cut[i]], wpar[cut[i]] = cut[i - 1], wpar[cut[i - 1]]
        xi_cum[cut[i]] = theta - xi_cum[cut[i - 1]]
    parent[cut[0]], wpar[cut[0]], xi_cum[cut[0]] = hang, w, theta


def certify(n, parent, wpar, indptr, indices, adj_w, xi_node, cert_rtol):
    """Whether the spanning tree given by parent links is optimal by its own
    certificate: its tree potential is 1-Lipschitz, within ``cert_rtol``
    (``CERT_RTOL`` in the chain), on every arc of the CSR graph.

    ``tree_potential`` (sign +1 where the cumulative imbalance is exactly 0)
    sums ``xi_node`` afresh along the queue of ``leaves_first``.
    Summation by parts makes the potential's value the tree's cost, so in
    exact arithmetic a potential that passes proves, by Kantorovich-Rubinstein
    duality, that W1 >= cost / (1 + cert_rtol). In floating point the test is
    exact only up to the rounding of u, which is summed along tree paths and
    so can err by about depth * eps * max|u|; that error can exceed the slack
    w * cert_rtol on deep trees, so a violation below it can pass. Where a
    cumulative imbalance is 0 an optimal tree may fail.
    """
    u = np.zeros(n)
    tree_potential(n, parent, leaves_first(parent), wpar, xi_node.copy(), u)
    for a in range(n):
        for j in range(indptr[a], indptr[a + 1]):
            if abs(u[a] - u[indices[j]]) > adj_w[j] * (1.0 + cert_rtol):
                return False
    return True


def anneal_chain(n, root, parent, wpar, indptr, indices, adj_w, xi_node, max_iters, beta0,
                 eta, record_every, recompute_every, stop_at, cert_rtol, rng, best_parent,
                 best_wpar, trace, out_d, out_i):
    """Run one annealing chain over the spanning trees of one root, in place.

    It starts from the tree in ``parent`` and ``wpar`` rooted at ``root``,
    or, where ``root`` is -1, from the one that ``wilson_tree`` first draws
    into them, and sums ``xi_node`` over it by ``recompute_cumulative``
    (``subtree_sums`` along ``leaves_first``).
    Per iteration: draw a CSR arc by ``rng.integers``; unless it is a tree
    edge, score its cycle, fold f(0) − min f into s (their running mean),
    draw a breakpoint by ``heat_bath`` with ``rng.random()`` and exchange
    unless it is the entering arc's; then scale beta by ``1 + eta``, and
    every ``recompute_every`` iterations (0: never) sum afresh. The best
    tree, judged after any recomputation, is copied into ``best_parent`` and
    ``best_wpar``. A ``trace`` row is (iteration, current and best cost,
    beta, the share of the proposals since the previous row that changed the
    tree); row 0 is the start, and every stop writes the last row.

    ``max_iters`` is a budget. The chain stops early with ``STOP_TARGET``
    once the best cost is at most ``stop_at`` (never where it is NaN), or
    with ``STOP_CERTIFIED`` once ``certify`` proves the best tree optimal.
    ``certify`` runs on the initial tree and then on each trace row where the
    best cost has dropped since its last run; the target stop is tested
    first. Writes ``out_d`` = (max_drift,) and ``out_i`` = (records, stop,
    root, on_best), ``stop`` one of the ``STOP_*`` codes, ``on_best`` 1
    where no exchange followed the last copy into ``best_parent``, and
    returns 0.
    """
    # the scratch, before the start is drawn, as C allocates it
    mark = [0] * n
    tails = np.repeat(np.arange(n), np.diff(indptr[:n + 1])).tolist()
    arcs, indices, adj_w = int(indptr[n]), indices.tolist(), adj_w.tolist()
    out_i[2] = root
    if root < 0:
        wilson_tree(n, indptr, indices, adj_w, rng, parent, wpar, out_i[2:])
    xi_cum = recompute_cumulative(parent, xi_node).tolist()
    out = parent, wpar
    parent, wpar = (a.tolist() for a in out)
    current = tree_cost(parent, wpar, xi_cum)
    best = current
    best_parent[:] = parent
    best_wpar[:] = wpar

    gap_sum, gaps = 0.0, 0
    # changes of the tree since the last row, its iteration, and none since the last best copy
    moved, last_row, on_best = 0, 0, 1
    beta, max_drift = beta0, 0.0
    trace[0] = 0, current, best, beta, 0.0
    records = 1

    stop = STOP_MAX_ITERS
    if best <= stop_at:
        stop = STOP_TARGET
    elif certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node, cert_rtol):
        stop = STOP_CERTIFIED
    if stop != STOP_MAX_ITERS:
        max_iters = 0  # the chain stops where it starts
    checked = best

    for it in range(1, max_iters + 1):
        j = int(rng.integers(0, arcs))
        a, b = tails[j], indices[j]
        if parent[a] != b and parent[b] != a:
            pa, pb, t, wt = exchange_cycle(parent, wpar, xi_cum, a, b, adj_w[j], mark, it)
            f = breakpoint_costs(t, wt)
            fmin = min(f)
            gap_sum += f[0] - fmin
            gaps += 1
            k = heat_bath(f, fmin, beta, gap_sum / gaps, rng.random())
            if k > 0:
                apply_exchange(parent, wpar, xi_cum, pa, pb, a, b, adj_w[j], k)
                current += f[k] - f[0]
                moved += 1
                on_best = 0
        beta = beta * (1.0 + eta)

        if recompute_every > 0 and it % recompute_every == 0:
            xi_cum = recompute_cumulative(np.array(parent), xi_node).tolist()
            fresh_cost = tree_cost(parent, wpar, xi_cum)
            drift = abs(fresh_cost - current)
            if drift > max_drift:
                max_drift = drift
            current = fresh_cost
        if current < best:
            best = current
            best_parent[:] = parent
            best_wpar[:] = wpar
            on_best = 1

        on_target = best <= stop_at
        if it % record_every == 0 or it == max_iters or on_target:
            trace[records] = it, current, best, beta, moved / (it - last_row)
            records += 1
            moved, last_row = 0, it
            if on_target:
                stop = STOP_TARGET
                break
            if best < checked:
                checked = best
                if certify(n, best_parent, best_wpar, indptr, indices, adj_w, xi_node, cert_rtol):
                    stop = STOP_CERTIFIED
                    break

    for array, values in zip(out, (parent, wpar)):
        array[:] = values
    out_d[0] = max_drift
    out_i[0], out_i[1], out_i[3] = records, stop, on_best
    return 0


def wilson_tree(n, indptr, indices, adj_w, rng, parent, wpar, out_root):
    """Draw a uniform random spanning tree by loop-erased random walks
    (Wilson, STOC 1996) into ``parent`` and ``wpar``, and its root into
    ``out_root[0]``; return 0.

    The root is ``rng.integers(0, n)``. Walks start from each vertex not yet
    in the tree, in increasing order, and step to the neighbour at CSR
    position ``rng.integers(0, deg)`` (no draw where deg == 1) until they hit
    the tree; overwriting a vertex's parent link erases any loop through it.
    ``wpar[v]`` is the CSR weight of the edge to ``parent[v]``.
    """
    root = rng.integers(0, n)
    in_tree = np.zeros(n, dtype=np.bool_)
    in_tree[root] = True
    parent[root] = -1
    wpar[root] = 0.0
    for start in range(n):
        v = start
        while not in_tree[v]:
            lo = indptr[v]
            k = rng.integers(0, indptr[v + 1] - lo)
            parent[v] = indices[lo + k]
            wpar[v] = adj_w[lo + k]
            v = parent[v]
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            v = parent[v]
    out_root[0] = root
    return 0


def subtree_sums(n, parent, order, out):
    """Turn the vertex values in ``out`` into subtree sums, in place: along
    the n entries of ``order`` (leaves first), each vertex adds its entry
    into its parent's."""
    parent, sums = parent.tolist(), out.tolist()
    for v in order[:n].tolist():
        p = parent[v]
        if p >= 0:
            sums[p] += sums[v]
    out[:] = sums


def tree_potential(n, parent, order, wpar, sums, u):
    """The tree potential into ``u`` (zero on entry): ``subtree_sums`` turns
    the vertex values in ``sums`` into the cumulative imbalance, in place;
    then, walking the n entries of ``order`` backwards (root first), u[v] =
    u[parent] + wpar[v] * s, where s is the sign of ``sums[v]``, +1 where it
    is 0 (either zero). Returns 0."""
    subtree_sums(n, parent, order, sums)
    parent, order, wpar, xi_cum, values = (a.tolist() for a in (parent, order, wpar, sums, u))
    for i in range(n - 1, -1, -1):
        v = order[i]
        p = parent[v]
        if p < 0:
            continue
        values[v] = values[p] + (wpar[v] if xi_cum[v] >= 0.0 else -wpar[v])
    u[:] = values
    return 0


def dp_plan(n, parent, order, mu, nu, xi, zero_tol, out_x, out_y, out_m, out_k):
    """The dynamic-programming optimal plan on the tree given by ``parent``
    and ``order`` (leaves first, root last), for the residuals ``xi`` (mu -
    nu), into ``out_x``, ``out_y`` and ``out_m`` (2n slots): the matches
    below and min(mu, nu) > 0 on the diagonal, by (row, col), also where it
    returns ``PLAN_NO_MATCH`` (residuals left at the root ``u``, -1 where
    there is none) rather than 0. ``out_k`` receives (count, u).

    One pass along ``order``. Every vertex holds two linked lists of
    residual tokens (vertex ids), supplies and demands, that start empty;
    residuals of magnitude at most ``zero_tol`` count as zero. At vertex v,
    v's own nonzero residual joins the list of its sign; then, while both
    lists are non-empty, their heads a (supply) and b (demand) are matched
    with mass min(xi[a], -xi[b]), and a token whose residual falls to
    ``zero_tol`` or below is zeroed and dropped. The list left non-empty, of
    one sign, is appended to the parent's list of that sign. An edge so
    carries exactly its subtree's imbalance, and every match drops a token,
    so the plan costs the tree distance and has at most n - 1 off-diagonal
    entries, no pair twice. C orders them by a counting sort on rows.
    """
    parent, order = parent.tolist(), order.tolist()
    xi = [0.0 if abs(x) <= zero_tol else x for x in xi[:n].tolist()]
    nxt = [-1] * n
    # head and tail of v's supplies at 2v, of its demands at 2v + 1
    head, tail = [-1] * (2 * n), [-1] * (2 * n)
    rows, cols, mass = [], [], []
    out_k[:] = 0, -1
    status = 0
    for v in order:
        if xi[v] != 0.0:
            side = 2 * v + (xi[v] < 0.0)
            if head[side] < 0:
                head[side] = v
            else:
                nxt[tail[side]] = v
            tail[side] = v
        a, b = head[2 * v], head[2 * v + 1]
        while a >= 0 and b >= 0:
            m = min(xi[a], -xi[b])
            rows.append(a)
            cols.append(b)
            mass.append(m)
            xi[a] -= m
            xi[b] += m
            if xi[a] <= zero_tol:
                xi[a] = 0.0
                a = nxt[a]
            if -xi[b] <= zero_tol:
                xi[b] = 0.0
                b = nxt[b]
        head[2 * v], head[2 * v + 1] = a, b
        if a < 0 and b < 0:
            continue
        p = parent[v]
        if p < 0:
            out_k[1] = v
            status = PLAN_NO_MATCH
            break
        side, to = 2 * v + (a < 0), 2 * p + (a < 0)
        if head[to] < 0:
            head[to] = head[side]
        else:
            nxt[tail[to]] = head[side]
        tail[to] = tail[side]
    plan = [(v, v, d) for v, d in enumerate(np.minimum(mu[:n], nu[:n]).tolist()) if d > 0.0]
    plan = sorted(plan + list(zip(rows, cols, mass)), key=lambda e: e[:2])
    count = out_k[0] = len(plan)
    out_x[:count], out_y[:count], out_m[:count] = zip(*plan) if plan else ((), (), ())
    return status


def network_simplex(n, m, supply, tail, head, cost, price_rtol, flow, pi, out_pivots):
    """Min-cost flow by primal network simplex over spanning trees.

    Nodes 0..n-1 have ``supply`` (negative for demand); arc k < m runs from
    ``tail[k]`` to ``head[k]`` at ``cost[k]``, uncapacitated. Returns 0 or a
    ``FLOW_*`` status, and writes the pivots made into ``out_pivots[0]``. On
    success ``flow`` and ``pi`` receive the m arc flows and n node
    potentials, with cost[k] - pi[tail[k]] + pi[head[k]] >= -price_rtol *
    max(cost) on every arc, and pi[tail] - pi[head] = cost on the final
    tree's arcs (up to the rounding of pi summed down the tree), which hold
    the support, so the flow is basic.

    The initial tree hangs every node v from an artificial root n by the
    artificial arc m + v, of symbolic cost M: v -> root carrying supply[v]
    when it is >= 0, else root -> v carrying -supply[v]. The root absorbs
    the float residual of sum(supply), no flow goes negative, and
    artificial arcs never enter again. A potential is a real part and a
    count of M, compared lexicographically, so M needs no numeric value and
    never rounds the real part. After every pivot the tree is re-walked
    from the root, so potentials and depths are a function of the tree
    alone.

    Pricing scans blocks of ceil(sqrt(m)) arcs, aligned at multiples of the
    block size, from the block after the last entering arc's, cyclically;
    the first block holding an arc of reduced cost below
    -price_rtol * max(cost) gives the most negative one, ties to the lowest
    arc index. The leaving arc is Cunningham's: the last blocking arc met
    when the cycle is walked along the entering arc from the join. That
    keeps every tree strongly feasible (zero-flow arcs point to the root),
    so degenerate pivots cannot cycle. Statuses: ``FLOW_BAD_COST`` when a
    cost is negative or not finite, ``FLOW_BUDGET`` after
    10 (n + m) + 100 pivots, ``FLOW_INFEASIBLE`` when the final tree keeps
    artificial arcs of both directions, so the potentials' M counts differ
    (some supply cannot reach a demand).
    """
    supply, tail, head, cost = (a.tolist() for a in (supply, tail, head, cost))
    out_pivots[0] = 0
    cmax = 0.0
    for c in cost[:m]:
        if not (c >= 0.0 and c < math.inf):
            return FLOW_BAD_COST
        if c > cmax:
            cmax = c
    tol = price_rtol * cmax
    root = n
    # arc m + v is v's artificial arc; up[v]: v's tree arc points to its parent
    fl = [0.0] * (m + n)
    parent = [root] * n + [-1]
    pred = [m + v for v in range(n)] + [-1]
    up = [supply[v] >= 0.0 for v in range(n)] + [False]
    for v in range(n):
        fl[m + v] = supply[v] if up[v] else -supply[v]
    pr = [0.0] * (n + 1)  # real part of the potential
    pm = [0] * (n + 1)  # count of M in the potential
    depth = [0] * (n + 1)
    seen = [0] * (n + 1)
    stack = [0] * (n + 1)
    block = math.isqrt(m - 1) + 1 if m else 1
    blocks = (m + block - 1) // block
    next_block = 0
    guard = 10 * (n + m) + 100
    pivots = 0
    while True:
        # potentials and depths, each node after its parent: tree arcs have
        # reduced cost 0, pi[tail] - pi[head] = cost
        seen[root] = pivots + 1
        for v in range(n):
            k = 0
            u = v
            while seen[u] != pivots + 1:
                stack[k] = u
                k += 1
                u = parent[u]
            while k:
                k -= 1
                u = stack[k]
                p = parent[u]
                e = pred[u]
                if e >= m:
                    pr[u] = pr[p]
                    pm[u] = pm[p] + 1 if up[u] else pm[p] - 1
                elif up[u]:
                    pr[u] = cost[e] + pr[p]
                    pm[u] = pm[p]
                else:
                    pr[u] = pr[p] - cost[e]
                    pm[u] = pm[p]
                depth[u] = depth[p] + 1
                seen[u] = pivots + 1

        enter = -1
        best_m = 0
        best_r = -tol
        for step in range(blocks):
            b = (next_block + step) % blocks
            for e in range(b * block, min(m, (b + 1) * block)):
                t = tail[e]
                h = head[e]
                rm = pm[h] - pm[t]
                if rm > best_m:
                    continue
                rr = cost[e] - pr[t] + pr[h]
                if rm < best_m or rr < best_r:
                    best_m = rm
                    best_r = rr
                    enter = e
            if enter >= 0:
                next_block = (b + 1) % blocks
                break
        if enter < 0:
            break
        if pivots == guard:
            out_pivots[0] = pivots
            return FLOW_BUDGET
        pivots += 1

        p = tail[enter]
        q = head[enter]
        a, b = p, q
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
            if depth[b] > depth[a]:
                b = parent[b]
        join = a
        # blocking arcs lose flow: up arcs on p's side, down arcs on q's.
        # The last one met from the join along the entering arc leaves: on
        # q's side the one nearest the join, else on p's the one nearest p.
        delta = math.inf
        out = -1
        u = p
        while u != join:
            if up[u] and fl[pred[u]] < delta:
                delta = fl[pred[u]]
                out = u
            u = parent[u]
        cut, graft = p, q
        u = q
        while u != join:
            if not up[u] and fl[pred[u]] <= delta:
                delta = fl[pred[u]]
                out = u
                cut, graft = q, p
            u = parent[u]
        if delta > 0.0:
            fl[enter] += delta
            u = p
            while u != join:
                if up[u]:
                    fl[pred[u]] -= delta
                else:
                    fl[pred[u]] += delta
                u = parent[u]
            u = q
            while u != join:
                if up[u]:
                    fl[pred[u]] += delta
                else:
                    fl[pred[u]] -= delta
                u = parent[u]
        # hang the cut side from the entering arc: reverse the links from
        # its endpoint up to the leaving arc's lower node
        v = cut
        new_parent = graft
        new_arc = enter
        while True:
            old_parent = parent[v]
            old_arc = pred[v]
            parent[v] = new_parent
            pred[v] = new_arc
            up[v] = tail[new_arc] == v
            if v == out:
                break
            new_parent = v
            new_arc = old_arc
            v = old_parent

    out_pivots[0] = pivots
    for v in range(n):
        if pm[v] != pm[0]:
            return FLOW_INFEASIBLE
    flow[:], pi[:] = fl[:m], pr[:n]
    return 0


def tree_pairs(n, parent, depth, wpar, k, xs, ys, mass, out):
    """Walk each of the k pairs ``(xs[i], ys[i])`` to its lowest common
    ancestor in the tree given by ``parent`` and ``depth``: each round moves
    the deeper end to its parent, or both ends at equal depth. With ``mass``
    None, ``out[i]`` gets the pair's tree distance, each round adding the
    weights ``wpar`` of both ends' moves as one sum. Otherwise ``out`` holds
    2n zeros, and every edge a pair climbs from child ``a`` adds ``mass[i]``
    to ``out[a]`` (up), every edge it descends to child ``b`` to
    ``out[n + b]`` (down), so each edge adds its pairs' masses in pair
    order. The links must be a proven tree, so every walk meets. Returns 0.
    """
    parent, depth, wpar, xs, ys, values = (a.tolist() for a in (parent, depth, wpar, xs, ys, out))
    mass = None if mass is None else mass.tolist()
    for i in range(k):
        a = xs[i]
        b = ys[i]
        total = 0.0
        while a != b:
            move_a = depth[a] >= depth[b]
            move_b = depth[b] >= depth[a]
            if mass is None:
                total += (wpar[a] if move_a else 0.0) + (wpar[b] if move_b else 0.0)
            else:
                if move_a:
                    values[a] += mass[i]
                if move_b:
                    values[n + b] += mass[i]
            if move_a:
                a = parent[a]
            if move_b:
                b = parent[b]
        if mass is None:
            values[i] = total
    out[:] = values
    return 0


def pair_distances(n, indptr, indices, adj_w, k, xs, ys, by_source, out):
    """Shortest-path distance of each of the k pairs ``(xs[i], ys[i])`` in
    the CSR graph into ``out[i]``: one Dijkstra run per distinct source,
    taking the pairs in the order ``by_source`` lists them (grouped by
    source). A run settles vertices in increasing (distance, id) order,
    relaxes an arc only to a strictly shorter distance d[v] + w, and stops
    when its last target is settled. ``dist`` and the run stamps ``seen``
    (dist current), ``settled`` and ``wanted`` (a target of this run) are
    n-slot work lists. The graph is a proven :class:`WeightedGraph`:
    connected, so every run settles its targets, and with positive finite
    weights. Returns 0.

    The (distance, id) keys in the heap are distinct, since a vertex is
    pushed again only at a strictly shorter distance, so every binary heap
    pops them in the same order.
    """
    indptr, indices, adj_w, xs, ys, by_source = (
        a.tolist() for a in (indptr, indices, adj_w, xs, ys, by_source))
    dist, values = [0.0] * n, [0.0] * k
    seen, settled, wanted = [0] * n, [0] * n, [0] * n
    run = 0
    i = 0
    while i < k:
        run += 1
        s = xs[by_source[i]]
        left = 0
        j = i
        while j < k and xs[by_source[j]] == s:
            t = ys[by_source[j]]
            if wanted[t] != run:
                wanted[t] = run
                left += 1
            j += 1
        dist[s] = 0.0
        seen[s] = run
        heap = [(0.0, s)]
        while left > 0:
            d, v = heapq.heappop(heap)
            if settled[v] == run:
                continue
            settled[v] = run
            if wanted[v] == run:
                left -= 1
                if left == 0:
                    break
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                nd = d + adj_w[e]
                if seen[u] != run or nd < dist[u]:
                    seen[u] = run
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        for q in range(i, j):
            values[by_source[q]] = dist[ys[by_source[q]]]
        i = j
    out[:] = values
    return 0
