"""The annealing, random-tree, tree-pass, transport-plan, exact-flow and
pair-distance kernels and the backends that run them.

``anneal_chain``, ``wilson_tree``, ``tree_order``, ``subtree_sums``,
``tree_potential``, ``balanced_subtree``, ``dp_plan``, ``network_simplex``,
``tree_pairs`` and ``pair_distances`` below are the reference kernels in
plain Python.
``anneal_chain`` moves between rooted spanning trees through five step
functions, the one statement of the swap arithmetic and of the stop:
``propose_root`` draws the candidate root, ``swap_delta`` scores the swap on
its cycle, ``apply_swap`` makes it, ``update_beta`` adapts the temperature,
and ``certify`` proves the best tree optimal (its tree potential is
1-Lipschitz on every graph edge), which ends the chain. ``tree_order``
orients a tree given by parent links (leaves-first order and depths),
``subtree_sums`` is the leaves-to-root pass and ``tree_potential`` the
root-to-leaves one; ``balanced_subtree`` runs Wilson, ``tree_order`` and
``subtree_sums`` on a number of sampled trees. ``network_simplex`` is the
exact oracle's min-cost flow: primal network simplex, which moves between
spanning trees of the flow network (here the source-to-sink transportation
network, or the graph's own arcs) with a dual potential at every step, and
whose optimal flow is basic, so its support is a forest. ``tree_pairs``
walks vertex pairs to their lowest common ancestor for tree distances or
plan flows, and ``pair_distances`` runs Dijkstra from each distinct source
of a list of vertex pairs. Two backends run the kernels:

- ``c``: ``_kernel.c``, a transcription (the step functions and the tree
  passes as ``static`` helpers) built on first use with the system C
  compiler and loaded through ``ctypes``, which releases the GIL;
- ``python``: the function bodies as they stand.

``TREEOT_BACKEND`` names the backend. Unset, c is used if it loads, else
python with a warning. A named backend that cannot load, or an unknown name,
raises :class:`KernelBackendError`; there is no silent fallback. Traces,
trees, orders, sums, potentials, plans, exact flows and distances are
bit-identical between backends: both draw from the caller's numpy bit
generator in the same way, and do the same arithmetic in the same order
without fused multiply-adds. The python backend runs the tree passes, ``dp_plan``,
``network_simplex`` and the pair kernels over lists, which Python indexes
faster than arrays.
"""

from __future__ import annotations

import ctypes
import heapq
import math
import os
import platform
import shutil
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import KernelBackendError, NotSpanningError, VertexRangeError

C_SOURCE = Path(__file__).with_name("_kernel.c")
C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_C_STATUS = {
    1: "the root has no graph neighbour",
    2: "a vertex degree of 2^32 or more is not supported",
    3: "a vertex count of 0 or of 2^32 or more is not supported",
    4: "a random walk reached a vertex with no graph neighbour",
}
# dp_plan's statuses besides 0, shared with _kernel.c
PLAN_NO_MATCH = 5
PLAN_NO_END = 6
# network_simplex's statuses besides 0, shared with _kernel.c, and their errors
FLOW_BAD_COST = 7
FLOW_BUDGET = 8
FLOW_INFEASIBLE = 9
_FLOW_ERRORS = {
    FLOW_BAD_COST: "an arc cost is negative or not finite",
    FLOW_BUDGET: "pivot budget exhausted",
    FLOW_INFEASIBLE: "the supplies cannot be met on these arcs",
}
# tree_order's statuses besides 0, shared with _kernel.c
TREE_NOT_ROOTED = 10
TREE_BAD_PARENT = 11
TREE_UNREACHED = 12
# tree_pairs' status besides 0, shared with _kernel.c
TREE_PAIR_APART = 16
_TREE_ERRORS = {
    TREE_NOT_ROOTED: "the root is out of range or has a parent link",
    TREE_BAD_PARENT: "a parent link is out of range",
    TREE_UNREACHED: "parent links do not reach every vertex",
    TREE_PAIR_APART: "a pair's walk does not meet within the tree",
}
# pair_distances' statuses besides 0, shared with _kernel.c, and their errors
PATH_BAD_WEIGHT = 17
PATH_UNREACHED = 18
_PATH_ERRORS = {
    PATH_BAD_WEIGHT: "an arc weight is negative or not finite",
    PATH_UNREACHED: "a target cannot be reached from its source",
}
# why anneal_chain stopped, shared with _kernel.c
STOP_MAX_ITERS = 13
STOP_TARGET = 14
STOP_CERTIFIED = 15
STOP_REASONS = {STOP_MAX_ITERS: "max_iters", STOP_TARGET: "target", STOP_CERTIFIED: "certified"}
# relative slack of certify's Lipschitz test; it absorbs last-ulp differences
# in the edge comparison, not the rounding of u summed down the tree
CERT_RTOL = 1e-12
# an arc enters the network simplex's tree when its reduced cost is below
# -PRICE_RTOL * (largest arc cost): potentials summed down the tree round at
# about 1e-16 of it, and ties priced on that noise would pivot without end
PRICE_RTOL = 1e-12


class Kernels(NamedTuple):
    """One backend's kernels. ``anneal_chain``, ``wilson_tree`` and
    ``balanced_subtree`` have the signatures of the reference kernels below;
    the others wrap theirs:

    - ``dp_plan(parent, order, xi, zero_tol) -> (rows, cols, mass)``: the
      off-diagonal entries that :func:`dp_plan` writes, in its order. Raises
      ``RuntimeError`` when an entry is written twice, when no match exists
      or when 4n + 16 transfers do not finish.
    - ``tree_order(root, parent) -> (order, depth)``, both int64 arrays.
      Raises ``NotSpanningError`` unless the parent links are a spanning
      tree rooted at ``root``.
    - ``subtree_sums(parent, order, values) -> sums``, a new float64 array.
    - ``tree_potential(parent, order, wpar, xi_cum, sign_at_zero) -> u``, a
      new float64 array.
    - ``network_simplex(supply, tail, head, cost) -> (flow, pi, pivots)``:
      the arc flows and node potentials of :func:`network_simplex` at
      ``PRICE_RTOL`` as float64 arrays, and its pivot count. Raises
      ``RuntimeError`` for its failure statuses.
    - ``tree_pairs(parent, depth, wpar, xs, ys, mass) -> out``: with
      ``mass`` None the tree distance of every pair, else the 2n edge flows
      of :func:`tree_pairs`. Raises ``VertexRangeError`` for a pair vertex
      out of range and ``NotSpanningError`` for ``TREE_PAIR_APART``.
    - ``pair_distances(indptr, indices, adj_w, xs, ys) -> out``: the
      shortest-path distance of every pair. Raises ``VertexRangeError`` for
      a pair vertex out of range and ``ValueError`` for its failure
      statuses.
    """

    name: str
    anneal_chain: Callable
    wilson_tree: Callable
    dp_plan: Callable
    network_simplex: Callable
    tree_order: Callable
    subtree_sums: Callable
    tree_potential: Callable
    balanced_subtree: Callable
    tree_pairs: Callable
    pair_distances: Callable


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
    def dp_plan_lists(parent, order, child_ptr, child_idx, xi, zero_tol):
        n = parent.shape[0]
        cap = 4 * n + 16
        out_x = [0] * cap
        out_y = [0] * cap
        out_m = [0.0] * cap
        status, count, u = dp_plan(parent.tolist(), order.tolist(), child_ptr.tolist(),
                                   child_idx.tolist(), xi.tolist(), zero_tol,
                                   [0.0] * n, [False] * n, [0] * n, [0] * n, [0] * n, [0] * n,
                                   out_x, out_y, out_m)
        return (status, count, u, np.array(out_x[:count], dtype=np.int64),
                np.array(out_y[:count], dtype=np.int64), np.array(out_m[:count], dtype=np.float64))

    def tree_order_lists(root, parent):
        n = parent.shape[0]
        order = [0] * n
        depth = [0] * n
        status = tree_order(root, parent, order, depth)
        return status, np.array(order, dtype=np.int64), np.array(depth, dtype=np.int64)

    def subtree_sums_lists(parent, order, values):
        out = values.tolist()
        subtree_sums(parent.tolist(), order.tolist(), out)
        return np.array(out, dtype=np.float64)

    def tree_potential_lists(parent, order, wpar, xi_cum, sign_at_zero):
        u = [0.0] * parent.shape[0]
        tree_potential(parent.tolist(), order.tolist(), wpar.tolist(), xi_cum.tolist(),
                       sign_at_zero, u)
        return np.array(u, dtype=np.float64)

    def network_simplex_lists(supply, tail, head, cost):
        return network_simplex(supply.tolist(), tail.tolist(), head.tolist(), cost.tolist(),
                               PRICE_RTOL)

    def tree_pairs_lists(parent, depth, wpar, xs, ys, mass, out):
        out = out.tolist()
        status = tree_pairs(parent.tolist(), depth.tolist(), wpar.tolist(), xs.tolist(),
                            ys.tolist(), None if mass is None else mass.tolist(), out)
        return status, np.array(out, dtype=np.float64)

    def pair_distances_lists(indptr, indices, adj_w, xs, ys, by_source):
        n = indptr.shape[0] - 1
        out = [0.0] * xs.shape[0]
        status = pair_distances(indptr.tolist(), indices.tolist(), adj_w.tolist(), xs.tolist(),
                                ys.tolist(), by_source.tolist(), [0.0] * n, [0] * n, [0] * n,
                                [0] * n, out)
        return status, np.array(out, dtype=np.float64)

    return Kernels("python", anneal_chain, wilson_tree, _plan_runner(dp_plan_lists),
                   _simplex_runner(network_simplex_lists), _order_runner(tree_order_lists),
                   subtree_sums_lists, tree_potential_lists, balanced_subtree,
                   _pairs_runner(tree_pairs_lists), _distances_runner(pair_distances_lists))


def child_csr(parent):
    """The children of every vertex as a CSR ``(child_ptr, child_idx)``: the
    children of ``v`` are ``child_idx[child_ptr[v]:child_ptr[v + 1]]``, in
    increasing id order (a stable argsort of ``parent``). Vertices with a
    negative parent are nobody's child; the others must be below n."""
    n = parent.shape[0]
    child_idx = np.argsort(parent, kind="stable")[np.count_nonzero(parent < 0):]
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[child_idx], minlength=n), out=child_ptr[1:])
    return child_ptr, child_idx


def _order_runner(run):
    """The backend's ``tree_order``: calls ``run(root, parent)`` and turns its
    ``(status, order, depth)`` into the arrays or a ``NotSpanningError``."""

    def tree_order_checked(root, parent):
        _check_arrays(((parent, parent.shape[0]),), (), "tree")
        status, order, depth = run(int(root), parent)
        if status != 0:
            raise NotSpanningError(f"parent links are not a tree rooted at {root}: "
                                   f"{_TREE_ERRORS[status]}")
        return order, depth

    return tree_order_checked


def _plan_runner(run):
    """The backend's plan kernel: checks the tree, builds its
    :func:`child_csr`, calls ``run`` with the reference's first six arguments
    and turns its ``(status, count, u, out_x, out_y, out_m)`` into entries or
    a ``RuntimeError``."""

    def dp_plan_entries(parent, order, xi, zero_tol):
        n = parent.shape[0]
        _check_arrays(((parent, n), (order, n)), ((xi, n),), "tree")
        if n and not (np.array_equal(np.sort(order), np.arange(n)) and parent[order[-1]] == -1):
            raise ValueError("plan kernel: order is not a permutation ending at the root")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        below = order[:-1]
        up = parent[below]
        if np.any(up < 0) or np.any(up >= n) or np.any(rank[up] <= rank[below]):
            raise ValueError("plan kernel: parent links do not climb along order to the root")
        child_ptr, child_idx = child_csr(parent)
        status, count, u, out_x, out_y, out_m = run(parent, order, child_ptr, child_idx,
                                                     np.array(xi, dtype=np.float64), float(zero_tol))
        rows, cols, mass = out_x[:count], out_y[:count], out_m[:count]
        keys = rows * n + cols
        by_key = np.argsort(keys, kind="stable")
        again = by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]
        if again.size:
            j = int(again.min())
            raise RuntimeError("plan construction wrote off-diagonal entry "
                               f"{(int(rows[j]), int(cols[j]))} twice")
        if status == PLAN_NO_MATCH:
            raise RuntimeError(f"no matching vertex below {u}; residuals are inconsistent")
        if status == PLAN_NO_END:
            raise RuntimeError("plan construction did not terminate")
        return rows, cols, mass

    return dp_plan_entries


def _simplex_runner(run):
    """The backend's network simplex: checks the network, calls
    ``run(supply, tail, head, cost)`` and turns its ``(status, pivots,
    flow, pi)`` into ``(flow, pi, pivots)`` or a ``RuntimeError``."""

    def network_simplex_checked(supply, tail, head, cost):
        n, m = supply.shape[0], cost.shape[0]
        _check_arrays(((tail, m), (head, m)), ((supply, n), (cost, m)), "network")
        if m and not (0 <= min(tail.min(), head.min()) and max(tail.max(), head.max()) < n):
            raise ValueError("network simplex: arc endpoint out of range")
        status, pivots, flow, pi = run(supply, tail, head, cost)
        if status != 0:
            raise RuntimeError(_FLOW_ERRORS[status])
        return np.asarray(flow, dtype=np.float64), np.asarray(pi, dtype=np.float64), pivots

    return network_simplex_checked


def _pairs_runner(run):
    """The backend's tree-pair walk: checks the tree and the pairs, calls
    ``run(parent, depth, wpar, xs, ys, mass, out)`` on a zeroed ``out`` (k
    slots for distances, 2n for flows) and turns its ``(status, out)`` into
    ``out`` or a ``NotSpanningError``."""

    def tree_pairs_checked(parent, depth, wpar, xs, ys, mass):
        n, k = parent.shape[0], xs.shape[0]
        _check_arrays(((parent, n), (depth, n), (xs, k), (ys, k)),
                      ((wpar, n),) + (() if mass is None else ((mass, k),)), "tree")
        if n and not (-1 <= parent.min() and parent.max() < n):
            raise ValueError("C kernel: parent index out of range")
        _check_pairs(n, xs, ys)
        status, out = run(parent, depth, wpar, xs, ys, mass, np.zeros(k if mass is None else 2 * n))
        if status != 0:
            raise NotSpanningError(f"tree pair walk: {_TREE_ERRORS[status]}")
        return out

    return tree_pairs_checked


def _distances_runner(run):
    """The backend's pair distances: checks the CSR graph and the pairs,
    orders the pairs by source (stably) and calls ``run(indptr, indices,
    adj_w, xs, ys, by_source)``, whose ``(status, out)`` it turns into
    ``out`` or a ``ValueError``."""

    def pair_distances_checked(indptr, indices, adj_w, xs, ys):
        n, m, k = indptr.shape[0] - 1, indices.shape[0], xs.shape[0]
        _check_arrays(((indptr, n + 1), (indices, m), (xs, k), (ys, k)), ((adj_w, m),), "graph")
        _check_csr(n, indptr, indices)
        _check_pairs(n, xs, ys)
        status, out = run(indptr, indices, adj_w, xs, ys, np.argsort(xs, kind="stable"))
        if status != 0:
            raise ValueError(f"shortest paths: {_PATH_ERRORS[status]}")
        return out

    return pair_distances_checked


def _check_pairs(n: int, xs, ys) -> None:
    if xs.shape[0] and not (0 <= min(xs.min(), ys.min()) and max(xs.max(), ys.max()) < n):
        raise VertexRangeError(f"a pair vertex is out of range for n={n}")


def _check_arrays(ints, floats, what: str) -> None:
    """Raise unless every ``(array, size)`` pair is a contiguous 1-D array of
    the dtype and at least the size the kernels index."""
    for arrays, dtype in ((ints, np.int64), (floats, np.float64)):
        for a, size in arrays:
            if a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous or a.shape[0] < size:
                raise ValueError(f"C kernel needs contiguous {dtype.__name__} arrays of the {what}'s sizes")


def _check_csr(n: int, indptr, indices) -> None:
    m = indices.shape[0]
    if int(indptr[0]) != 0 or int(indptr[-1]) != m or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("C kernel: indptr out of range")
    if m and not (0 <= indices.min() and indices.max() < n):
        raise ValueError("C kernel: neighbour index out of range")


def _check_links(n: int, parent, order) -> None:
    """Raise unless ``parent`` and ``order`` hold n links each and every
    entry indexes a vertex (or is -1, for a parent)."""
    _check_arrays(((parent, n), (order, n)), (), "tree")
    if n and not (-1 <= parent.min() and parent.max() < n and 0 <= order.min() and order.max() < n):
        raise ValueError("C kernel: parent or order index out of range")


_I64, _F64, _PTR, _INT = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int
#: ``(restype, argtypes)`` of every function that ``_kernel.c`` exports
C_SIGNATURES = {
    "treeot_anneal_chain": (_INT, [_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _F64,
                                   _F64, _F64, _I64, _I64, _I64, _F64, _F64, _PTR, _PTR, _PTR, _PTR,
                                   _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "treeot_wilson": (_INT, [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "treeot_dp_plan": (_INT, [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR, _PTR, _PTR,
                              _PTR, _PTR]),
    "treeot_network_simplex": (_INT, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _F64, _PTR, _PTR, _PTR,
                                      _PTR, _PTR]),
    "treeot_tree_order": (_INT, [_I64, _PTR, _I64, _PTR, _PTR, _PTR]),
    "treeot_subtree_sums": (None, [_I64, _PTR, _PTR, _PTR]),
    "treeot_tree_potential": (None, [_I64, _PTR, _PTR, _PTR, _PTR, _F64, _PTR]),
    "treeot_balanced_subtree": (_INT, [_I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _F64, _PTR, _PTR,
                                       _PTR, _PTR]),
    "treeot_tree_pairs": (_INT, [_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR]),
    "treeot_pair_distances": (_INT, [_I64, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                                     _PTR, _PTR]),
}


def _load_c() -> Kernels:
    try:
        lib = ctypes.CDLL(str(build_c_kernel()))
    except OSError as exc:
        raise KernelBackendError(f"cannot load the C kernel ({exc})") from exc
    for name, (restype, argtypes) in C_SIGNATURES.items():
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    fn, wilson, plan = lib.treeot_anneal_chain, lib.treeot_wilson, lib.treeot_dp_plan

    def anneal_chain_c(parent, wpar, xi_cum, root, indptr, indices, adj_w, xi_node,
                       max_iters, beta0, target_accept, eta, window, record_every,
                       recompute_every, target_cost, rng, best_parent, best_wpar,
                       trace_iter, trace_cur, trace_best, trace_beta, trace_acc):
        n = parent.shape[0]
        m = indices.shape[0]
        rows = max_iters // record_every + 2 if record_every >= 1 else 0
        _check_arrays(((parent, n), (best_parent, n), (indptr, n + 1), (indices, m), (trace_iter, rows)),
                      ((wpar, n), (best_wpar, n), (xi_cum, n), (xi_node, n), (adj_w, m),
                       (trace_cur, rows), (trace_best, rows), (trace_beta, rows), (trace_acc, rows)),
                      "chain")
        if window < 1 or record_every < 1 or not 0 <= root < n:
            raise ValueError("C kernel: window, record_every or root out of range")
        _check_csr(n, indptr, indices)
        if n and not (-1 <= parent.min() and parent.max() < n):
            raise ValueError("C kernel: parent index out of range")
        bits = np.empty(window, dtype=np.int64)
        work_i = np.empty(2 * n, dtype=np.int64)
        work_d = np.empty(2 * n)
        out_d = np.empty(3)
        out_i = np.empty(5, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = fn(n, parent.ctypes.data, wpar.ctypes.data, xi_cum.ctypes.data, root,
                        indptr.ctypes.data, indices.ctypes.data, adj_w.ctypes.data,
                        xi_node.ctypes.data, max_iters, beta0, target_accept, eta, window,
                        record_every, recompute_every, target_cost, CERT_RTOL,
                        bitgen.ctypes.bit_generator.value, best_parent.ctypes.data,
                        best_wpar.ctypes.data, trace_iter.ctypes.data, trace_cur.ctypes.data,
                        trace_best.ctypes.data, trace_beta.ctypes.data, trace_acc.ctypes.data,
                        bits.ctypes.data, work_i.ctypes.data, work_d.ctypes.data,
                        out_d.ctypes.data, out_i.ctypes.data)
        if status != 0:
            raise ValueError(f"C kernel stopped: {_C_STATUS.get(status, status)}")
        best, current, max_drift = out_d.tolist()
        final_root, best_root, records, iters_done, stop = out_i.tolist()
        return best, current, final_root, best_root, records, iters_done, max_drift, stop

    def wilson_tree_c(indptr, indices, adj_w, rng, parent, wpar):
        n = parent.shape[0]
        m = indices.shape[0]
        _check_arrays(((parent, n), (indptr, n + 1), (indices, m)), ((wpar, n), (adj_w, m)), "tree")
        _check_csr(n, indptr, indices)
        in_tree = np.empty(n, dtype=np.uint8)
        root = np.empty(1, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = wilson(n, indptr.ctypes.data, indices.ctypes.data, adj_w.ctypes.data,
                            bitgen.ctypes.bit_generator.value, parent.ctypes.data,
                            wpar.ctypes.data, in_tree.ctypes.data, root.ctypes.data)
        if status != 0:
            raise ValueError(f"C kernel stopped: {_C_STATUS.get(status, status)}")
        return int(root[0])

    def tree_order_c(root, parent):
        n = parent.shape[0]
        order = np.empty(n, dtype=np.int64)
        depth = np.empty(n, dtype=np.int64)
        work_i = np.empty(4 * n + 1, dtype=np.int64)
        status = lib.treeot_tree_order(n, parent.ctypes.data, root, order.ctypes.data,
                                       depth.ctypes.data, work_i.ctypes.data)
        return status, order, depth

    def subtree_sums_c(parent, order, values):
        n = parent.shape[0]
        _check_links(n, parent, order)
        out = np.array(values, dtype=np.float64)
        _check_arrays((), ((out, n),), "tree")
        lib.treeot_subtree_sums(n, parent.ctypes.data, order.ctypes.data, out.ctypes.data)
        return out

    def tree_potential_c(parent, order, wpar, xi_cum, sign_at_zero):
        n = parent.shape[0]
        _check_links(n, parent, order)
        _check_arrays((), ((wpar, n), (xi_cum, n)), "tree")
        u = np.zeros(n)
        lib.treeot_tree_potential(n, parent.ctypes.data, order.ctypes.data, wpar.ctypes.data,
                                  xi_cum.ctypes.data, float(sign_at_zero), u.ctypes.data)
        return u

    def balanced_subtree_c(indptr, indices, adj_w, rng, xi, samples, tol):
        n = xi.shape[0]
        m = indices.shape[0]
        _check_arrays(((indptr, n + 1), (indices, m)), ((adj_w, m), (xi, n)), "graph")
        _check_csr(n, indptr, indices)
        work_i = np.empty(7 * n + 1, dtype=np.int64)
        work_d = np.empty(2 * n)
        in_tree = np.empty(n, dtype=np.uint8)
        found = np.zeros(1, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = lib.treeot_balanced_subtree(
                n, indptr.ctypes.data, indices.ctypes.data, adj_w.ctypes.data,
                bitgen.ctypes.bit_generator.value, xi.ctypes.data, samples, tol,
                work_i.ctypes.data, work_d.ctypes.data, in_tree.ctypes.data, found.ctypes.data)
        if status != 0:
            raise ValueError(f"C kernel stopped: {_C_STATUS.get(status, status)}")
        return bool(found[0])

    def dp_plan_c(parent, order, child_ptr, child_idx, xi, zero_tol):
        n = parent.shape[0]
        cap = 4 * n + 16
        out_x = np.empty(cap, dtype=np.int64)
        out_y = np.empty(cap, dtype=np.int64)
        out_m = np.empty(cap)
        out_k = np.empty(2, dtype=np.int64)
        xi_cum = np.empty(n)
        alive = np.empty(n, dtype=np.uint8)
        work_i = np.empty(4 * n, dtype=np.int64)
        status = plan(n, parent.ctypes.data, order.ctypes.data, child_ptr.ctypes.data,
                      child_idx.ctypes.data, xi.ctypes.data, zero_tol, xi_cum.ctypes.data,
                      alive.ctypes.data, work_i.ctypes.data, out_x.ctypes.data,
                      out_y.ctypes.data, out_m.ctypes.data, out_k.ctypes.data)
        count, u = out_k.tolist()
        return status, count, u, out_x, out_y, out_m

    def network_simplex_c(supply, tail, head, cost):
        n, m = supply.shape[0], cost.shape[0]
        flow = np.empty(m)
        pi = np.empty(n)
        work_d = np.empty(m + 2 * n + 1)
        work_i = np.empty(7 * (n + 1), dtype=np.int64)
        pivots = np.zeros(1, dtype=np.int64)
        status = lib.treeot_network_simplex(n, m, supply.ctypes.data, tail.ctypes.data,
                                            head.ctypes.data, cost.ctypes.data, PRICE_RTOL,
                                            flow.ctypes.data, pi.ctypes.data, work_d.ctypes.data,
                                            work_i.ctypes.data, pivots.ctypes.data)
        return status, int(pivots[0]), flow, pi

    def tree_pairs_c(parent, depth, wpar, xs, ys, mass, out):
        status = lib.treeot_tree_pairs(parent.shape[0], parent.ctypes.data, depth.ctypes.data,
                                       wpar.ctypes.data, xs.shape[0], xs.ctypes.data, ys.ctypes.data,
                                       None if mass is None else mass.ctypes.data, out.ctypes.data)
        return status, out

    def pair_distances_c(indptr, indices, adj_w, xs, ys, by_source):
        n, m, k = indptr.shape[0] - 1, indices.shape[0], xs.shape[0]
        dist = np.empty(n)
        stamps = np.zeros(3 * n, dtype=np.int64)
        heap_d = np.empty(m + 1)
        heap_v = np.empty(m + 1, dtype=np.int64)
        out = np.empty(k)
        status = lib.treeot_pair_distances(n, indptr.ctypes.data, indices.ctypes.data,
                                           adj_w.ctypes.data, k, xs.ctypes.data, ys.ctypes.data,
                                           by_source.ctypes.data, dist.ctypes.data,
                                           stamps.ctypes.data, heap_d.ctypes.data,
                                           heap_v.ctypes.data, out.ctypes.data)
        return status, out

    return Kernels("c", anneal_chain_c, wilson_tree_c, _plan_runner(dp_plan_c),
                   _simplex_runner(network_simplex_c), _order_runner(tree_order_c),
                   subtree_sums_c, tree_potential_c, balanced_subtree_c,
                   _pairs_runner(tree_pairs_c), _distances_runner(pair_distances_c))


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


def recompute_cumulative(parent, xi_node):
    """Fresh subtree sums of xi_node for the tree given by parent links, and
    the leaves-first queue (root last) that summed them."""
    n = parent.shape[0]
    pending = np.zeros(n, dtype=np.int64)
    for v in range(n):
        p = parent[v]
        if p >= 0:
            pending[p] += 1
    out = xi_node.copy()
    queue = np.empty(n, dtype=np.int64)
    head = 0
    tail = 0
    for v in range(n):
        if pending[v] == 0:
            queue[tail] = v
            tail += 1
    while head < tail:
        v = queue[head]
        head += 1
        p = parent[v]
        if p >= 0:
            out[p] += out[v]
            pending[p] -= 1
            if pending[p] == 0:
                queue[tail] = p
                tail += 1
    return out, queue


def tree_cost(parent, wpar, xi_cum):
    """Sum of w(x, parent) * |cumulative imbalance| over non-root vertices."""
    total = 0.0
    for v in range(parent.shape[0]):
        if parent[v] >= 0:
            total += wpar[v] * abs(xi_cum[v])
    return total


def propose_root(indptr, indices, adj_w, root, rng):
    """Draw a graph neighbour of ``root`` uniformly as the candidate root;
    return it and the weight of the edge that joins it to ``root``."""
    lo = indptr[root]
    k = rng.integers(0, indptr[root + 1] - lo)
    return indices[lo + k], adj_w[lo + k]


def swap_delta(parent, wpar, xi_cum, root, new_root, w_added):
    """Cost of the current tree minus that of the candidate, summed over the
    cycle that the edge (root, new_root) closes.

    The candidate gains that edge and drops ``new_root``'s parent edge.
    Interior cycle vertices keep their parent edge, but their cumulative
    imbalance shifts by ``new_root``'s; the swapped pair of edges trades
    |cumulative imbalance at ``new_root``| between the two weights.
    """
    xr = xi_cum[new_root]
    h = (wpar[new_root] - w_added) * abs(xr)
    v = parent[new_root]
    while v != root:
        h += wpar[v] * (abs(xi_cum[v]) - abs(xi_cum[v] - xr))
        v = parent[v]
    return h


def apply_swap(parent, wpar, xi_cum, root, new_root, w_added):
    """Make ``new_root`` the root by the swap ``swap_delta`` scores, in place.

    Interior cycle vertices shift their cumulative imbalance by
    ``new_root``'s, the old root takes its negation and ``new_root`` zeroes;
    only two parent links change.
    """
    xr = xi_cum[new_root]
    v = parent[new_root]
    while v != root:
        xi_cum[v] -= xr
        v = parent[v]
    xi_cum[root] = -xr
    xi_cum[new_root] = 0.0
    parent[root] = new_root
    wpar[root] = w_added
    parent[new_root] = -1
    wpar[new_root] = 0.0


def certify(parent, wpar, indptr, indices, adj_w, xi_node):
    """Whether the spanning tree given by parent links is optimal by its own
    certificate: its tree potential is 1-Lipschitz, within ``CERT_RTOL``, on
    every arc of the CSR graph.

    The cumulative imbalance is summed afresh by ``recompute_cumulative``,
    whose queue orders ``tree_potential`` (sign +1 where it is exactly 0).
    Summation by parts makes the potential's value the tree's cost, so in
    exact arithmetic a potential that passes proves, by Kantorovich-Rubinstein
    duality, that W1 >= cost / (1 + CERT_RTOL). In floating point the test is
    exact only up to the rounding of u, which is summed along tree paths and
    so can err by about depth * eps * max|u|; that error can exceed the slack
    w * CERT_RTOL on deep trees, so a violation below it can pass. Where a
    cumulative imbalance is 0 an optimal tree may fail.
    """
    xi_cum, queue = recompute_cumulative(parent, xi_node)
    u = np.zeros(parent.shape[0])
    tree_potential(parent, queue, wpar, xi_cum, 1.0, u)
    for a in range(parent.shape[0]):
        for j in range(indptr[a], indptr[a + 1]):
            if abs(u[a] - u[indices[j]]) > adj_w[j] * (1.0 + CERT_RTOL):
                return False
    return True


def update_beta(beta, bits_sum, bits_seen, window, eta, target_accept):
    """Scale ``beta`` by ``1 + eta * (rate - target_accept)``, where ``rate``
    is the acceptance rate over the last ``window`` steps; unchanged until the
    window has filled once."""
    if bits_seen >= window:
        rate = bits_sum / window
        beta = beta * (1.0 + eta * (rate - target_accept))
    return beta


def anneal_chain(
    parent,
    wpar,
    xi_cum,
    root,
    indptr,
    indices,
    adj_w,
    xi_node,
    max_iters,
    beta0,
    target_accept,
    eta,
    window,
    record_every,
    recompute_every,
    target_cost,
    rng,
    best_parent,
    best_wpar,
    trace_iter,
    trace_cur,
    trace_best,
    trace_beta,
    trace_acc,
):
    """Run one annealing chain over rooted spanning trees, in place.

    Per iteration: draw a candidate root, score the edge swap by
    ``swap_delta``, accept with probability min(1, exp(beta * H)), and adapt
    beta towards the target acceptance rate once the window has filled. The
    best tree is copied into ``best_parent`` and ``best_wpar``.

    ``max_iters`` is a budget. The chain stops early with ``STOP_TARGET``
    once the best cost is within 1e-9 of ``target_cost`` (unless NaN), or
    with ``STOP_CERTIFIED`` once ``certify`` proves the best tree optimal.
    ``certify`` runs on the initial tree and then on each trace row where the
    best cost has dropped since its last run; the target stop is tested
    first. Returns (best_cost, current_cost, root, best_root, records,
    iters_done, max_drift, stop), ``stop`` one of the ``STOP_*`` codes.
    """
    current = tree_cost(parent, wpar, xi_cum)
    best = current
    best_root = root
    best_parent[:] = parent
    best_wpar[:] = wpar

    bits = np.zeros(window, dtype=np.int64)
    bits_sum = 0
    bits_seen = 0
    beta = beta0
    max_drift = 0.0

    records = 0
    trace_iter[records] = 0
    trace_cur[records] = current
    trace_best[records] = best
    trace_beta[records] = beta
    trace_acc[records] = 0.0
    records += 1

    iters_done = 0
    have_target = not math.isnan(target_cost)
    stop = STOP_MAX_ITERS
    if have_target and best <= target_cost + 1e-9:
        stop = STOP_TARGET
    elif certify(best_parent, best_wpar, indptr, indices, adj_w, xi_node):
        stop = STOP_CERTIFIED
    if stop != STOP_MAX_ITERS:
        return best, current, root, best_root, records, iters_done, max_drift, stop
    checked = best

    for it in range(1, max_iters + 1):
        new_root, w_added = propose_root(indptr, indices, adj_w, root, rng)
        u = rng.random()
        h = swap_delta(parent, wpar, xi_cum, root, new_root, w_added)
        accept = h >= 0.0 or u <= math.exp(beta * h)
        if accept:
            apply_swap(parent, wpar, xi_cum, root, new_root, w_added)
            root = new_root
            current -= h
            if current < best:
                best = current
                best_root = root
                best_parent[:] = parent
                best_wpar[:] = wpar

        slot = (it - 1) % window
        if bits_seen >= window:
            bits_sum -= bits[slot]
        bits[slot] = 1 if accept else 0
        bits_sum += bits[slot]
        bits_seen += 1
        beta = update_beta(beta, bits_sum, bits_seen, window, eta, target_accept)

        iters_done = it

        if recompute_every > 0 and it % recompute_every == 0:
            fresh, _ = recompute_cumulative(parent, xi_node)
            fresh_cost = tree_cost(parent, wpar, fresh)
            drift = abs(fresh_cost - current)
            if drift > max_drift:
                max_drift = drift
            xi_cum[:] = fresh
            current = fresh_cost
            if current < best:
                best = current
                best_root = root
                best_parent[:] = parent
                best_wpar[:] = wpar

        on_target = have_target and best <= target_cost + 1e-9
        if it % record_every == 0 or it == max_iters or on_target:
            rate_now = 0.0
            if bits_seen > 0:
                seen = bits_seen if bits_seen < window else window
                rate_now = bits_sum / seen
            trace_iter[records] = it
            trace_cur[records] = current
            trace_best[records] = best
            trace_beta[records] = beta
            trace_acc[records] = rate_now
            records += 1
            if on_target:
                stop = STOP_TARGET
                break
            if best < checked:
                checked = best
                if certify(best_parent, best_wpar, indptr, indices, adj_w, xi_node):
                    stop = STOP_CERTIFIED
                    break

    return best, current, root, best_root, records, iters_done, max_drift, stop


def wilson_tree(indptr, indices, adj_w, rng, parent, wpar):
    """Draw a uniform random spanning tree by loop-erased random walks
    (Wilson, STOC 1996) into ``parent`` and ``wpar``, in place; return the root.

    The root is ``rng.integers(0, n)``. Walks start from each vertex not yet
    in the tree, in increasing order, and step to the neighbour at CSR
    position ``rng.integers(0, deg)`` (no draw where deg == 1) until they hit
    the tree; overwriting a vertex's parent link erases any loop through it.
    ``wpar[v]`` is the CSR weight of the edge to ``parent[v]``.
    """
    n = parent.shape[0]
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
    return root


def tree_order(root, parent, order, depth):
    """Write the leaves-first ``order`` (root last) and the ``depth`` of the
    tree that the int64 array ``parent`` roots at ``root``; return 0 or a
    ``TREE_*`` status.

    A depth-first walk pops a vertex, gives it the last free slot of
    ``order`` and pushes its children in increasing id order (the
    :func:`child_csr`, which ``_kernel.c`` builds by counting sort). With
    ``parent[root] == -1`` and every other link in range, a vertex is pushed
    only when its parent is popped, so at most once: the walk stops within n
    pops, and ``TREE_UNREACHED`` reports the vertices it missed.
    """
    n = parent.shape[0]
    if not 0 <= root < n or parent[root] != -1:
        return TREE_NOT_ROOTED
    if not (-1 <= parent.min() and parent.max() < n):
        return TREE_BAD_PARENT
    child_ptr, child_idx = (a.tolist() for a in child_csr(parent))
    depth[root] = 0
    stack = [root]
    pos = n
    while stack:
        v = stack.pop()
        pos -= 1
        order[pos] = v
        for j in range(child_ptr[v], child_ptr[v + 1]):
            c = child_idx[j]
            depth[c] = depth[v] + 1
            stack.append(c)
    return TREE_UNREACHED if pos else 0


def subtree_sums(parent, order, out):
    """Turn the vertex values in ``out`` into subtree sums, in place: along
    ``order`` (leaves first), each vertex adds its entry into its parent's."""
    for v in order:
        p = parent[v]
        if p >= 0:
            out[p] += out[v]


def tree_potential(parent, order, wpar, xi_cum, sign_at_zero, u):
    """The tree potential into ``u`` (zero on entry): walking ``order``
    backwards (root first), u[v] = u[parent] + wpar[v] * s, where s is the
    sign of ``xi_cum[v]``, or ``sign_at_zero`` where it is exactly 0."""
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        p = parent[v]
        if p < 0:
            continue
        s = sign_at_zero if xi_cum[v] == 0.0 else (1.0 if xi_cum[v] > 0.0 else -1.0)
        u[v] = u[p] + wpar[v] * s


def balanced_subtree(indptr, indices, adj_w, rng, xi, samples, tol):
    """Whether one of ``samples`` spanning trees, drawn one after the other
    by :func:`wilson_tree` from ``rng``, has a non-root vertex whose subtree
    sum of ``xi`` (a float64 array, summed by :func:`subtree_sums` along
    :func:`tree_order`) is at most ``tol`` in magnitude. Stops drawing at the
    first such tree."""
    n = xi.shape[0]
    parent = np.empty(n, dtype=np.int64)
    wpar = np.empty(n)
    order = [0] * n
    depth = [0] * n
    for _ in range(samples):
        root = wilson_tree(indptr, indices, adj_w, rng, parent, wpar)
        tree_order(root, parent, order, depth)  # 0: a Wilson tree is rooted at its root
        sums = xi.tolist()
        subtree_sums(parent.tolist(), order, sums)
        for v in range(n):
            if v != root and abs(sums[v]) <= tol:
                return True
    return False


def _heap_push(heap, size, v):
    """Push ``v`` onto the binary min-heap ``heap[:size]``; return the new size."""
    i = size
    while i > 0:
        up = (i - 1) // 2
        if heap[up] <= v:
            break
        heap[i] = heap[up]
        i = up
    heap[i] = v
    return size + 1


def _heap_pop(heap, size):
    """Drop the smallest entry of the binary min-heap ``heap[:size]``; return
    the new size."""
    size -= 1
    v = heap[size]
    i = 0
    while True:
        c = 2 * i + 1
        if c >= size:
            break
        if c + 1 < size and heap[c + 1] < heap[c]:
            c += 1
        if v <= heap[c]:
            break
        heap[i] = heap[c]
        i = c
    if size > 0:
        heap[i] = v
    return size


def _prune(v, parent, xi, alive, active, heap, size):
    """Discard ``v`` and then its ancestors while each is a balanced leaf, so
    their parents become visible leaves; push a parent that becomes a leaf
    with a residual. Return the heap size."""
    while v >= 0 and alive[v] and active[v] == 0 and xi[v] == 0.0:
        alive[v] = False
        v = parent[v]
        if v >= 0:
            active[v] -= 1
            if active[v] == 0 and xi[v] != 0.0:
                size = _heap_push(heap, size, v)
    return size


def dp_plan(parent, order, child_ptr, child_idx, xi, zero_tol, xi_cum, alive, active,
            heap, layer, next_layer, out_x, out_y, out_m):
    """Off-diagonal entries of the dynamic-programming optimal plan on the
    tree given by ``parent``, ``order`` (leaves first, root last) and the
    child CSR ``child_ptr``/``child_idx``, for the residuals ``xi`` (mu - nu,
    changed in place). Returns ``(status, count, u)``: ``out_x``, ``out_y`` and
    ``out_m`` (4n + 16 slots) hold ``count`` entries; status 0 is success,
    ``PLAN_NO_MATCH`` means no match was found below ``u`` and
    ``PLAN_NO_END`` that 4n + 16 transfers did not finish. The other
    arguments are n-slot work buffers.

    Residues of magnitude at most ``zero_tol`` count as zero. The cumulative
    imbalance ``xi_cum`` is summed along ``order``. A leaf is a live vertex
    with no live child; balanced leaves are discarded. Each step takes the
    leaf x of smallest id with a residual, climbs from x while the
    cumulative imbalance keeps growing in x's direction, then matches the
    nearest vertex y below the stopping vertex u (by hop count, ties to the
    smallest id) with the opposite residual, reachable through live children
    whose cumulative imbalance has the opposite sign. The transfer is capped
    so that no cumulative imbalance changes sign, so it zeroes a residual.

    Residuals never become nonzero or change sign, so a vertex becomes a
    candidate leaf only when its last live child is discarded; the min-heap
    of candidates therefore yields the smallest candidate id, with discarded
    entries skipped when they reach the top. Each vertex is pushed at most
    once.
    """
    n = len(parent)
    if n == 0:
        return 0, 0, -1
    root = order[n - 1]
    for v in range(n):
        if abs(xi[v]) <= zero_tol:
            xi[v] = 0.0
        xi_cum[v] = xi[v]
    for i in range(n):
        v = order[i]
        p = parent[v]
        if p >= 0:
            xi_cum[p] += xi_cum[v]
    for v in range(n):
        if abs(xi_cum[v]) <= zero_tol:
            xi_cum[v] = 0.0
    xi_cum[root] = 0.0

    size = 0
    for v in range(n):
        alive[v] = True
        active[v] = child_ptr[v + 1] - child_ptr[v]
        if active[v] == 0 and xi[v] != 0.0:
            size = _heap_push(heap, size, v)
    for v in range(n):
        size = _prune(v, parent, xi, alive, active, heap, size)

    count = 0
    for _ in range(4 * n + 16):
        while size > 0 and not alive[heap[0]]:
            size = _heap_pop(heap, size)
        if size == 0:
            return 0, count, -1
        x = heap[0]
        if x == root:
            return PLAN_NO_MATCH, count, -1
        s = 1.0 if xi[x] > 0.0 else -1.0
        m = abs(xi[x])

        # climb while nothing of the opposite sign branches off: stop where the
        # cumulative imbalance vanishes or where the step difference (what the
        # rest of the subtree at u contributes) carries the opposite sign
        below = x
        u = parent[x]
        while u != root and xi_cum[u] != 0.0:
            diff = xi_cum[u] - xi_cum[below]
            if abs(diff) > zero_tol and s * diff < 0.0:
                break
            if abs(xi_cum[u]) < m:
                m = abs(xi_cum[u])
            below = u
            u = parent[u]

        # breadth-first below u, one layer at a time; a tree visits no
        # vertex twice, so the smallest hit of the first layer with one wins
        y = -1
        layer[0] = u
        width = 1
        while width > 0:
            for i in range(width):
                v = layer[i]
                if s * xi[v] < 0.0 and (y < 0 or v < y):
                    y = v
            if y >= 0:
                break
            grown = 0
            for i in range(width):
                v = layer[i]
                for j in range(child_ptr[v], child_ptr[v + 1]):
                    c = child_idx[j]
                    if alive[c] and s * xi_cum[c] < 0.0:
                        next_layer[grown] = c
                        grown += 1
            layer, next_layer = next_layer, layer
            width = grown
        if y < 0:
            return PLAN_NO_MATCH, count, u

        # cap by the descent chain and the target's residual
        v = y
        while v != u:
            if abs(xi_cum[v]) < m:
                m = abs(xi_cum[v])
            v = parent[v]
        if abs(xi[y]) < m:
            m = abs(xi[y])

        if s > 0.0:
            out_x[count] = x
            out_y[count] = y
        else:
            out_x[count] = y
            out_y[count] = x
        out_m[count] = m
        count += 1
        xi[x] -= s * m
        xi[y] += s * m
        if abs(xi[x]) <= zero_tol:
            xi[x] = 0.0
        if abs(xi[y]) <= zero_tol:
            xi[y] = 0.0
        v = x
        while v != u:
            xi_cum[v] -= s * m
            if abs(xi_cum[v]) <= zero_tol:
                xi_cum[v] = 0.0
            v = parent[v]
        v = y
        while v != u:
            xi_cum[v] += s * m
            if abs(xi_cum[v]) <= zero_tol:
                xi_cum[v] = 0.0
            v = parent[v]
        size = _prune(x, parent, xi, alive, active, heap, size)
        size = _prune(y, parent, xi, alive, active, heap, size)
    return PLAN_NO_END, count, -1


def network_simplex(supply, tail, head, cost, price_rtol):
    """Min-cost flow by primal network simplex over spanning trees.

    Nodes 0..n-1 have ``supply`` (negative for demand); arc k runs from
    ``tail[k]`` to ``head[k]`` at ``cost[k]``, uncapacitated. Returns
    ``(status, pivots, flow, pi)``: 0 or a ``FLOW_*`` status, the pivots
    made, the m arc flows and n node potentials with
    cost[k] - pi[tail[k]] + pi[head[k]] >= -price_rtol * max(cost) on every
    arc, and pi[tail] - pi[head] = cost on the final tree's arcs (up to
    the rounding of pi summed down the tree), which hold the support, so
    the flow is basic. ``flow`` and ``pi`` are None unless the status is 0.

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
    n = len(supply)
    m = len(cost)
    cmax = 0.0
    for c in cost:
        if not (c >= 0.0 and c < math.inf):
            return FLOW_BAD_COST, 0, None, None
        if c > cmax:
            cmax = c
    tol = price_rtol * cmax
    root = n
    # arc m + v is v's artificial arc; up[v]: v's tree arc points to its parent
    flow = [0.0] * (m + n)
    parent = [root] * n + [-1]
    pred = [m + v for v in range(n)] + [-1]
    up = [supply[v] >= 0.0 for v in range(n)] + [False]
    for v in range(n):
        flow[m + v] = supply[v] if up[v] else -supply[v]
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
            return FLOW_BUDGET, pivots, None, None
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
            if up[u] and flow[pred[u]] < delta:
                delta = flow[pred[u]]
                out = u
            u = parent[u]
        cut, graft = p, q
        u = q
        while u != join:
            if not up[u] and flow[pred[u]] <= delta:
                delta = flow[pred[u]]
                out = u
                cut, graft = q, p
            u = parent[u]
        if delta > 0.0:
            flow[enter] += delta
            u = p
            while u != join:
                if up[u]:
                    flow[pred[u]] -= delta
                else:
                    flow[pred[u]] += delta
                u = parent[u]
            u = q
            while u != join:
                if up[u]:
                    flow[pred[u]] += delta
                else:
                    flow[pred[u]] -= delta
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

    for v in range(n):
        if pm[v] != pm[0]:
            return FLOW_INFEASIBLE, pivots, None, None
    return 0, pivots, flow[:m], pr[:n]


def tree_pairs(parent, depth, wpar, xs, ys, mass, out):
    """Walk every pair ``(xs[k], ys[k])`` to its lowest common ancestor in
    the tree given by ``parent`` and ``depth``: each round moves the deeper
    end to its parent, or both ends at equal depth. With ``mass`` None,
    ``out[k]`` gets the pair's tree distance, each round adding the weights
    ``wpar`` of both ends' moves as one sum. Otherwise ``out`` holds 2n
    zeros, and every edge a pair climbs from child ``a`` adds ``mass[k]`` to
    ``out[a]`` (up), every edge it descends to child ``b`` to ``out[n + b]``
    (down), so each edge adds its pairs' masses in pair order. Returns 0, or
    ``TREE_PAIR_APART`` when an end must move from a vertex with no parent
    or a walk takes n rounds (the links hold a second root or a cycle).
    """
    n = len(parent)
    for k in range(len(xs)):
        a = xs[k]
        b = ys[k]
        total = 0.0
        rounds = 0
        while a != b:
            move_a = depth[a] >= depth[b]
            move_b = depth[b] >= depth[a]
            if (move_a and parent[a] < 0) or (move_b and parent[b] < 0) or rounds == n:
                return TREE_PAIR_APART
            rounds += 1
            if mass is None:
                total += (wpar[a] if move_a else 0.0) + (wpar[b] if move_b else 0.0)
            else:
                if move_a:
                    out[a] += mass[k]
                if move_b:
                    out[n + b] += mass[k]
            if move_a:
                a = parent[a]
            if move_b:
                b = parent[b]
        if mass is None:
            out[k] = total
    return 0


def pair_distances(indptr, indices, adj_w, xs, ys, by_source, dist, seen, settled, wanted, out):
    """Shortest-path distance of every pair ``(xs[k], ys[k])`` in the CSR
    graph into ``out[k]``: one Dijkstra run per distinct source, taking the
    pairs in the order ``by_source`` lists them (grouped by source). A run
    settles vertices in increasing (distance, id) order, relaxes an arc only
    to a strictly shorter distance d[v] + w, and stops when its last target
    is settled. ``dist`` and the run stamps ``seen`` (dist current),
    ``settled`` and ``wanted`` (a target of this run) are n-slot work lists,
    the stamps zero on entry. Returns 0, ``PATH_BAD_WEIGHT`` when an arc
    weight is negative or not finite, or ``PATH_UNREACHED`` when a run runs
    out of vertices before it settles its targets.

    The (distance, id) keys in the heap are distinct, since a vertex is
    pushed again only at a strictly shorter distance, so every binary heap
    pops them in the same order.
    """
    for w in adj_w:
        if not (w >= 0.0 and w < math.inf):
            return PATH_BAD_WEIGHT
    k = len(by_source)
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
            if not heap:
                return PATH_UNREACHED
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
            out[by_source[q]] = dist[ys[by_source[q]]]
        i = j
    return 0
