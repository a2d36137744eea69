"""The annealing, random-tree and transport-plan kernels and the backends
that run them.

``anneal_chain``, ``wilson_tree`` and ``dp_plan`` below are the reference
kernels in plain Python. ``anneal_chain`` moves between rooted spanning trees
through four step functions, the one statement of the swap arithmetic:
``propose_root`` draws the candidate root, ``swap_delta`` scores the swap on
its cycle, ``apply_swap`` makes it, and ``update_beta`` adapts the
temperature. Two backends run the kernels:

- ``c``: ``_kernel.c``, a transcription (the step functions as ``static``
  helpers) built on first use with the system C compiler and loaded through
  ``ctypes``, which releases the GIL;
- ``python``: the function bodies as they stand.

``TREEOT_BACKEND`` names the backend. Unset, c is used if it loads, else
python with a warning. A named backend that cannot load, or an unknown name,
raises :class:`KernelBackendError`; there is no silent fallback. Traces, trees
and plans are bit-identical between backends: both draw from the caller's
numpy bit generator in the same way, and do the same arithmetic in the same
order without fused multiply-adds. The python backend runs ``dp_plan`` over
lists, which Python indexes faster than arrays.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import shutil
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .errors import KernelBackendError

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

_lock = threading.Lock()
_backend: tuple[str, object, object, object] | None = None


def kernel_backend() -> str:
    """Name of the backend that runs the annealing kernel in this process."""
    return _resolve()[0]


def numba_enabled() -> bool:
    """Always ``False``: no backend JIT-compiles the kernels. Kept because
    ``perfbench/run.py`` still reads it."""
    return False


def chain_kernel():
    """The backend's ``anneal_chain``, with the signature of the one below."""
    return _resolve()[1]


def tree_kernel():
    """The backend's ``wilson_tree``, with the signature of the one below."""
    return _resolve()[2]


def plan_kernel():
    """The backend's transport-plan DP: ``(parent, order, xi, zero_tol) ->
    (rows, cols, mass)``, the off-diagonal entries that ``dp_plan`` below
    writes, in its order. Raises ``RuntimeError`` when an entry is written
    twice, when no match exists or when 4n + 16 transfers do not finish."""
    return _resolve()[3]


def _resolve():
    global _backend
    with _lock:
        if _backend is None:
            _backend = _select(os.environ.get("TREEOT_BACKEND", "").strip().lower())
        return _backend


def _select(name: str):
    if name == "":
        try:
            return "c", *_load_c()
        except KernelBackendError as exc:
            warnings.warn(f"treeot runs the plain-Python annealing kernel (c: {exc})",
                          RuntimeWarning, stacklevel=4)
        return "python", *_load_python()
    if name not in _LOADERS:
        raise KernelBackendError(
            f"TREEOT_BACKEND={name!r} is not one of {', '.join(_LOADERS)}")
    try:
        return name, *_LOADERS[name]()
    except KernelBackendError as exc:
        raise KernelBackendError(f"TREEOT_BACKEND={name}: {exc}") from exc


def _load_python():
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

    return anneal_chain, wilson_tree, _plan_runner(dp_plan_lists)


def _plan_runner(run):
    """The backend's plan kernel: checks the tree, builds its child CSR with a
    stable argsort of ``parent`` (children in increasing order, as in
    ``RootedTree.children``), calls ``run`` with the reference's first six
    arguments and turns its ``(status, count, u, out_x, out_y, out_m)`` into
    entries or a ``RuntimeError``."""

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
        child_idx = np.argsort(parent, kind="stable")[1:]
        child_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(up, minlength=n), out=child_ptr[1:])
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


def _load_c():
    try:
        lib = ctypes.CDLL(str(build_c_kernel()))
    except OSError as exc:
        raise KernelBackendError(f"cannot load the C kernel ({exc})") from exc
    fn = lib.treeot_anneal_chain
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = [i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr,
                   i64, f64, f64, f64, i64, i64, i64, f64, ptr,
                   ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    fn.restype = ctypes.c_int
    wilson = lib.treeot_wilson
    wilson.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    wilson.restype = ctypes.c_int
    plan = lib.treeot_dp_plan
    plan.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, f64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    plan.restype = ctypes.c_int

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
        work_d = np.empty(n)
        out_d = np.empty(3)
        out_i = np.empty(4, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = fn(n, parent.ctypes.data, wpar.ctypes.data, xi_cum.ctypes.data, root,
                        indptr.ctypes.data, indices.ctypes.data, adj_w.ctypes.data,
                        xi_node.ctypes.data, max_iters, beta0, target_accept, eta, window,
                        record_every, recompute_every, target_cost,
                        bitgen.ctypes.bit_generator.value, best_parent.ctypes.data,
                        best_wpar.ctypes.data, trace_iter.ctypes.data, trace_cur.ctypes.data,
                        trace_best.ctypes.data, trace_beta.ctypes.data, trace_acc.ctypes.data,
                        bits.ctypes.data, work_i.ctypes.data, work_d.ctypes.data,
                        out_d.ctypes.data, out_i.ctypes.data)
        if status != 0:
            raise ValueError(f"C kernel stopped: {_C_STATUS.get(status, status)}")
        best, current, max_drift = out_d.tolist()
        final_root, best_root, records, iters_done = out_i.tolist()
        return best, current, final_root, best_root, records, iters_done, max_drift

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

    return anneal_chain_c, wilson_tree_c, _plan_runner(dp_plan_c)


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
    """Fresh subtree sums of xi_node for the tree given by parent links."""
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
    return out


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
    best tree is copied into ``best_parent`` and ``best_wpar``. Returns
    (best_cost, current_cost, root, best_root, records, iters_done, max_drift).
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
    if have_target and best <= target_cost + 1e-9:
        return best, current, root, best_root, records, iters_done, max_drift

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
            fresh = recompute_cumulative(parent, xi_node)
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

        stop = have_target and best <= target_cost + 1e-9
        if it % record_every == 0 or it == max_iters or stop:
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
        if stop:
            break

    return best, current, root, best_root, records, iters_done, max_drift


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
