"""Every ``Kernels`` entry checks its inputs in one runner that both backends
share, so a malformed call raises the same exception with the same message on
every backend, the plain-Python reference included."""

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import TreeOTError

from conftest import compiled_backends, raised

N = 9  # vertices of the 3x3 lattice that every call runs on

#: every kernel's arguments, by name, in order
SIGNATURES = {
    "anneal_chain": "parent wpar xi_cum root indptr indices adj_w xi_node max_iters beta0 "
                    "target_accept eta window record_every recompute_every target_cost rng "
                    "best_parent best_wpar trace_iter trace_cur trace_best trace_beta trace_acc",
    "wilson_tree": "indptr indices adj_w rng parent wpar",
    "dp_plan": "parent order xi zero_tol",
    "network_simplex": "supply tail head cost",
    "tree_order": "root parent",
    "subtree_sums": "parent order values",
    "tree_potential": "parent order wpar xi_cum sign_at_zero",
    "balanced_subtree": "indptr indices adj_w rng xi samples tol",
    "tree_pairs": "parent depth wpar xs ys mass",
    "pair_distances": "indptr indices adj_w xs ys",
}

#: case: the argument it breaks and the malformed value made from the good one
#: (besides the ``int32-<argument>`` and ``short-<argument>`` cases)
CASES = {
    "parent-link-minus-2": ("parent", lambda p: np.where(p == p.max(), -2, p)),
    "parent-link-out-of-range": ("parent", lambda p: np.where(p == p.max(), N, p)),
    "order-not-a-permutation": ("order", lambda o: np.r_[o[1], o[1:]]),
    "neighbour-out-of-range": ("indices", lambda a: a + 1),
    "vertex-without-neighbour": ("indptr", lambda a: np.r_[0, 0, a[2:]]),
    "arc-endpoint-out-of-range": ("head", lambda a: a + 1),
    "pair-vertex-out-of-range": ("xs", lambda a: a + 1),
    "negative-arc-cost": ("cost", lambda a: -a),
    "negative-arc-weight": ("adj_w", lambda a: -a),
    "root-out-of-range": ("root", lambda r: N),
    "window-0": ("window", lambda w: 0),
}

KERNEL_CASES = {
    "anneal_chain": ["parent-link-minus-2", "parent-link-out-of-range", "root-out-of-range",
                     "window-0", "neighbour-out-of-range", "vertex-without-neighbour",
                     "int32-parent", "short-xi_node"],
    "wilson_tree": ["neighbour-out-of-range", "vertex-without-neighbour", "int32-indptr",
                    "short-adj_w"],
    "dp_plan": ["parent-link-minus-2", "parent-link-out-of-range", "order-not-a-permutation",
                "int32-order", "short-xi"],
    "network_simplex": ["arc-endpoint-out-of-range", "negative-arc-cost", "int32-tail",
                        "short-tail"],
    "tree_order": ["parent-link-minus-2", "parent-link-out-of-range", "root-out-of-range",
                   "int32-parent"],
    "subtree_sums": ["parent-link-minus-2", "parent-link-out-of-range", "order-not-a-permutation",
                     "int32-order", "short-values"],
    "tree_potential": ["parent-link-minus-2", "parent-link-out-of-range",
                       "order-not-a-permutation", "short-wpar", "short-xi_cum"],
    "balanced_subtree": ["neighbour-out-of-range", "vertex-without-neighbour", "int32-indices",
                         "short-adj_w"],
    "tree_pairs": ["parent-link-minus-2", "parent-link-out-of-range", "pair-vertex-out-of-range",
                   "int32-xs", "short-wpar"],
    "pair_distances": ["neighbour-out-of-range", "pair-vertex-out-of-range", "negative-arc-weight",
                       "int32-indptr", "short-adj_w"],
}


def arguments() -> dict:
    """Well-formed arguments of every kernel, by name: a 3x3 lattice, a
    Wilson tree of it and a balanced imbalance, as fresh arrays, since some
    kernels write into theirs."""
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    xi = np.linspace(-0.4, 0.4, N)
    rows = 50 // 10 + 2
    return {
        "parent": t.parent.copy(), "wpar": t.weight_to_parent.copy(), "order": t.order.copy(),
        "depth": t.depth.copy(), "root": t.root, "xi_cum": ot.subtree_aggregate(t, xi),
        "xi_node": xi.copy(), "xi": xi.copy(), "values": xi.copy(), "supply": xi.copy(),
        "indptr": g.indptr.copy(), "indices": g.indices.copy(), "adj_w": g.weights.copy(),
        "tail": g.arc_tails(), "head": g.indices.copy(), "cost": g.weights.copy(),
        "xs": np.arange(N, dtype=np.int64), "ys": np.arange(N, dtype=np.int64)[::-1].copy(),
        "mass": None, "max_iters": 50, "beta0": 1.0, "target_accept": 0.3, "eta": 0.05,
        "window": 10, "record_every": 10, "recompute_every": 0, "target_cost": np.nan,
        "rng": np.random.default_rng(1), "best_parent": np.empty(N, dtype=np.int64),
        "best_wpar": np.empty(N), "trace_iter": np.zeros(rows, dtype=np.int64),
        "trace_cur": np.zeros(rows), "trace_best": np.zeros(rows), "trace_beta": np.zeros(rows),
        "trace_acc": np.zeros(rows), "sign_at_zero": 1, "zero_tol": 1e-14, "samples": 4,
        "tol": 1e-12,
    }


def call_args(kernel: str, case: str | None = None) -> list:
    """The arguments of ``kernel``, with the one that ``case`` breaks broken."""
    args = arguments()
    kind, _, name = (case or "").partition("-")
    if kind == "int32":
        args[name] = args[name].astype(np.int32)
    elif kind == "short":
        args[name] = args[name][:-1]
    elif case:
        name, bad = CASES[case]
        args[name] = bad(args[name])
    return [args[a] for a in SIGNATURES[kernel].split()]


@pytest.fixture(scope="module")
def loaded():
    return {backend: _kernels._LOADERS[backend]() for backend in ["python", *compiled_backends()]}


def test_every_kernel_has_cases():
    assert set(KERNEL_CASES) == set(SIGNATURES) == set(_kernels.Kernels._fields) - {"name"}
    for kernel in SIGNATURES:
        assert raised(getattr(_kernels._load_python(), kernel), *call_args(kernel)) is None


@pytest.mark.parametrize("kernel, case", [(k, c) for k, cases in KERNEL_CASES.items() for c in cases])
def test_malformed_input_raises_alike_on_every_backend(kernel, case, loaded):
    expected = raised(getattr(loaded["python"], kernel), *call_args(kernel, case))
    assert expected is not None and issubclass(expected[0], (ValueError, RuntimeError, TreeOTError))
    for backend in compiled_backends():
        assert raised(getattr(loaded[backend], kernel), *call_args(kernel, case)) == expected
