"""Simulated annealing over rooted spanning trees.

The search walks the tree space by root-relocation edge swaps: a graph
neighbour of the current root becomes the new root, gaining the connecting
edge and dropping its old parent edge. The cost difference only involves the
cycle closed by the swapped edges, so a step costs O(cycle length).

:func:`anneal` and :func:`anneal_chains` set up the chain and run
``anneal_chain`` of :mod:`treeot._kernels` on the backend that
``TREEOT_BACKEND`` selects (C or plain Python; see
:func:`treeot.kernel_backend`). The step arithmetic lives there, in
``propose_root``, ``swap_delta``, ``apply_swap`` and ``update_beta``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import VertexRangeError
from .graphs import WeightedGraph
from .transport import as_measure, imbalance
from .trees import RootedTree, _from_parent_array, random_spanning_tree, subtree_aggregate


@dataclass(frozen=True)
class AnnealConfig:
    """Knobs of the annealing loop.

    ``beta`` is adapted multiplicatively: after each post-warm-up iteration it
    is scaled by ``1 + eta * (rate - target_accept)`` where the acceptance rate
    averages the last ``window`` accept/reject bits.
    """

    max_iters: int
    seed: int = 0
    beta0: float = 0.1
    target_accept: float = 0.01
    eta: float = 0.01
    window: int = 100
    record_every: int = 1000
    recompute_every: int = 100_000

    def __post_init__(self):
        if self.max_iters < 0 or self.window < 1 or self.record_every < 1:
            raise ValueError("max_iters, window and record_every must be positive")
        if self.beta0 <= 0.0 or self.eta <= 0.0 or not (0.0 < self.target_accept < 1.0):
            raise ValueError("beta0, eta must be positive and target_accept in (0,1)")
        span = max(self.target_accept, 1.0 - self.target_accept)
        if self.eta * span >= 1.0:
            raise ValueError("eta too large: temperature could become non-positive")


class TraceRecord(NamedTuple):
    iter: int
    current_cost: float
    best_cost: float
    beta: float
    accept_rate: float


@dataclass(frozen=True)
class AnnealResult:
    best_tree: RootedTree
    best_cost: float
    final_tree: RootedTree
    final_cost: float
    trace: list[TraceRecord]
    iters_run: int
    max_drift: float


def anneal(
    g: WeightedGraph,
    mu,
    nu,
    config: AnnealConfig,
    initial_tree: RootedTree | None = None,
    target_cost: float | None = None,
) -> AnnealResult:
    """Minimize the tree transport cost over rooted spanning trees of ``g``.

    Starts from a random spanning tree (or ``initial_tree``), runs
    ``config.max_iters`` steps, and is fully determined by ``config.seed``.
    ``target_cost`` enables early stopping once the best cost is within 1e-9
    of it.
    """
    mu = as_measure(mu, g.n)
    nu = as_measure(nu, g.n)
    rng = np.random.default_rng(config.seed)
    if initial_tree is None:
        initial_tree = random_spanning_tree(g, rng)
    elif initial_tree.n != g.n:
        raise VertexRangeError("initial tree does not match the graph")
    return _run_chain(g, mu, nu, config, initial_tree, rng, target_cost)


def _run_chain(g, mu, nu, config, initial_tree, rng, target_cost) -> AnnealResult:
    xi = imbalance(mu, nu)
    parent = initial_tree.parent.copy()
    wpar = initial_tree.weight_to_parent.copy()
    xi_cum = subtree_aggregate(initial_tree, xi)
    root = initial_tree.root
    best_parent = np.empty_like(parent)
    best_wpar = np.empty_like(wpar)

    max_iters = config.max_iters if g.n > 1 else 0
    rows = max_iters // config.record_every + 4
    trace_iter = np.zeros(rows, dtype=np.int64)
    trace_cur = np.zeros(rows)
    trace_best = np.zeros(rows)
    trace_beta = np.zeros(rows)
    trace_acc = np.zeros(rows)

    best, current, final_root, best_root, records, iters_done, max_drift = _kernels.chain_kernel()(
        parent,
        wpar,
        xi_cum,
        root,
        g.indptr,
        g.indices,
        g.weights,
        xi,
        max_iters,
        config.beta0,
        config.target_accept,
        config.eta,
        config.window,
        config.record_every,
        config.recompute_every,
        math.nan if target_cost is None else float(target_cost),
        rng,
        best_parent,
        best_wpar,
        trace_iter,
        trace_cur,
        trace_best,
        trace_beta,
        trace_acc,
    )
    if max_drift > 1e-6:
        raise RuntimeError(f"incremental cost drifted by {max_drift:.3e}")

    trace = [
        TraceRecord(int(trace_iter[k]), float(trace_cur[k]), float(trace_best[k]),
                    float(trace_beta[k]), float(trace_acc[k]))
        for k in range(records)
    ]
    return AnnealResult(
        best_tree=_from_parent_array(int(best_root), best_parent, best_wpar),
        best_cost=float(best),
        final_tree=_from_parent_array(int(final_root), parent, wpar),
        final_cost=float(current),
        trace=trace,
        iters_run=int(iters_done),
        max_drift=float(max_drift),
    )


def anneal_chains(
    g: WeightedGraph,
    mu,
    nu,
    config: AnnealConfig,
    chains: int,
    target_cost: float | None = None,
) -> tuple[AnnealResult, int]:
    """Run ``chains`` independent chains on threads; return the best result and
    its chain index. Chain seeds are spawned from ``config.seed``. The threads
    run in parallel only on the C backend, whose calls release the GIL."""
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if chains == 1:
        return anneal(g, mu, nu, config, target_cost=target_cost), 0
    seeds = np.random.SeedSequence(config.seed).spawn(chains)

    def run(k: int) -> AnnealResult:
        rng = np.random.default_rng(seeds[k])
        tree = random_spanning_tree(g, rng)
        return _run_chain(g, as_measure(mu, g.n), as_measure(nu, g.n), config, tree, rng, target_cost)

    with ThreadPoolExecutor(max_workers=chains) as pool:
        results = list(pool.map(run, range(chains)))
    best_k = min(range(chains), key=lambda k: (results[k].best_cost, k))
    return results[best_k], best_k
