"""Simulated annealing over rooted spanning trees.

The search walks the tree space by root-relocation edge swaps: a graph
neighbour of the current root becomes the new root, gaining the connecting
edge and dropping its old parent edge. The cost difference only involves the
cycle closed by the swapped edges, so a step costs O(cycle length).

:func:`anneal` drives the fused kernel in :mod:`treeot._kernels` on the backend
that ``TREEOT_BACKEND`` selects (numba, C or plain Python; see
:func:`treeot.kernel_backend`); the operations below expose the individual
steps on an :class:`AnnealState` and are kept in lockstep with the kernel
(same draws, same updates).
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


class Candidate(NamedTuple):
    """Root-relocation proposal: adopt ``new_root``, add the edge to the old
    root, drop the old parent edge of ``new_root``."""

    new_root: int
    added_edge: tuple[int, int]
    removed_edge: tuple[int, int]
    added_weight: float
    cycle_vertices: tuple[int, ...]


@dataclass
class AnnealState:
    """Mutable chain state: current rooted tree, cumulative imbalance, costs,
    temperature and the acceptance window."""

    parent: np.ndarray
    wpar: np.ndarray
    root: int
    xi_cum: np.ndarray
    xi_node: np.ndarray
    current_cost: float
    beta: float
    config: AnnealConfig
    best_parent: np.ndarray
    best_root: int
    best_cost: float
    bits: np.ndarray
    bits_sum: int = 0
    bits_seen: int = 0
    iteration: int = 0

    @classmethod
    def from_tree(cls, tree: RootedTree, mu, nu, config: AnnealConfig) -> "AnnealState":
        xi = imbalance(as_measure(mu, tree.n), as_measure(nu, tree.n))
        xi_cum = subtree_aggregate(tree, xi)
        # same summation order as the kernel so costs agree bit-for-bit
        cost = float(_kernels.tree_cost(tree.parent, tree.weight_to_parent, xi_cum))
        return cls(
            parent=tree.parent.copy(),
            wpar=tree.weight_to_parent.copy(),
            root=tree.root,
            xi_cum=xi_cum,
            xi_node=xi,
            current_cost=cost,
            beta=config.beta0,
            config=config,
            best_parent=tree.parent.copy(),
            best_root=tree.root,
            best_cost=cost,
            bits=np.zeros(config.window, dtype=np.int64),
        )

    def current_tree(self) -> RootedTree:
        return _from_parent_array(self.root, self.parent, self.wpar)


def propose_move(state: AnnealState, g: WeightedGraph, rng: np.random.Generator) -> Candidate | None:
    """Draw the candidate root uniformly among graph neighbours of the root."""
    lo = int(g.indptr[state.root])
    deg = int(g.indptr[state.root + 1]) - lo
    if deg == 0:
        return None
    k = int(rng.integers(0, deg))
    new_root = int(g.indices[lo + k])
    w_added = float(g.weights[lo + k])
    cycle = [new_root]
    while cycle[-1] != state.root:
        cycle.append(int(state.parent[cycle[-1]]))
    return Candidate(
        new_root=new_root,
        added_edge=(state.root, new_root),
        removed_edge=(new_root, int(state.parent[new_root])),
        added_weight=w_added,
        cycle_vertices=tuple(cycle),
    )


def hamiltonian_delta(state: AnnealState, cand: Candidate) -> float:
    """Cost(current) - cost(candidate), summed over the swap cycle only.

    Interior cycle vertices keep their parent edge but their cumulative
    imbalance shifts by the candidate root's value; the swapped pair of edges
    trades |imbalance at the candidate root| between the two weights.
    """
    xr = state.xi_cum[cand.new_root]
    h = (state.wpar[cand.new_root] - cand.added_weight) * abs(xr)
    v = int(state.parent[cand.new_root])
    while v != state.root:
        h += state.wpar[v] * (abs(state.xi_cum[v]) - abs(state.xi_cum[v] - xr))
        v = int(state.parent[v])
    return float(h)


def accept_step(state: AnnealState, cand: Candidate, u: float) -> AnnealState:
    """Metropolis step: accept iff u <= min(1, exp(beta * H)); apply in place.

    On acceptance the cumulative imbalance is updated incrementally on the
    cycle (interior vertices shift by the candidate root's value, the old root
    takes its negation, the new root zeroes) and only two parent links change.
    """
    h = hamiltonian_delta(state, cand)
    accept = h >= 0.0 or u <= math.exp(state.beta * h)
    if accept:
        xr = state.xi_cum[cand.new_root]
        v = int(state.parent[cand.new_root])
        while v != state.root:
            state.xi_cum[v] -= xr
            v = int(state.parent[v])
        state.xi_cum[state.root] = -xr
        state.xi_cum[cand.new_root] = 0.0
        state.parent[state.root] = cand.new_root
        state.wpar[state.root] = cand.added_weight
        state.parent[cand.new_root] = -1
        state.wpar[cand.new_root] = 0.0
        state.root = cand.new_root
        state.current_cost -= h
        if state.current_cost < state.best_cost:
            state.best_cost = state.current_cost
            state.best_root = state.root
            state.best_parent[:] = state.parent

    slot = state.iteration % state.config.window
    if state.bits_seen >= state.config.window:
        state.bits_sum -= int(state.bits[slot])
    state.bits[slot] = 1 if accept else 0
    state.bits_sum += int(state.bits[slot])
    state.bits_seen += 1
    state.iteration += 1
    return state


def update_temperature(state: AnnealState) -> AnnealState:
    """Multiplicative adaptation towards the target acceptance rate; no-op
    until the window has filled once."""
    cfg = state.config
    if state.bits_seen >= cfg.window:
        rate = state.bits_sum / cfg.window
        state.beta = state.beta * (1.0 + cfg.eta * (rate - cfg.target_accept))
    return state


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
    best_parent = parent.copy()

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
    best_tree = _tree_from_parents(g, int(best_root), best_parent)
    final_tree = _tree_from_parents(g, int(final_root), parent)
    return AnnealResult(
        best_tree=best_tree,
        best_cost=float(best),
        final_tree=final_tree,
        final_cost=float(current),
        trace=trace,
        iters_run=int(iters_done),
        max_drift=float(max_drift),
    )


def _tree_from_parents(g: WeightedGraph, root: int, parent: np.ndarray) -> RootedTree:
    wpar = np.zeros(g.n)
    for v in range(g.n):
        if parent[v] >= 0:
            wpar[v] = g.edge_weight(v, int(parent[v]))
    return _from_parent_array(root, parent.copy(), wpar)


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
