"""Simulated annealing over the spanning trees of one root.

The search moves by cycle exchange, this package's choice: an arc drawn
uniformly, unless a tree edge, closes a cycle; pushing flow θ around it
costs f(θ), piecewise linear with one breakpoint per cycle edge, and a heat
bath draws the breakpoint whose edge leaves. At beta = inf this is the
network-simplex pivot on the tree cost (Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, chs. 11 and 14). The root never moves.

:func:`anneal` and :func:`anneal_chains` validate the measures once, then
run each chain in one call of ``anneal_chain`` of :mod:`treeot._kernels`, on
the backend that ``TREEOT_BACKEND`` selects (C or plain Python; see
:func:`treeot.kernel_backend`), from the given initial tree or from the one
that the call draws by Wilson's algorithm. The step arithmetic lives there,
and so does the stop: ``certify`` ends a chain whose best tree its tree
potential proves optimal.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .graphs import WeightedGraph, _integer, _real
from .transport import _checked
from .trees import RootedTree, _check_tree_of


@dataclass(frozen=True)
class AnnealConfig:
    """Knobs of the annealing loop.

    The heat bath weighs a breakpoint exp(-beta * (f - min f) / s), s the
    running mean of f(0) - min f, so ``beta`` is in units of s. ``beta``
    starts at ``beta0`` and grows by ``1 + eta`` after every iteration (one
    proposal): a geometric ramp (Kirkpatrick, Gelatt & Vecchi, *Science*
    220, 1983).

    The chain starts cold, ``beta0`` = 3: its initial tree is already a
    uniform draw. Started hot, from 0.1, the corpora of README's sweep
    ("Annealing defaults") up to 16x16 need 1.2x-8.2x more proposals, and
    those at 32x32 and 64x64 as many within 10%.

    The chain refreshes its sums every ``_kernels.RECOMPUTE_EVERY`` proposals, a constant.
    README's "Numbers and vertices" says how each knob is read; a bad one raises ``ValueError``.
    """

    max_iters: int
    seed: int = 0
    beta0: float = 3.0
    eta: float = 0.002
    record_every: int = 1000

    def __post_init__(self):
        for name in ("max_iters", "seed", "record_every"):
            _integer(getattr(self, name), name, ValueError)
        # the kernel takes max_iters and record_every as int64
        if (min(self.max_iters, self.seed) < 0 or self.record_every < 1
                or max(self.max_iters, self.record_every) >= 2**63):
            raise ValueError("max_iters and seed must be non-negative and record_every positive, "
                             "and max_iters and record_every below 2**63")
        for name, value in (("beta0", self.beta0), ("eta", self.eta)):
            if not 0.0 < _real(value, name, ValueError) < math.inf:
                raise ValueError(f"{name} must be a positive finite real number, not {value!r}")


class TraceRecord(NamedTuple):
    iter: int
    current_cost: float
    best_cost: float
    beta: float
    accept_rate: float  # share of the proposals since the previous row that changed the tree


@dataclass(frozen=True)
class AnnealResult:
    best_tree: RootedTree
    best_cost: float
    final_tree: RootedTree
    final_cost: float
    trace: list[TraceRecord]
    iters_run: int
    max_drift: float
    stop_reason: str  # "max_iters", "target" or "certified"


def anneal(
    g: WeightedGraph,
    mu,
    nu,
    config: AnnealConfig,
    initial_tree: RootedTree | None = None,
    target_cost: float | None = None,
) -> AnnealResult:
    """Minimize the tree transport cost over rooted spanning trees of ``g``.

    Starts from a random spanning tree, or from ``initial_tree``, which must
    be a spanning tree of ``g`` with its weights (else ``NotSpanningError``),
    and is fully determined by ``config.seed``. ``config.max_iters`` is a budget: the
    chain stops early, with ``stop_reason`` ``"certified"``, once the tree
    potential of its best tree is 1-Lipschitz on every graph edge, which
    proves that tree optimal up to floating-point rounding. It checks on the initial tree and on each trace
    row where the best cost has dropped, so it stops at most
    ``config.record_every`` steps after it first holds a tree that passes.
    ``target_cost``, a finite real number (else ``ValueError``), stops it
    (``"target"``) once the best cost is at most target_cost + 1e-9 · min(1,
    |target_cost|); on the same row the target wins. Every stop writes the
    last trace row.
    """
    xi, stop_at = _chain_inputs(g, mu, nu, target_cost)
    if initial_tree is not None:
        _check_tree_of(g, initial_tree)
    return _run_chain(g, xi, config, stop_at, np.random.default_rng(config.seed), initial_tree)


def anneal_chains(
    g: WeightedGraph,
    mu,
    nu,
    config: AnnealConfig,
    chains: int,
    target_cost: float | None = None,
) -> tuple[AnnealResult, int]:
    """Run ``chains`` independent chains on threads; return the best result and
    its chain index. Chain seeds are spawned from ``config.seed``, so the
    results do not depend on the thread count: one thread per CPU at most.
    The threads run in parallel only on the C backend, whose calls release
    the GIL."""
    if chains < 1:
        raise ValueError("chains must be >= 1")
    if chains == 1:
        return anneal(g, mu, nu, config, target_cost=target_cost), 0
    xi, stop_at = _chain_inputs(g, mu, nu, target_cost)
    seeds = np.random.SeedSequence(config.seed).spawn(chains)

    def run(k: int) -> AnnealResult:
        return _run_chain(g, xi, config, stop_at, np.random.default_rng(seeds[k]))

    from concurrent.futures import ThreadPoolExecutor  # 4.5-8 ms to import, so only here

    with ThreadPoolExecutor(max_workers=min(chains, os.cpu_count() or 1)) as pool:
        results = list(pool.map(run, range(chains)))
    best_k = min(range(chains), key=lambda k: (results[k].best_cost, k))
    return results[best_k], best_k


def _chain_inputs(g: WeightedGraph, mu, nu, target_cost) -> tuple[np.ndarray, float]:
    """The imbalance of the validated measures, and the best cost at which
    the kernel stops for :func:`anneal`'s ``target_cost`` (NaN for never)."""
    xi = _checked(mu, nu, g.n)[2]
    if target_cost is None:
        return xi, math.nan
    target = _real(target_cost, "target_cost", ValueError)
    if not math.isfinite(target):
        raise ValueError(f"target_cost must be a finite real number, not {target_cost!r}")
    return xi, target + 1e-9 * min(1.0, abs(target))


def _run_chain(g, xi, config, stop_at, rng, tree=None) -> AnnealResult:
    """One chain from ``tree``, or from the Wilson tree that the kernel draws
    from ``rng``, the one that :func:`treeot.trees.random_spanning_tree` draws."""
    trace, max_drift, stop, root, best_links, links = _kernels.kernels().anneal_chain(
        tree, g, xi, config.max_iters if g.n > 1 else 0, config.beta0, config.eta,
        config.record_every, stop_at, rng)
    rows = [TraceRecord(int(it), *rest) for it, *rest in trace.tolist()]
    iters_done, current, best = rows[-1][:3]  # every stop writes the last row
    if max_drift > 1e-6:
        raise RuntimeError(f"incremental cost drifted by {max_drift:.3e}")
    best_tree = RootedTree(root, *best_links)
    # the kernel returns the best links as the final ones where it ended on them: one proof
    return AnnealResult(
        best_tree=best_tree,
        best_cost=best,
        final_tree=best_tree if links is best_links else RootedTree(root, *links),
        final_cost=current,
        trace=rows,
        iters_run=iters_done,
        max_drift=float(max_drift),
        stop_reason=_kernels.STOP_REASONS[stop],
    )
