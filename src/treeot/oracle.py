"""Exact solvers and invariant checkers used as ground truth.

Both solvers run the kernel backend's ``network_simplex`` (see
``_kernels``), which pivots from one spanning tree of a flow network to the
next with a dual potential at every step. :func:`solve` gives it the
graph's own arcs, so it needs O(E) memory. :func:`exact_k_distance`
reduces by the zero-cost diagonal and gives it the dense bipartite network
from excess-supply to excess-demand vertices under a distance matrix, so
its plan is basic (a vertex of the transportation polytope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NonFiniteWeightError, NonPositiveWeightError, VertexRangeError
from .graphs import WeightedGraph, _csr, _reals, _walk
from .transport import (Potential, TransportPlan, _assemble_plan, _checked, _support_distances,
                        imbalance_zero)
from .trees import RootedTree, _check_tree_of, _climb

#: Default tolerance for optimality and duality identities.
VALUE_TOL = 1e-9
#: The most vertices whose subset sums :func:`check_weak_nondegeneracy` scans.
EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class ExactSolution:
    """Optimal value, a basic optimal plan, a dual potential anchored at 0,
    and the pivots the network simplex made."""

    value: float
    plan: TransportPlan
    dual: Potential
    pivots: int


@dataclass(frozen=True)
class Solution:
    """W1 by network simplex on the graph's arcs: the optimal value, the
    simplex dual as a potential anchored at vertex 0, and the pivots made."""

    value: float
    potential: Potential
    pivots: int


def solve(g: WeightedGraph, mu, nu) -> Solution:
    """Solve the graph transport LP exactly on the graph's own arcs.

    W1 is the min-cost uncapacitated flow of mu - nu over the edges, each in
    both directions: the CSR arcs (tail, ``indices``, ``weights``) go to
    the backend's ``network_simplex`` as they are, so memory is O(E) and
    there is no vertex cap. The potential is the simplex dual pi - pi[0]:
    1-Lipschitz on every edge up to the pricing tolerance
    (``_kernels.PRICE_RTOL`` of the largest weight) and tight on every edge
    that carries flow, so its duality value is the optimal value.
    """
    xi = _checked(mu, nu, g.n)[2]
    flow, pi, pivots = _kernels.kernels().network_simplex(xi, g.arc_tails(), g.indices, g.weights)
    potential = pi - pi[0]
    potential.setflags(write=False)
    return Solution(float(np.sum(flow * g.weights)), Potential(potential, anchor=0), pivots)


def exact_k_distance(dist: np.ndarray, mu, nu) -> ExactSolution:
    """Solve the transport LP exactly for a dense ground metric ``dist``, an
    array or nested list of real numbers (else ``NonFiniteWeightError``).

    Returns the optimal value, a plan whose support is a forest with maximal
    diagonal (a vertex of the polytope), and a 1-Lipschitz dual potential with
    value zero at vertex 0. Raises ``NonFiniteWeightError`` when ``dist``
    holds a NaN or infinite entry and ``NonPositiveWeightError`` when it holds
    a negative one.
    """
    dist = _reals(dist, "distances", NonFiniteWeightError)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise VertexRangeError("distance matrix must be square")
    n = dist.shape[0]
    # checked before solving: the kernel backends agree only on finite costs
    for bad, error in ((~np.isfinite(dist), NonFiniteWeightError), (dist < 0.0, NonPositiveWeightError)):
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise error(f"distance ({i},{j}) is {dist[i, j]}")
    mu, nu, xi = _checked(mu, nu, n)

    diag = np.minimum(mu, nu)
    srcs = np.flatnonzero(xi > 0.0)
    snks = np.flatnonzero(xi < 0.0)
    on_diag = np.flatnonzero(diag > 0.0)

    if srcs.size == 0 or snks.size == 0:
        dual = np.zeros(n)
        dual.setflags(write=False)
        plan = _assemble_plan(n, on_diag, on_diag, diag[on_diag])
        return ExactSolution(0.0, plan, Potential(dual, anchor=0), 0)

    ns, nd = srcs.size, snks.size
    cost = np.ascontiguousarray(dist[np.ix_(srcs, snks)])
    # arc i * nd + j runs from source i to sink ns + j
    tail = np.repeat(np.arange(ns, dtype=np.int64), nd)
    head = np.tile(np.arange(ns, ns + nd, dtype=np.int64), ns)
    flow, pi, pivots = _kernels.kernels().network_simplex(
        np.concatenate([xi[srcs], xi[snks]]), tail, head, cost.ravel())
    flow = flow.reshape(ns, nd)

    i, j = np.nonzero(flow > 0.0)
    plan = _assemble_plan(n, np.concatenate([on_diag, srcs[i]]), np.concatenate([on_diag, snks[j]]),
                          np.concatenate([diag[on_diag], flow[i, j]]))
    value = float(np.sum(flow * cost))

    # Lipschitz extension of the sink potentials to every vertex; the
    # transport duals are alpha = pi on sources and beta = -pi on sinks
    dual = (dist[:, snks] + pi[None, ns:]).min(axis=1)
    dual = dual - dual[0]
    dual.setflags(write=False)
    return ExactSolution(value, plan, Potential(dual, anchor=0), pivots)


def lipschitz_violation(u: Potential, g: WeightedGraph) -> float:
    """Largest excess of a potential jump over its edge weight, floored at 0;
    NaN when a potential value on an edge is NaN. Reads the CSR arcs, so
    each edge is tested in both directions."""
    if u.n != g.n:
        raise VertexRangeError(f"potential on {u.n} vertices, graph on {g.n}")
    jumps = np.abs(u.values[g.arc_tails()] - u.values[g.indices]) - g.weights
    return float(np.max(jumps, initial=0.0))


def complementary_violation(plan: TransportPlan, u: Potential, dist) -> float:
    """Largest |u(x) - u(y) - d(x,y)| over the support of the plan; ``dist``
    is a dense distance matrix, a rooted tree or the distances at the support
    pairs (see :func:`treeot.transport.plan_cost`)."""
    if u.n != plan.n:
        raise VertexRangeError(f"potential on {u.n} vertices, plan on {plan.n}")
    gaps = u.values[plan.rows] - u.values[plan.cols] - _support_distances(plan, dist)
    return float(np.max(np.abs(gaps), initial=0.0))


def check_weak_nondegeneracy(mu, nu, graph: WeightedGraph) -> bool:
    """Whether mu and nu give different mass to every proper nonempty vertex
    set: the paper's weak non-degeneracy, under which the Kantorovich
    potential is unique. It is sufficient for uniqueness, not necessary;
    :func:`certified_dual` decides uniqueness itself.

    The subset sums of mu - nu are scanned exhaustively (meet-in-the-middle),
    so more than ``EXHAUSTIVE_CAP`` vertices raise ``ValueError``.
    Imbalances up to :func:`imbalance_zero` count as zero. The measures are
    checked first.
    """
    xi = _checked(mu, nu, None)[2]
    n = xi.shape[0]
    if graph.n != n:
        raise VertexRangeError(f"measures on {n} vertices, graph on {graph.n}")
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"the subset scan takes at most {EXHAUSTIVE_CAP} vertices, not {n}")
    half = n // 2
    low = _subset_sums(xi[:half])
    high = np.sort(_subset_sums(xi[half:]))
    zero = imbalance_zero(xi)  # at least |sum xi|: the empty and the full set always tie
    return int(np.sum(np.searchsorted(high, -low + zero, side="right")
                      - np.searchsorted(high, -low - zero, side="left"))) <= 2


def _subset_sums(values: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def certified_dual(g: WeightedGraph, t: RootedTree, mu, nu) -> tuple[Potential, bool] | None:
    """A Kantorovich potential of mu and nu on ``g`` that the spanning tree
    ``t`` certifies, and whether it is unique up to a constant; None when
    there is none, so ``t`` is not optimal. The measures are checked first.

    The dual optimal face (complementary slackness; Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 9) is u(a) - u(b) <= w on every arc, = w on
    each tree edge whose flow, above :func:`imbalance_zero`, runs a -> b.
    These edges split the tree into K components, on each of which u is the
    tree potential up to an offset; arcs inside get ``certify``'s test, and
    those between are difference constraints on the K offsets. The potential
    is their greatest point, anchored at the root: for K = 1, the paper's
    non-degenerate case, the tree potential itself.
    """
    _check_tree_of(g, t)
    xi = _checked(mu, nu, t.n)[2]
    xi_cum, u = _kernels.kernels().tree_potential(t, xi)
    link = np.where(np.abs(xi_cum) > imbalance_zero(xi), t.parent, -1)
    comp = (np.cumsum(link < 0) - 1)[_climb(link)[1]]
    tails, heads, w = g.arc_tails(), g.indices, g.weights
    cross = comp[tails] != comp[heads]
    if np.any((np.abs(u[tails] - u[heads]) > w * (1.0 + _kernels.CERT_RTOL))[~cross]):
        return None
    # u sums at most n - 1 weights down the tree, each rounding by eps/2 max|u|
    # at most; a cycle of two or more of these arcs passes disjoint tree paths,
    # so they err by n eps/2 max|u| in all, and the allowance leaves as much per
    # arc for its own roundings: no zero cycle closes below 0. A pinned offset
    # comes out within 2 allowances per arc each way, 4 (K - 1) in all.
    allowance = g.n * math.ulp(1.0) * float(np.max(np.abs(u)))
    src, dst = comp[heads[cross]], comp[tails[cross]]
    weight = w[cross] - u[tails[cross]] + u[heads[cross]] + allowance
    origin = np.where(np.arange(comp.max() + 1) == comp[t.root], 0.0, np.inf)
    high = _difference_constraints(src, dst, weight, origin)
    minus_least = None if high is None else _difference_constraints(dst, src, weight, origin)
    if minus_least is None:
        return None
    unique = float(np.max(high + minus_least)) <= 4 * (origin.size - 1) * allowance
    potential = u + high[comp]
    potential.setflags(write=False)
    return Potential(potential, anchor=t.root), unique


def check_cyclical_monotonicity(
    plan: TransportPlan, g: WeightedGraph, dist, tol: float = VALUE_TOL
) -> bool:
    """Exact cyclical monotonicity of the plan's support, over every family size.

    The support is cyclically monotone exactly when some potential is
    1-Lipschitz on every graph edge and has u(x) - u(y) = d(x, y) on every
    support pair (Kantorovich-Rubinstein duality). These difference
    constraints are feasible exactly when their constraint graph has no
    negative cycle: arcs a->b and b->a of weight w for each graph edge, and
    x->y of weight -d(x, y) + tol/s for each of the s off-diagonal support
    pairs. A family of k pairs therefore fails only when permuting its targets
    saves more than k*tol/s <= tol. ``dist`` must be the shortest-path metric
    of ``g``, as a dense matrix or as the distances at the support pairs; a
    support distance that is NaN or infinite raises ``NonFiniteWeightError``.
    :func:`_difference_constraints` from u = 0 looks for the cycle.
    """
    if plan.n != g.n:
        raise VertexRangeError("plan size does not match graph")
    off = plan.rows != plan.cols
    s = int(np.count_nonzero(off))
    if s == 0:
        return True
    support_dist = _support_distances(plan, dist)
    bad = ~np.isfinite(support_dist)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteWeightError(
            f"support distance ({plan.rows[i]},{plan.cols[i]}) is {support_dist[i]}")
    src = np.concatenate([g.arc_tails(), plan.rows[off]])
    dst = np.concatenate([g.indices, plan.cols[off]])
    weight = np.concatenate([g.weights, tol / s - support_dist[off]])
    return _difference_constraints(src, dst, weight, np.zeros(g.n)) is not None


def _difference_constraints(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                            start: np.ndarray) -> np.ndarray | None:
    """The greatest u <= ``start`` with u(dst) <= u(src) + weight on every
    arc; None when a negative cycle reachable from a finite start value
    leaves none. If there are arcs, every vertex must head one, as each of
    :func:`certified_dual`'s K >= 2 components ends a zero-flow tree edge,
    whose arcs run both ways in the CSR. Bellman-Ford, whose parent graph
    (the tail of the arc that last lowered each vertex) is searched every
    ceil(sqrt(n)) rounds for a cycle, which is negative (Cherkassky &
    Goldberg, Math. Programming 85, 1999); with none, n rounds suffice."""
    n = start.shape[0]
    if dst.size == 0:
        return start
    by_head = np.argsort(dst, kind="stable")
    src, dst, weight = src[by_head], dst[by_head], weight[by_head]
    first = np.searchsorted(dst, np.arange(n))
    u = start
    parent = np.full(n, -1)
    period = math.isqrt(n - 1) + 1
    for rounds in range(1, n + 2):
        reach = u[src] + weight
        low = np.minimum.reduceat(reach, first)
        relaxed = np.minimum(u, low)
        if np.array_equal(relaxed, u):
            return u
        lowered = (low < u)[dst] & (reach == low[dst])
        parent[dst[lowered]] = src[lowered]
        u = relaxed
        if rounds % period == 0 and _has_cycle(parent):
            return None
    return None


def _has_cycle(parent: np.ndarray) -> bool:
    """Whether the links ``parent`` (-1 for none) close a cycle: climbed by
    :func:`treeot.trees._climb`, a vertex whose links run into a cycle tops
    out on a vertex that has a link."""
    _, top = _climb(parent)
    return bool(np.any(parent[top] >= 0))


def check_vertex_support(plan: TransportPlan) -> dict:
    """Structure of the support with orientation forgotten and loops removed.

    Returns ``is_forest``, the number of proper (non-loop) undirected edges,
    and whether those edges form a spanning tree of the whole vertex set.
    :func:`treeot.graphs._walk` from every vertex counts the components, and
    the edges are a forest exactly when they number n less the components.
    """
    n, rows, cols = plan.n, plan.rows, plan.cols
    keys = np.sort((np.minimum(rows, cols) * n + np.maximum(rows, cols))[rows != cols])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique would import numpy.ma, 1.3 MB
    indptr, heads, _ = _csr(n, *np.divmod(keys, n))
    components = _walk(indptr, heads, range(n)).count(-1)
    is_forest = keys.size == n - components
    return {"is_forest": is_forest, "proper_edges": keys.size,
            "is_spanning_tree_up_to_loops": is_forest and components == 1}


def geodesic_support_violation(plan: TransportPlan, dist_graph, dist_tree) -> float:
    """Largest gap between graph distance and tree distance over the support;
    each metric is given as :func:`treeot.transport.plan_cost` takes it."""
    gaps = _support_distances(plan, dist_tree) - _support_distances(plan, dist_graph)
    return float(np.max(np.abs(gaps), initial=0.0))


def potential_match_up_to_constant(u1: Potential, u2: Potential, tol: float = 1e-6) -> bool:
    """Whether two potentials differ by a constant, up to ``tol``."""
    if u1.n != u2.n:
        raise VertexRangeError(f"potentials on {u1.n} and {u2.n} vertices")
    gap = u1.values - u2.values
    return bool(np.max(np.abs(gap - gap[0])) <= tol)
