"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's code paths: plain
Dijkstra, exhaustive path enumeration and direct subset scans serve as oracles
for the optimized implementations.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import (
    BadDimensionsError,
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    GraphError,
    HasCycleError,
    NonFiniteMassError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    NotSpanningError,
    SelfLoopError,
    TreeError,
    VertexRangeError,
)
from treeot.graphs import WeightedGraph, _vertex_indices
from treeot.trees import RootedTree

LINE6_XI = np.array([0.05, 0.05, -0.2, -0.1, -0.1, 0.3])


@pytest.fixture
def line6():
    """Unit-weight line on 6 vertices with the worked-example measures."""
    g = ot.build_graph(6, [(i, i + 1, 1.0) for i in range(5)])
    mu = np.full(6, 1 / 6) + LINE6_XI / 2
    nu = np.full(6, 1 / 6) - LINE6_XI / 2
    return g, mu, nu


def line6_edges():
    return [(i, i + 1) for i in range(5)]


def line_graph(n: int) -> ot.WeightedGraph:
    """Unit-weight path 0 - 1 - ... - (n-1)."""
    return ot.build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def dijkstra_all_pairs(g: ot.WeightedGraph) -> np.ndarray:
    """Reference all-pairs distances via one Dijkstra per source."""
    n = g.n
    out = np.full((n, n), np.inf)
    for s in range(n):
        dist = out[s]
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d0, v = heapq.heappop(heap)
            if d0 > dist[v]:
                continue
            for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
                nd = d0 + w
                if nd < dist[nb]:
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, int(nb)))
    return out


def floyd_warshall(g: ot.WeightedGraph) -> np.ndarray:
    """Reference all-pairs distances via Floyd-Warshall, one numpy update of
    the whole matrix per intermediate vertex."""
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edges:
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def brute_force_geodesic_edges(g: ot.WeightedGraph) -> set[tuple[int, int]]:
    """Edges on some shortest path, found by enumerating all simple paths."""
    n = g.n
    best = dijkstra_all_pairs(g)
    used: set[tuple[int, int]] = set()

    def walk(path, length):
        v = path[-1]
        for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
            nb = int(nb)
            if nb in path:
                continue
            walk(path + [nb], length + w)

    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            stack = [([s], 0.0)]
            while stack:
                path, length = stack.pop()
                v = path[-1]
                if v == t:
                    if abs(length - best[s, t]) <= 1e-12:
                        for a, b in zip(path, path[1:]):
                            used.add((min(a, b), max(a, b)))
                    continue
                if length > best[s, t] + 1e-12:
                    continue
                for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
                    nb = int(nb)
                    if nb not in path:
                        stack.append((path + [nb], length + w))
    return used


def brute_force_weak_nondegeneracy(mu, nu, tol=1e-12) -> bool:
    """Direct scan of every proper nonempty subset."""
    xi = np.asarray(mu) - np.asarray(nu)
    n = xi.shape[0]
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            if abs(sum(xi[list(combo)])) <= tol:
                return False
    return True


def random_tree_graph(rng, n, weight_low=0.05, weight_high=1.0) -> ot.WeightedGraph:
    """Random labelled tree as a graph: vertex v attaches to a lower vertex."""
    edges = [
        (int(rng.integers(0, v)), v, float(rng.uniform(weight_low, weight_high)))
        for v in range(1, n)
    ]
    return ot.build_graph(n, edges)


def random_connected_graph(rng, n, extra_edges=3) -> ot.WeightedGraph:
    """Random tree plus a few chords, random weights."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(extra_edges):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((a, b))
    return ot.build_graph(
        n, [(a, b, float(rng.uniform(0.05, 1.0))) for a, b in sorted(edges)]
    )


def random_measure_pair(rng, n, floor=1e-3):
    mu = rng.random(n) + floor
    nu = rng.random(n) + floor
    return mu / mu.sum(), nu / nu.sum()


def degenerate_measures(rng, n):
    """Integer masses (zero-mass vertices included) over one common total,
    with ``mu == nu`` on a random subset of the vertices other than 0 and
    n - 1 (n >= 2): cumulative imbalances of exactly 0 are common."""
    mu = rng.integers(0, 3, n).astype(float)
    nu = rng.integers(0, 3, n).astype(float)
    same = rng.random(n) < 0.4
    same[[0, n - 1]] = False
    nu[same] = mu[same]
    mu[0] += 1.0  # neither measure is all zero
    gap = mu.sum() - nu.sum()
    (nu if gap > 0 else mu)[n - 1] += abs(gap)
    total = mu.sum()
    return mu / total, nu / total


def children_lists(parent) -> list[list[int]]:
    """Per vertex, its children in increasing id order, read off ``parent``."""
    kids: list[list[int]] = [[] for _ in range(len(parent))]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def reference_order_depth(root, parent):
    """``order`` and ``depth`` of a rooted tree in plain loops: each vertex
    climbs its links to the root, counting the edges, and ``order`` sorts the
    vertices by decreasing depth, then increasing id, so leaves come first
    and the root last. ``None`` unless the links root a spanning tree at
    ``root``: the root in range with link -1, every link in -1..n-1 and every
    vertex climbing to the root within n links (none to another root or
    round a cycle)."""
    n = len(parent)
    if not (0 <= root < n and parent[root] == -1 and all(-1 <= p < n for p in parent)):
        return None
    depth = [-1] * n
    depth[root] = 0
    for v in range(n):
        # climb to a vertex of known depth, then count back down
        path, u = [], v
        while depth[u] < 0:
            path.append(u)
            u = parent[u]
            if u < 0 or len(path) > n:
                return None
        for w in reversed(path):
            depth[w] = depth[parent[w]] + 1
    order = sorted(range(n), key=lambda v: (-depth[v], v))
    return np.array(order, dtype=np.int64), np.array(depth, dtype=np.int64)


def reference_child_sums(parent, values):
    """Subtree sums in plain loops, by recursion over child lists made
    explicit: each vertex starts from its own value and adds the finished
    sum of each child, children in increasing id order."""
    kids = children_lists(parent)
    out = [float(x) for x in values]
    stack = [(parent.index(-1), False)]
    while stack:
        v, children_done = stack.pop()
        if children_done:
            for c in kids[v]:
                out[v] += out[c]
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in kids[v])
    return np.array(out)


def reference_csr_verdict(n, indptr, indices, weights):
    """What building a ``WeightedGraph`` on the CSR arrays should raise, by
    plain loops over the arcs, in this order: ``ValueError`` for a graph with
    no vertex or a neighbour out of range; ``NonFiniteWeightError`` for a NaN
    or infinite weight; ``NonPositiveWeightError`` for a weight of zero or
    less; ``ValueError`` for a self-loop, a row not in increasing head order
    (a repeated arc included), or an arc whose reverse is missing or weighs
    otherwise; ``DisconnectedError`` when a walk over the arcs from vertex 0
    misses a vertex; else ``None``."""
    arcs = [(v, int(indices[j]), float(weights[j]))
            for v in range(n) for j in range(indptr[v], indptr[v + 1])]
    if n < 1 or any(not 0 <= b < n for _, b, _ in arcs):
        return ValueError
    if any(not math.isfinite(w) for _, _, w in arcs):
        return NonFiniteWeightError
    if any(w <= 0.0 for _, _, w in arcs):
        return NonPositiveWeightError
    for v in range(n):
        row = [b for a, b, _ in arcs if a == v]
        if v in row or any(x >= y for x, y in zip(row, row[1:])):
            return ValueError
    weight = {(a, b): w for a, b, w in arcs}
    if any(weight.get((b, a)) != w for a, b, w in arcs):
        return ValueError
    reached, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for a, b, _ in arcs:
            if a == v and b not in reached:
                reached.add(b)
                stack.append(b)
    return None if len(reached) == n else DisconnectedError


def reference_reverse_arcs(n, indptr, indices, weights):
    """The check that every arc's reverse is present with the same weight, as
    ``WeightedGraph`` made it before it kept its arc keys: ``arc_index``
    rebuilt the sorted keys ``tail * n + head`` and found every reversed arc
    by ``searchsorted``. Takes a CSR that passes the checks before it (heads
    in range, rows sorted, no arc repeated) and raises what construction
    raises."""
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys, wanted = tails * n + indices, indices * n + tails
    at = np.searchsorted(keys, wanted)
    reverse = np.where(np.append(keys, -1)[at] == wanted, at, -1)
    if (reverse < 0).any() or (weights[reverse] != weights).any():
        raise ValueError("graph CSR: an arc has no reverse arc of the same weight")


def reference_subtree_sums(parent, order, values):
    """Subtree sums by the loop ``subtree_aggregate`` ran before the tree
    passes moved to the kernel backends: along ``order`` (leaves first), each
    vertex adds its running sum into its parent's."""
    out = np.asarray(values, dtype=np.float64).copy()
    for v in order:
        p = parent[v]
        if p >= 0:
            out[p] += out[v]
    return out


def reference_tree_potential(parent, order, wpar, xi_cum):
    """The tree potential by ``tree_potential``'s former loop: root-to-leaves
    along ``order`` reversed, each vertex adds its edge weight, signed by its
    cumulative imbalance (+1 where that is exactly 0, -0.0 included), to its
    parent's value."""
    u = np.zeros(len(parent))
    for v in order[::-1]:
        p = parent[v]
        if p < 0:
            continue
        s = 1.0 if xi_cum[v] >= 0.0 else -1.0
        u[v] = u[p] + wpar[v] * s
    return u


def reference_dual_range(g, t, mu, nu):
    """Per vertex v, the least and the greatest u(v) - u(0) over the dual
    optimal face that the tree's flow fixes: the potentials with
    u(a) - u(b) <= w on every arc, and u(a) - u(b) = w on every tree edge
    whose flow runs a -> b (subtree sum of xi = mu - nu above the documented
    zero, zeta = |sum xi| + 4 n eps sum|xi|, in magnitude; both sums are
    exactly rounded here). The face is a system of difference constraints,
    so both bounds are shortest-path lengths from vertex 0, in the
    constraint graph and in its reverse, by full-round Bellman-Ford in plain
    loops. Returns ``(low, high)`` as lists."""
    n = g.n
    xi = np.asarray(mu, dtype=np.float64) - np.asarray(nu, dtype=np.float64)
    zeta = (abs(math.fsum(xi.tolist()))
            + 4 * n * sys.float_info.epsilon * math.fsum(np.abs(xi).tolist()))
    order, _ = reference_order_depth(t.root, t.parent.tolist())
    xi_cum = reference_subtree_sums(t.parent, order, xi).tolist()
    # the constraint u(a) - u(b) <= c is the edge b -> a of length c
    edges = [e for a, b, w in g.edges for e in ((a, b, w), (b, a, w))]
    for v, (p, w) in enumerate(zip(t.parent.tolist(), t.weight_to_parent.tolist())):
        if p >= 0 and abs(xi_cum[v]) > zeta:
            a, b = (v, p) if xi_cum[v] > 0.0 else (p, v)
            edges.append((a, b, -w))  # u(b) - u(a) <= -w

    def lengths(arcs):
        dist = [math.inf] * n
        dist[0] = 0.0
        for _ in range(n - 1):
            for x, y, c in arcs:
                if dist[x] + c < dist[y]:
                    dist[y] = dist[x] + c
        return dist

    high = lengths(edges)
    low = [-d for d in lengths([(y, x, c) for x, y, c in edges])]
    return low, high


def reference_tree_path(t, x, y):
    """The scalar three-phase walk: deeper end up, the other end up, then both
    ends up until they meet. An independent reference for the library's
    round-by-round walks (``tree_path`` and the ``tree_pairs`` kernel)."""
    up_part, down_part = [], []
    a, b = int(x), int(y)
    while t.depth[a] > t.depth[b]:
        up_part.append((a, int(t.parent[a]), "up"))
        a = int(t.parent[a])
    while t.depth[b] > t.depth[a]:
        down_part.append((int(t.parent[b]), b, "down"))
        b = int(t.parent[b])
    while a != b:
        up_part.append((a, int(t.parent[a]), "up"))
        down_part.append((int(t.parent[b]), b, "down"))
        a = int(t.parent[a])
        b = int(t.parent[b])
    return up_part + down_part[::-1]


def reference_tree_distance(t, x, y):
    """The same walk summing edge weights, both ends' weights as one term."""
    total = 0.0
    a, b = int(x), int(y)
    while t.depth[a] > t.depth[b]:
        total += t.weight_to_parent[a]
        a = int(t.parent[a])
    while t.depth[b] > t.depth[a]:
        total += t.weight_to_parent[b]
        b = int(t.parent[b])
    while a != b:
        total += t.weight_to_parent[a] + t.weight_to_parent[b]
        a = int(t.parent[a])
        b = int(t.parent[b])
    return float(total)


def dfs_tree_distance_matrix(t) -> np.ndarray:
    """Reference tree distances: a depth-first search from every vertex over
    the tree's adjacency, each path summed from its source end."""
    n = t.n
    d = np.zeros((n, n))
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for v in range(n):
        p = t.parent[v]
        if p >= 0:
            w = float(t.weight_to_parent[v])
            adjacency[v].append((int(p), w))
            adjacency[int(p)].append((v, w))
    for s in range(n):
        row = d[s]
        stack = [s]
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        while stack:
            v = stack.pop()
            for nb, w in adjacency[v]:
                if not seen[nb]:
                    seen[nb] = True
                    row[nb] = row[v] + w
                    stack.append(nb)
    return d


def reference_plan_to_flow(plan, t):
    """(up, down) edge flows from one scalar walk per support pair."""
    up = np.zeros(t.n)
    down = np.zeros(t.n)
    for x, y, m in zip(plan.rows, plan.cols, plan.mass):
        if x == y:
            continue
        for a, b, direction in reference_tree_path(t, int(x), int(y)):
            if direction == "up":
                up[a] += m
            else:
                down[b] += m
    return up, down


def reference_cyclically_monotone(plan, g, dist, tol=1e-9):
    """``oracle.check_cyclical_monotonicity`` as it ran before it stopped at
    the first negative cycle: Bellman-Ford from u = 0 on the same difference
    constraints, round after round, for up to n + 1 rounds; the support is
    monotone exactly when a round changes nothing."""
    off = plan.rows != plan.cols
    s = int(np.count_nonzero(off))
    if s == 0:
        return True
    distances = dist[plan.rows, plan.cols] if dist.ndim == 2 else dist
    src = np.concatenate([g.arc_tails(), plan.rows[off]])
    dst = np.concatenate([g.indices, plan.cols[off]])
    weight = np.concatenate([g.weights, tol / s - distances[off]])
    u = np.zeros(g.n)
    for _ in range(g.n + 1):
        relaxed = u.copy()
        np.minimum.at(relaxed, dst, u[src] + weight)
        if np.array_equal(relaxed, u):
            return True
        u = relaxed
    return False


def lockstep_climb(t, x, y):
    """Walk the vertex pairs ``(x[k], y[k])`` to their lowest common
    ancestors in lockstep rounds of numpy calls: each pair still apart moves
    its deeper end to its parent, or both ends at equal depth. Yields each
    round, before its move, as ``(k, a, b, move_a, move_b)``. Test-only copy
    of the climb the library replaced with its tree-pair kernel."""
    k = np.flatnonzero(x != y)
    a, b = x[k], y[k]
    while k.size:
        move_a, move_b = t.depth[a] >= t.depth[b], t.depth[b] >= t.depth[a]
        yield k, a, b, move_a, move_b
        a = np.where(move_a, t.parent[a], a)
        b = np.where(move_b, t.parent[b], b)
        apart = a != b
        k, a, b = k[apart], a[apart], b[apart]


def lockstep_plan_to_flow(plan, t):
    """(up, down) edge flows from the lockstep climb: each edge adds the
    masses of the pairs crossing it in support order."""
    slots, pairs = [], []  # per crossing: edge slot (child end, +n going down), support index
    for k, a, b, move_a, move_b in lockstep_climb(t, plan.rows, plan.cols):
        slots += [a[move_a], b[move_b] + t.n]
        pairs += [k[move_a], k[move_b]]
    sums = np.zeros(2 * t.n)
    if pairs:
        pairs = np.concatenate(pairs)
        in_order = np.argsort(pairs, kind="stable")
        np.add.at(sums, np.concatenate(slots)[in_order], plan.mass[pairs[in_order]])
    return sums[:t.n], sums[t.n:]


def network_simplex_w1(g: ot.WeightedGraph, mu, nu) -> float:
    """Independent W1: networkx network simplex on the graph's own edges.

    Demands are the floats' exact binary values scaled by 2**96 and weights by
    2**64; the float residual of sum(mu) - sum(nu) moves onto the vertex with
    the largest demand.
    """
    import networkx as nx

    demand = [round(Fraction(float(nu[v])) * 2**96) - round(Fraction(float(mu[v])) * 2**96)
              for v in range(g.n)]
    heaviest = max(range(g.n), key=lambda v: abs(demand[v]))
    demand[heaviest] -= sum(demand)
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_node(v, demand=demand[v])
    for a, b, w in g.edges:
        cost = round(Fraction(w) * 2**64)
        net.add_edge(a, b, weight=cost)
        net.add_edge(b, a, weight=cost)
    flow_cost, _ = nx.network_simplex(net)
    return float(Fraction(flow_cost, 2**160))


def successive_shortest_paths(cost, supply, demand):
    """Min-cost flow on a dense bipartite network with all-pairs arcs, from
    sources with ``supply`` to sinks with ``demand`` (both consumed, in
    place); returns ``(flow, alpha, beta)``. An independent reference for the
    network simplex: it augments along shortest paths instead of pivoting on
    trees, and its flow need not be basic.

    Maintains duals (alpha, beta) with cost[i,j] - alpha[i] - beta[j] >= 0 and
    equality on arcs carrying flow; each augmentation follows a reduced-cost
    shortest path and saturates a supply, a demand, or a flow-carrying arc.

    Shortest paths come from label correcting, one round being two numpy
    sweeps: sources to sinks over every arc at its clamped reduced cost, then
    sinks back to sources over the flow-carrying pairs at cost zero. Every arc
    cost is non-negative, so the rounds stop, when no label improves, at exact
    distances; relaxations are strict, so the predecessors form a forest.
    """
    ns, nd = cost.shape
    alpha = np.zeros(ns)
    beta = np.zeros(nd)
    flow = np.zeros((ns, nd))
    eps = 1e-15
    all_sources = np.arange(ns)
    all_sinks = np.arange(nd)
    guard = 50 * (ns + nd) + 200
    for _ in range(guard):
        if supply.sum() <= 1e-12 or demand.sum() <= 1e-12:
            break
        reduced = np.maximum(cost - alpha[:, None] - beta[None, :], 0.0)
        carrying = flow > 0.0
        ls = np.where(supply > eps, 0.0, np.inf)
        lt = np.full(nd, np.inf)
        pred_s = np.full(ns, -1)  # sink whose flow-carrying pair reaches source i
        pred_t = np.full(nd, -1)  # source whose arc reaches sink j
        while True:
            cand = ls[:, None] + reduced
            via = cand.argmin(axis=0)
            reach = cand[via, all_sinks]
            better = reach < lt
            if not better.any():
                break
            lt[better] = reach[better]
            pred_t[better] = via[better]
            back = np.where(carrying, lt[None, :], np.inf)
            via = back.argmin(axis=1)
            reach = back[all_sources, via]
            better = reach < ls
            if not better.any():
                break
            ls[better] = reach[better]
            pred_s[better] = via[better]

        open_lt = np.where(demand > eps, lt, np.inf)
        target = int(open_lt.argmin())
        delta = open_lt[target]
        if not np.isfinite(delta):
            # on the complete network every sink is reachable at finite cost
            raise RuntimeError("no sink with demand is reachable")
        alpha += delta - np.minimum(ls, delta)
        beta -= delta - np.minimum(lt, delta)

        forward = []  # (source, sink) arcs gaining flow, from the target back
        backward = []  # flow-carrying pairs losing flow
        j = target
        while True:
            i = int(pred_t[j])
            forward.append((i, j))
            j = int(pred_s[i])
            if j < 0:
                break
            backward.append((i, j))
        amount = min(supply[i], demand[target], *(flow[p] for p in backward))
        for p in forward:
            flow[p] += amount
        for p in backward:
            flow[p] -= amount
            if flow[p] <= eps:
                flow[p] = 0.0
        supply[i] -= amount
        demand[target] -= amount
        if supply[i] <= eps:
            supply[i] = 0.0
        if demand[target] <= eps:
            demand[target] = 0.0
    else:
        raise RuntimeError("augmenting-path budget exhausted")
    return flow, alpha, beta


def reference_edge_row(row, fields, error):
    """One edge row read by README's rules, one field at a time: the row must
    iterate to ``len(fields)`` values (else ``error``), its ends must each be
    a Python or numpy integer and no bool, and for "uvw" its weight a real
    number that is no bool, read as a float (an integer past float64's range
    as an infinity of its sign)."""
    try:
        values = tuple(row)
    except TypeError:
        values = None
    if values is None or len(values) != len(fields):
        raise error(f"edge {row!r} is not a row ({', '.join(fields)})")
    for end in values[:2]:
        if isinstance(end, bool) or not isinstance(end, (int, np.integer)):
            raise VertexRangeError(f"an end of edge {row!r} must be an integer, not {end!r}")
    ends = [int(end) for end in values[:2]]
    if fields == "uv":
        return tuple(ends)
    w = values[2]
    if isinstance(w, bool) or not isinstance(w, numbers.Real):
        raise NonFiniteWeightError(f"the weight of edge {row!r} must be a real number, not {w!r}")
    try:
        w = float(w)
    except OverflowError:
        w = math.inf if w > 0 else -math.inf
    return (*ends, w)


def reference_build_graph(vertex_count, edge_list):
    """``build_graph`` as one loop over the rows, the way it ran before it
    checked whole columns: the vertex count must be an integer and no bool,
    and each row is read (:func:`reference_edge_row`), range-checked,
    loop-checked, weight-checked and looked up among the rows before it, in
    that order, so the first bad row raises."""
    if isinstance(vertex_count, bool) or not isinstance(vertex_count, (int, np.integer)):
        raise VertexRangeError(f"vertex_count must be an integer, not {vertex_count!r}")
    n = int(vertex_count)
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    weight_map = {}
    for row in (edge_list.tolist() if isinstance(edge_list, np.ndarray) else edge_list):
        u, v, w = reference_edge_row(row, "uvw", GraphError)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge {row!r} out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"edge ({u},{v}) has weight {w}")
        if w <= 0.0:
            raise NonPositiveWeightError(f"edge ({u},{v}) has weight {w}")
        key = (u, v) if u < v else (v, u)
        if key in weight_map:
            raise DuplicateEdgeError(f"duplicate edge {{{u},{v}}}")
        weight_map[key] = w
    adjacency = [[] for _ in range(n)]
    for (u, v), w in weight_map.items():
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    arcs = [arc for nbs in adjacency for arc in sorted(nbs)]
    indptr = np.cumsum([0] + [len(nbs) for nbs in adjacency], dtype=np.int64)
    g = WeightedGraph(n=n, indptr=indptr, indices=np.array([v for v, _ in arcs], dtype=np.int64),
                      weights=np.array([w for _, w in arcs], dtype=np.float64))
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for nb in g.neighbors(v):
            if not seen[nb]:
                seen[nb] = True
                stack.append(int(nb))
    if not seen.all():
        raise DisconnectedError("graph is not connected")
    return g


def reference_edge_rows(path, edges, fields):
    """How a graph file (``fields`` "uvw") or a tree file ("uv") has its
    ``edges``, as ``json.loads`` gives them, read, as one loop over the rows:
    the loader checks that they are a list, and the first row that the rules
    refuse (:func:`reference_edge_row`) raises, the file's path prefixed."""
    if not isinstance(edges, list):
        raise FormatError(f"{path}: 'edges' must be a list, got {edges!r}")
    try:
        for row in edges:
            reference_edge_row(row, fields, GraphError if fields == "uvw" else TreeError)
    except (GraphError, TreeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return edges


def reference_load_plan_triplets(path):
    """``fileio.load_plan_triplets`` as one loop over the rows: the first row
    that is not three fields, does not convert to (int, int, float) or has a
    non-finite mass raises."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "x,y,mass":
        raise FormatError(f"{path}: missing 'x,y,mass' header")
    out = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}: bad row {ln!r}")
        try:
            x, y, m = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if not math.isfinite(m):
            raise NonFiniteMassError(f"{path}: plan entry ({x},{y}) has a NaN or infinite mass")
        out.append((x, y, m))
    return out


def reference_load_potential(path, n):
    """``fileio.load_potential`` as one loop over the rows: the first row that
    is not two fields, does not convert to (int, float), or names a vertex out
    of range or a second time raises; then missing vertices, then non-finite
    values."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "vertex,u":
        raise FormatError(f"{path}: missing 'vertex,u' header")
    values = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for ln in lines[1:]:
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}: bad row {ln!r}")
        try:
            v, value = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if not (0 <= v < n) or seen[v]:
            raise FormatError(f"{path}: bad or repeated vertex {v}")
        values[v] = value
        seen[v] = True
    if not seen.all():
        raise BadDimensionsError(f"{path}: missing vertices")
    if not np.all(np.isfinite(values)):
        raise NonFiniteMassError(f"{path}: potential has a NaN or infinite value")
    anchored = np.flatnonzero(np.abs(values) == 0.0)
    return values, int(anchored[0]) if anchored.size else 0


def reference_root_tree(g, tree_edges, root):
    """``root_tree`` as it ran over numpy arrays: read the pairs, count them,
    look each up in the graph and among the pairs before it, then orient by
    a depth-first walk from ``root`` that raises on the first vertex reached
    twice and on vertices never reached. The root is read by the vertex
    reader, and the rows by :func:`reference_edge_row`, which refuses a row
    that is not a pair and a float or bool end."""
    n = g.n
    root = _vertex_indices(root, n)
    rows = tree_edges.tolist() if isinstance(tree_edges, np.ndarray) else list(tree_edges)
    pairs = [reference_edge_row(row, "uv", TreeError) for row in rows]  # in row order
    if len(pairs) > n - 1:
        raise HasCycleError(f"{len(pairs)} edges on {n} vertices cannot be acyclic")
    if len(pairs) < n - 1:
        raise NotSpanningError(f"{len(pairs)} edges cannot span {n} vertices")
    adjacency = [[] for _ in range(n)]
    seen_pairs = set()
    for row, (u, v) in zip(rows, pairs):
        g.edge_weight(*row)  # names the ends as given
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            raise HasCycleError(f"edge {{{u},{v}}} repeated")
        seen_pairs.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = np.full(n, -1, dtype=np.int64)
    wpar = np.zeros(n, dtype=np.float64)
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    stack = [int(root)]
    reached = 1
    while stack:
        v = stack.pop()
        for nb in adjacency[v]:
            if nb == parent[v]:
                continue
            if visited[nb]:
                raise HasCycleError("tree edges contain a cycle")
            visited[nb] = True
            parent[nb] = v
            wpar[nb] = g.edge_weight(nb, v)
            stack.append(nb)
            reached += 1
    if reached != n:
        raise NotSpanningError("tree edges do not reach every vertex")
    return RootedTree(root, parent, wpar)


def raised(func, *args):
    """``(type, message)`` of the exception ``func(*args)`` raises, or
    ``None`` when it returns."""
    try:
        func(*args)
    except Exception as exc:  # the type itself is what the callers compare
        return type(exc), str(exc)
    return None


def blob_image(p, cx, cy, spread):
    yy, xx = np.mgrid[0:p, 0:p].astype(float)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * spread**2))


def noisy_grid_measures(p, seed, img_mu=None, img_nu=None, sigma=1e-3):
    """The lattice protocol: base images plus uniform noise, then normalize."""
    if img_mu is None:
        img_mu = blob_image(p, 0.2 * p, 0.2 * p, 0.28 * p)
    if img_nu is None:
        img_nu = blob_image(p, 0.58 * p, 0.53 * p, 0.33 * p)
    streams = np.random.SeedSequence(seed).spawn(2)
    mu = img_mu.reshape(-1) + np.random.default_rng(streams[0]).uniform(0, sigma, p * p)
    nu = img_nu.reshape(-1) + np.random.default_rng(streams[1]).uniform(0, sigma, p * p)
    return mu / mu.sum(), nu / nu.sum()


class SwapChain:
    """One annealing chain moved by the kernel's own step functions
    (``exchange_cycle``, ``breakpoint_costs``, ``heat_bath``,
    ``apply_exchange``, ``certify``), with the arc draw, the null proposal,
    the running scale s, the temperature ramp, the count of the proposals that
    changed the tree and the stop test of ``_kernels.anneal_chain`` spelled
    out: a step-by-step reference for the fused kernel. The root never
    moves."""

    def __init__(self, g, tree, mu, nu, config):
        self.g = g
        self.config = config
        self.parent = tree.parent.copy()
        self.wpar = tree.weight_to_parent.copy()
        self.root = tree.root
        self.xi = ot.imbalance(ot.as_measure(mu, tree.n), ot.as_measure(nu, tree.n))
        # the kernel's summation orders, so costs agree bit for bit
        self.xi_cum = _kernels.recompute_cumulative(self.parent, self.xi)
        self.cost = _kernels.tree_cost(self.parent, self.wpar, self.xi_cum)
        self.best_cost = self.cost
        self.best_parent = self.parent.copy()
        self.best_wpar = self.wpar.copy()
        self.on_best = True  # no exchange since the last copy into best_parent
        self.checked = None  # best cost at the last certify call
        self.beta = config.beta0
        self.moved = 0  # proposals that changed the tree, since ``take_rate``
        self.proposed = 0
        self.tails = g.arc_tails()
        self.mark = [0] * tree.n
        self.stamp = 0
        self.gap_sum = 0.0
        self.gaps = 0

    def propose(self, rng):
        """``(a, b, w)``: the kernel's draw of a CSR arc."""
        j = rng.integers(0, self.g.indptr[-1])
        return self.tails[j], self.g.indices[j], self.g.weights[j]

    def is_tree_edge(self, a, b):
        return self.parent[a] == b or self.parent[b] == a

    def cycle(self, a, b, w):
        """``(pa, pb, t, wt)`` of ``exchange_cycle`` for the non-tree arc."""
        self.stamp += 1
        return _kernels.exchange_cycle(self.parent, self.wpar, self.xi_cum, a, b, w, self.mark,
                                       self.stamp)

    def step(self, a, b, w, rng):
        """One kernel iteration on the drawn arc, less ``adapt``: nothing on a
        tree edge; otherwise score the cycle, fold f(0) - min f into s, draw
        the leaving edge by heat bath with ``rng.random()`` and make the
        exchange unless the entering arc itself is drawn, which counts as
        moved. Returns the breakpoint drawn (None on a tree edge)."""
        k = None
        if not self.is_tree_edge(a, b):
            pa, pb, t, wt = self.cycle(a, b, w)
            f = _kernels.breakpoint_costs(t, wt)
            fmin = min(f)
            self.gap_sum += f[0] - fmin
            self.gaps += 1
            k = _kernels.heat_bath(f, fmin, self.beta, self.gap_sum / self.gaps, rng.random())
            if k > 0:
                _kernels.apply_exchange(self.parent, self.wpar, self.xi_cum, pa, pb, a, b, w, k)
                self.cost += f[k] - f[0]
                self.on_best = self.cost < self.best_cost
                if self.on_best:
                    self.best_cost = self.cost
                    self.best_parent = self.parent.copy()
                    self.best_wpar = self.wpar.copy()
        self.moved += 1 if k else 0
        self.proposed += 1
        return k

    def adapt(self):
        """The ramp: ``beta`` grows by ``1 + eta`` after each proposal."""
        self.beta = self.beta * (1.0 + self.config.eta)

    def take_rate(self):
        """A trace row's ``accept_rate``: the share of the proposals since
        the previous call that changed the tree; the counts restart."""
        rate = self.moved / self.proposed
        self.moved = self.proposed = 0
        return rate

    def certify(self):
        """The kernel's stop test at a trace row: ``certify`` on the best
        tree on the first call, and afterwards only where the best cost has
        dropped since the last call (``False`` otherwise)."""
        if self.checked is not None and not self.best_cost < self.checked:
            return False
        self.checked = self.best_cost
        return _kernels.certify(self.g.n, self.best_parent, self.best_wpar, self.g.indptr,
                                self.g.indices, self.g.weights, self.xi, _kernels.CERT_RTOL)

    def tree(self):
        return RootedTree(self.root, self.parent, self.wpar)


def exchanged_tree(g, t, a, b, leaving):
    """The tree ``t`` with the edge (a, b) added and the edge from
    ``leaving`` to its parent removed (none when ``leaving`` is None),
    rebuilt from scratch on ``t``'s root."""
    edges = {frozenset((v, int(p))) for v, p in enumerate(t.parent.tolist()) if p >= 0}
    if leaving is not None:
        edges.remove(frozenset((int(leaving), int(t.parent[leaving]))))
        edges.add(frozenset((int(a), int(b))))
    return ot.root_tree(g, sorted(tuple(sorted(e)) for e in edges), t.root)


def c_compiler_found() -> bool:
    """Whether ``$CC``, or else cc, gcc or clang, is on PATH."""
    cc = os.environ.get("CC")
    names = [shlex.split(cc)[0]] if cc else ["cc", "gcc", "clang"]
    return any(shutil.which(name) for name in names)


def compiled_backends() -> list[str]:
    """The compiled kernel backends this machine can run."""
    return ["c"] if c_compiler_found() else []


@pytest.fixture(params=["python", *compiled_backends()])
def backend(request, monkeypatch):
    """Run the test on each backend's kernels."""
    kernels = _kernels._LOADERS[request.param]()
    monkeypatch.setattr(_kernels, "kernels", lambda: kernels)
    return request.param


def run_python(code: str, backend: str | None = None, argv=(), timeout=None, **env_overrides):
    """Run ``code`` in a fresh interpreter on ``backend`` (default: unset),
    with ``argv`` as its arguments, killing it after ``timeout`` seconds
    (``subprocess.TimeoutExpired``); ``TESTS_DIR`` in the code names this
    directory. The child imports the same treeot as this process, also when
    only pytest's ``pythonpath`` put it on ``sys.path``."""
    env = dict(os.environ, **env_overrides)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ot.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("TREEOT_BACKEND", None)
    if backend is not None:
        env["TREEOT_BACKEND"] = backend
    code = code.replace("TESTS_DIR", repr(os.path.dirname(os.path.abspath(__file__))))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_dir(tmp_path_factory):
    """Build the C annealing kernel under the session's temporary directory
    rather than in the user's cache; subprocesses inherit the setting."""
    patch = pytest.MonkeyPatch()
    patch.setenv("TREEOT_CACHE_DIR", str(tmp_path_factory.mktemp("kernel-cache")))
    yield
    patch.undo()
