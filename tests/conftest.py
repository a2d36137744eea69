"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's code paths: plain
Dijkstra, exhaustive path enumeration and direct subset scans serve as oracles
for the optimized implementations.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
    HasCycleError,
    NonFiniteMassError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    NotSpanningError,
    SelfLoopError,
    VertexRangeError,
)
from treeot.graphs import WeightedGraph
from treeot.trees import _from_parent_array

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
    """``order`` and ``depth`` of a rooted tree by a depth-first walk over
    per-vertex child lists: children are pushed in increasing id order, and
    each popped vertex takes the last free slot of ``order``, so leaves come
    first and the root last."""
    n = len(parent)
    kids = children_lists(parent)
    depth = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    stack = [root]
    pos = n
    while stack:
        v = stack.pop()
        pos -= 1
        order[pos] = v
        for c in kids[v]:
            depth[c] = depth[v] + 1
            stack.append(c)
    assert pos == 0
    return order, depth


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


def reference_tree_potential(parent, order, wpar, xi_cum, sign_at_zero):
    """The tree potential by ``tree_potential``'s former loop: root-to-leaves
    along ``order`` reversed, each vertex adds its edge weight, signed by its
    cumulative imbalance (``sign_at_zero`` where that is exactly 0), to its
    parent's value."""
    u = np.zeros(len(parent))
    for v in order[::-1]:
        p = parent[v]
        if p < 0:
            continue
        s = sign_at_zero if xi_cum[v] == 0.0 else (1.0 if xi_cum[v] > 0.0 else -1.0)
        u[v] = u[p] + wpar[v] * s
    return u


def reference_balanced_subtree(g, xi, rng, samples=32, tol=1e-12):
    """The sampled weak non-degeneracy loop as it ran before it became one
    kernel call: draw ``samples`` Wilson trees from ``rng`` one after the
    other, orient each, sum ``xi`` over its subtrees and stop at the first
    tree with a non-root subtree sum of magnitude at most ``tol``. Returns
    whether such a tree was found."""
    parent = np.empty(g.n, dtype=np.int64)
    wpar = np.empty(g.n)
    for _ in range(samples):
        root = _kernels.wilson_tree(g.indptr, g.indices, g.weights, rng, parent, wpar)
        order, _ = reference_order_depth(root, parent.tolist())
        xi_cum = reference_subtree_sums(parent, order, xi)
        mask = np.arange(g.n) != root
        if np.any(np.abs(xi_cum[mask]) <= tol):
            return True
    return False


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


def reference_build_graph(vertex_count, edge_list):
    """``build_graph`` as one loop over the rows, the way it ran before it
    checked whole columns: each row is read, range-checked, loop-checked,
    weight-checked and looked up among the rows before it, in that order, so
    the first bad row raises."""
    n = int(vertex_count)
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    weight_map = {}
    canonical = []
    for u, v, w in edge_list:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
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
        canonical.append((key[0], key[1], w))
    ends = np.array([(u, v) for u, v, _ in canonical], dtype=np.int64).reshape(-1, 2)
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    arcs = np.lexsort((head, tail))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    weights = np.tile(np.array([w for _, _, w in canonical], dtype=np.float64), 2)[arcs]
    g = WeightedGraph(n=n, edges=tuple(canonical), indptr=indptr, indices=head[arcs],
                      weights=weights, weight_map=weight_map)
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
    """``fileio._edge_rows`` as one loop over the rows: the first row that is
    not a list of ``len(fields)`` entries, or whose endpoint is not an int or
    whose weight is not a number (bools excluded), raises."""
    if not isinstance(edges, list):
        raise FormatError(f"{path}: 'edges' must be a list, got {edges!r}")
    for row in edges:
        if not isinstance(row, list) or len(row) != len(fields):
            raise FormatError(f"{path}: edge {row!r} is not a list [{', '.join(fields)}]")
        for x in row[:2]:
            if isinstance(x, bool) or not isinstance(x, int):
                raise FormatError(f"{path}: an edge endpoint must be an integer, got {x!r}")
        if fields == "uvw" and (isinstance(row[2], bool) or not isinstance(row[2], (int, float))):
            raise FormatError(f"{path}: edge weight must be a number, got {row[2]!r}")
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
    twice and on vertices never reached."""
    n = g.n
    if not (0 <= root < n):
        raise VertexRangeError(f"root {root} out of range")
    pairs = [(int(u), int(v)) for u, v in tree_edges]
    if len(pairs) > n - 1:
        raise HasCycleError(f"{len(pairs)} edges on {n} vertices cannot be acyclic")
    if len(pairs) < n - 1:
        raise NotSpanningError(f"{len(pairs)} edges cannot span {n} vertices")
    adjacency = [[] for _ in range(n)]
    seen_pairs = set()
    for u, v in pairs:
        g.edge_weight(u, v)
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
    return _from_parent_array(root, parent, wpar)


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
    (``propose_root``, ``swap_delta``, ``apply_swap``, ``update_beta``,
    ``certify``), with the Metropolis rule, acceptance window and stop test
    of ``_kernels.anneal_chain`` spelled out: a step-by-step reference for
    the fused kernel."""

    def __init__(self, g, tree, mu, nu, config):
        self.g = g
        self.config = config
        self.parent = tree.parent.copy()
        self.wpar = tree.weight_to_parent.copy()
        self.root = tree.root
        self.xi = ot.imbalance(ot.as_measure(mu, tree.n), ot.as_measure(nu, tree.n))
        self.xi_cum = ot.subtree_aggregate(tree, self.xi)
        # the kernel's summation order, so costs agree bit for bit
        self.cost = _kernels.tree_cost(self.parent, self.wpar, self.xi_cum)
        self.best_cost = self.cost
        self.best_parent = self.parent.copy()
        self.best_wpar = self.wpar.copy()
        self.checked = None  # best cost at the last certify call
        self.beta = config.beta0
        self.bits = np.zeros(config.window, dtype=np.int64)
        self.bits_sum = 0
        self.bits_seen = 0

    def propose(self, rng):
        """``(new_root, w_added)``: the kernel's draw of a candidate root."""
        return _kernels.propose_root(self.g.indptr, self.g.indices, self.g.weights, self.root, rng)

    def delta(self, new_root, w_added):
        return _kernels.swap_delta(self.parent, self.wpar, self.xi_cum, self.root, new_root, w_added)

    def removed_edge(self, new_root):
        return (int(new_root), int(self.parent[new_root]))

    def step(self, new_root, w_added, u):
        """Accept iff u <= min(1, exp(beta * H)), apply in place and record
        the decision in the window; ``adapt`` then completes the kernel's
        iteration."""
        h = self.delta(new_root, w_added)
        accept = h >= 0.0 or u <= math.exp(self.beta * h)
        if accept:
            _kernels.apply_swap(self.parent, self.wpar, self.xi_cum, self.root, new_root, w_added)
            self.root = int(new_root)
            self.cost -= h
            if self.cost < self.best_cost:
                self.best_cost = self.cost
                self.best_parent = self.parent.copy()
                self.best_wpar = self.wpar.copy()
        window = self.config.window
        slot = self.bits_seen % window
        if self.bits_seen >= window:
            self.bits_sum -= int(self.bits[slot])
        self.bits[slot] = 1 if accept else 0
        self.bits_sum += int(self.bits[slot])
        self.bits_seen += 1

    def adapt(self):
        self.beta = _kernels.update_beta(self.beta, self.bits_sum, self.bits_seen,
                                         self.config.window, self.config.eta,
                                         self.config.target_accept)

    def certify(self):
        """The kernel's stop test at a trace row: ``certify`` on the best
        tree on the first call, and afterwards only where the best cost has
        dropped since the last call (``False`` otherwise)."""
        if self.checked is not None and not self.best_cost < self.checked:
            return False
        self.checked = self.best_cost
        return _kernels.certify(self.best_parent, self.best_wpar, self.g.indptr, self.g.indices,
                                self.g.weights, self.xi)

    def tree(self):
        return _from_parent_array(self.root, self.parent, self.wpar)


def c_compiler_found() -> bool:
    """Whether ``$CC``, or else cc, gcc or clang, is on PATH."""
    cc = os.environ.get("CC")
    names = [shlex.split(cc)[0]] if cc else ["cc", "gcc", "clang"]
    return any(shutil.which(name) for name in names)


def compiled_backends() -> list[str]:
    """The compiled kernel backends this machine can run."""
    return ["c"] if c_compiler_found() else []


def run_python(code: str, backend: str | None = None, argv=(), **env_overrides):
    """Run ``code`` in a fresh interpreter on ``backend`` (default: unset),
    with ``argv`` as its arguments; ``TESTS_DIR`` in the code names this
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
                          env=env)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_dir(tmp_path_factory):
    """Build the C annealing kernel under the session's temporary directory
    rather than in the user's cache; subprocesses inherit the setting."""
    patch = pytest.MonkeyPatch()
    patch.setenv("TREEOT_CACHE_DIR", str(tmp_path_factory.mktemp("kernel-cache")))
    yield
    patch.undo()
