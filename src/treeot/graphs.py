"""Weighted-graph primitives: validation, shortest paths, geodesic edges, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
    VertexRangeError,
)

#: Absolute tolerance for metric identities (symmetry, triangle inequality, ...).
METRIC_TOL = 1e-12


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected connected graph on dense vertex ids ``0..n-1`` with positive weights.

    Immutable after construction. Adjacency is kept in CSR form
    (``indptr``/``indices``/``weights``) so that hot loops can index it directly.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    weight_map: dict = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        return key in self.weight_map

    def edge_weight(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self.weight_map[key]
        except KeyError:
            raise EdgeNotInGraphError(f"{{{u},{v}}} is not an edge of the graph") from None


def build_graph(vertex_count: int, edge_list) -> WeightedGraph:
    """Validate an edge list and build a :class:`WeightedGraph`.

    Raises on self-loops, non-finite or non-positive weights, duplicate
    undirected edges, out-of-range endpoints and disconnected inputs.
    """
    n = int(vertex_count)
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    weight_map: dict[tuple[int, int], float] = {}
    canonical: list[tuple[int, int, float]] = []
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

    # both directions of every edge, sorted by tail, then head
    ends = np.array([(u, v) for u, v, _ in canonical], dtype=np.int64).reshape(-1, 2)
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    arcs = np.lexsort((head, tail))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    indices = head[arcs]
    weights = np.tile(np.array([w for _, _, w in canonical], dtype=np.float64), 2)[arcs]

    g = WeightedGraph(
        n=n,
        edges=tuple(canonical),
        indptr=indptr,
        indices=indices,
        weights=weights,
        weight_map=weight_map,
    )
    if not _is_connected(g):
        raise DisconnectedError("graph is not connected")
    for arr in (g.indptr, g.indices, g.weights):
        arr.setflags(write=False)
    return g


def _is_connected(g: WeightedGraph) -> bool:
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for nb in g.neighbors(v):
            if not seen[nb]:
                seen[nb] = True
                stack.append(int(nb))
    return bool(seen.all())


def grid_graph(p: int, weight: float | None = None) -> WeightedGraph:
    """Four-neighbour lattice on ``p*p`` vertices, id ``i*p + j`` for row i, col j.

    Every edge carries the same weight, ``1/p**2`` unless overridden.
    """
    if p < 2:
        raise VertexRangeError("grid side must be at least 2")
    w = 1.0 / (p * p) if weight is None else float(weight)
    edges = []
    for i in range(p):
        for j in range(p):
            v = i * p + j
            if j + 1 < p:
                edges.append((v, v + 1, w))
            if i + 1 < p:
                edges.append((v, v + p, w))
    return build_graph(p * p, edges)


def all_pairs_shortest_paths(g: WeightedGraph) -> np.ndarray:
    """Floyd-Warshall distance matrix of shape ``(n, n)``."""
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edges:
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    d.setflags(write=False)
    return d


def geodesic_edges(g: WeightedGraph, dist: np.ndarray, tol: float = METRIC_TOL) -> set[tuple[int, int]]:
    """Edges lying on at least one shortest path between some vertex pair.

    Edge {x,y} qualifies iff d(s,x) + w(x,y) + d(y,t) == d(s,t) for some
    (s,t). By the triangle inequality that slack is at least w(x,y) - d(x,y),
    and s = x, t = y attain it, so the test is w(x,y) <= d(x,y) + tol, O(E).
    """
    return {(u, v) for u, v, w in g.edges if w - dist[u, v] <= tol}
