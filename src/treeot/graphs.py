"""Weighted-graph primitives: validation, shortest paths, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
    VertexRangeError,
)


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

    def arc_tails(self) -> np.ndarray:
        """Tail of every CSR arc, aligned with ``indices`` (the heads) and
        ``weights``: each vertex repeated once per neighbour."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

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

    ``edge_list`` holds rows (u, v, w), read as ``int(u), int(v), float(w)``,
    or is an (E, 3) array of them. Raises on self-loops, non-finite or
    non-positive weights, duplicate undirected edges, out-of-range endpoints
    and disconnected inputs; of several bad rows, the first names the error.
    """
    n = int(vertex_count)
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    rows = edge_list.tolist() if isinstance(edge_list, np.ndarray) else list(edge_list)
    u, v, w = _edge_columns(n, rows)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = np.ones(len(rows), dtype=bool)  # rows repeating an earlier key stay marked
    bad[np.unique(lo * n + hi, return_index=True)[1]] = False
    bad |= ~((lo >= 0) & (hi < n) & (lo != hi) & np.isfinite(w) & (w > 0.0))
    if bad.any():
        _raise_for_edge(n, rows[int(np.argmax(bad))])

    # both directions of every edge, sorted by tail, then head
    tail = np.concatenate([lo, hi])
    head = np.concatenate([hi, lo])
    arcs = np.lexsort((head, tail))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    ends, w_list = (lo.tolist(), hi.tolist()), w.tolist()
    g = WeightedGraph(
        n=n,
        edges=tuple(zip(*ends, w_list)),
        indptr=indptr,
        indices=head[arcs],
        weights=np.concatenate([w, w])[arcs],
        weight_map=dict(zip(zip(*ends), w_list)),
    )
    if not _is_connected(g):
        raise DisconnectedError("graph is not connected")
    for arr in (g.indptr, g.indices, g.weights):
        arr.setflags(write=False)
    return g


def _read_edge(row) -> tuple[int, int, float]:
    u, v, w = row
    return int(u), int(v), float(w)


def _edge_columns(n: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows read by :func:`_read_edge`, as int64, int64 and float64
    columns. Where some row does not fit them, each row that cannot be read
    or has an endpoint out of range reads as (-1, -1, w), which the checks
    reject."""
    try:
        u, v, w = zip(*rows, strict=True) if rows else ((), (), ())
        return (np.array(list(map(int, u)), dtype=np.int64),
                np.array(list(map(int, v)), dtype=np.int64),
                np.array(list(map(float, w)), dtype=np.float64))
    except (TypeError, ValueError, OverflowError):  # also an endpoint beyond int64
        pass
    read = []
    for row in rows:
        try:
            u, v, w = _read_edge(row)
        except (TypeError, ValueError, OverflowError):
            u, v, w = -1, -1, math.nan
        read.append((u, v, w) if 0 <= u < n and 0 <= v < n else (-1, -1, w))
    u, v, w = zip(*read)
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(w, dtype=np.float64)


def _raise_for_edge(n: int, row) -> None:
    """Raise the error of the first check that ``row`` fails as an edge on
    ``n`` vertices; a row that passes them all repeats an earlier edge."""
    u, v, w = _read_edge(row)
    if not (0 <= u < n and 0 <= v < n):
        raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    if not math.isfinite(w):
        raise NonFiniteWeightError(f"edge ({u},{v}) has weight {w}")
    if w <= 0.0:
        raise NonPositiveWeightError(f"edge ({u},{v}) has weight {w}")
    raise DuplicateEdgeError(f"duplicate edge {{{u},{v}}}")


def _is_connected(g: WeightedGraph) -> bool:
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for nb in indices[indptr[v]:indptr[v + 1]]:
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
                reached += 1
    return reached == g.n


def grid_graph(p: int, weight: float | None = None) -> WeightedGraph:
    """Four-neighbour lattice on ``p*p`` vertices, id ``i*p + j`` for row i, col j.

    Every edge carries the same weight, ``1/p**2`` unless overridden. Edges
    are listed by vertex id, each vertex's right edge before its lower one.
    """
    if p < 2:
        raise VertexRangeError("grid side must be at least 2")
    w = 1.0 / (p * p) if weight is None else float(weight)
    # per vertex v: rows (v, v + 1, w) and (v, v + p, w), less those leaving the grid
    ids = np.arange(p * p, dtype=np.float64).reshape(p, p, 1)
    edges = np.full((p, p, 2, 3), w)
    edges[..., 0] = ids
    edges[..., 1] = ids + (1, p)
    kept = np.ones((p, p, 2), dtype=bool)
    kept[:, -1, 0] = kept[-1, :, 1] = False
    return build_graph(p * p, edges[kept])


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


def pair_distances(g: WeightedGraph, xs, ys) -> np.ndarray:
    """Shortest-path distances of the vertex pairs ``(xs[k], ys[k])``.

    One Dijkstra run per distinct source, which stops once that source's
    targets are settled (:func:`treeot._kernels.pair_distances`, on the
    kernel backend); nothing of size n x n is built. Raises
    ``VertexRangeError`` for a vertex out of range.
    """
    xs = np.ascontiguousarray(xs, dtype=np.int64)
    ys = np.ascontiguousarray(ys, dtype=np.int64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise VertexRangeError(f"pair ends of shapes {xs.shape} and {ys.shape}")
    return _kernels.kernels().pair_distances(g.indptr, g.indices, g.weights, xs, ys)
