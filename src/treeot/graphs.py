"""Weighted graphs, each one proven CSR: edge lookups, shortest paths, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    The graph is its adjacency in CSR form (``indptr``/``indices``/``weights``),
    which hot loops index directly; ``edges`` and the edge lookups read it.
    Construction proves the CSR once for every kernel and cost that reads it,
    then makes the arrays read-only: n >= 1, int64 ``indptr`` rising from 0 to
    the arc count, int64 ``indices`` in range, float64 ``weights`` (else
    ``ValueError``); every weight finite (else ``NonFiniteWeightError``) and
    positive (else ``NonPositiveWeightError``); no self-loop, arc keys
    ``tail * n + head`` strictly increasing (rows sorted, no arc repeated) and
    every arc's reverse present with the same weight (else ``ValueError``);
    the graph connected (else ``DisconnectedError``). It keeps the sorted arc
    keys, which ``arc_index`` and so the edge lookups search.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n, indptr, indices, weights = self.n, self.indptr, self.indices, self.weights
        m = indices.shape[0]
        _kernels._check_arrays("graph CSR", ((indptr, n + 1), (indices, m)), ((weights, m),))
        if (n < 1 or indptr.shape[0] != n + 1 or weights.shape[0] != m or indptr[0] != 0
                or indptr[n] != m or (indptr[1:] < indptr[:-1]).any()):
            raise ValueError("graph CSR: no vertex, or indptr or weights out of range")
        if m and not (0 <= indices.min() and indices.max() < n):
            raise ValueError("graph CSR: neighbour index out of range")
        if not np.isfinite(weights).all():
            raise NonFiniteWeightError("graph CSR: an arc weight is not finite")
        if not (weights > 0.0).all():
            raise NonPositiveWeightError("graph CSR: an arc weight is zero or negative")
        tails = self.arc_tails()
        keys = tails * n + indices
        if (tails == indices).any() or (np.diff(keys) <= 0).any():
            raise ValueError("graph CSR: a self-loop, or a row unsorted or repeating an arc")
        # the keys are distinct, so the reversed keys sort onto them exactly
        # when every arc's reverse is present, and perm pairs each arc with it
        rkeys = indices * n + tails
        perm = np.argsort(rkeys, kind="stable")
        if not (np.array_equal(rkeys[perm], keys) and np.array_equal(weights[perm], weights)):
            raise ValueError("graph CSR: an arc has no reverse arc of the same weight")
        ptr, heads = indptr.tolist(), indices.tolist()
        seen = [True] + [False] * (n - 1)
        stack = [0]
        while stack:
            v = stack.pop()
            for nb in heads[ptr[v]:ptr[v + 1]]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        if not all(seen):
            raise DisconnectedError("graph is not connected")
        # the sorted keys, and past them n * n, above every key, for arc_index
        object.__setattr__(self, "_keys", np.append(keys, n * n))
        for a in (indptr, indices, weights, self._keys):
            a.setflags(write=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge once, as ``(u, v, w)`` with u < v, in increasing ``(u, v)`` order."""
        tails = self.arc_tails()
        upper = tails < self.indices
        return tuple(zip(*(a[upper].tolist() for a in (tails, self.indices, self.weights))))

    @property
    def edge_count(self) -> int:
        return self.indices.shape[0] // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def arc_tails(self) -> np.ndarray:
        """Tail of every CSR arc, aligned with ``indices`` (the heads) and
        ``weights``: each vertex repeated once per neighbour."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def arc_index(self, tails, heads) -> np.ndarray:
        """CSR position of every arc ``tails[k] -> heads[k]`` (0-d for one), or -1
        where there is none: a ``searchsorted`` of the arc keys ``tail * n + head``,
        which construction proved sorted and kept."""
        tails, heads, n = np.asarray(tails), np.asarray(heads), self.n
        inside = (0 <= tails) & (tails < n) & (0 <= heads) & (heads < n)
        # a pair out of range looks up the self-loop 0 -> 0, which no graph holds
        tails, heads = (np.where(inside, ends, 0).astype(np.int64) for ends in (tails, heads))
        wanted = tails * n + heads
        at = np.searchsorted(self._keys, wanted)
        return np.where(self._keys[at] == wanted, at, -1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.arc_index(u, v) >= 0)

    def edge_weight(self, u: int, v: int) -> float:
        arc = int(self.arc_index(u, v))
        if arc < 0:
            raise EdgeNotInGraphError(f"{{{u},{v}}} is not an edge of the graph")
        return float(self.weights[arc])


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
    ok = (lo >= 0) & (hi < n) & (lo != hi) & np.isfinite(w) & (w > 0.0)
    # good rows keyed below span², from their own endpoints, not n; bad rows all key 0
    span = int(hi[ok].max(initial=0)) + 1
    bad = np.ones(len(rows), dtype=bool)  # rows repeating an earlier key stay marked
    bad[np.unique(np.where(ok, lo * span + hi, 0), return_index=True)[1]] = False
    bad |= ~ok
    if bad.any():
        _raise_for_edge(n, rows[int(np.argmax(bad))])
    if len(rows) < n - 1:  # fewer edges than a spanning tree: refused before any n-sized array
        raise DisconnectedError("graph is not connected")

    # both directions of every edge, sorted by tail, then head
    tail = np.concatenate([lo, hi])
    head = np.concatenate([hi, lo])
    arcs = np.lexsort((head, tail))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return WeightedGraph(n, indptr, head[arcs], np.concatenate([w, w])[arcs])


def _read_edge(row) -> tuple[int, int, float]:
    u, v, w = row
    try:
        return int(u), int(v), float(w)
    except OverflowError:  # an integer weight past float64's range is infinite
        return int(u), int(v), math.inf if w > 0 else -math.inf


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


def grid_graph(p: int, weight: float | None = None) -> WeightedGraph:
    """Four-neighbour lattice on ``p*p`` vertices, id ``i*p + j`` for row i, col j.

    Every edge carries the same weight, ``1/p**2`` unless overridden.
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
    """Read-only ``(n, n)`` matrix of shortest-path distances: one
    :func:`pair_distances` call over every ordered vertex pair."""
    d = pair_distances(g, *(ends.ravel() for ends in np.indices((g.n, g.n)))).reshape(g.n, g.n)
    d.setflags(write=False)
    return d


def pair_distances(g: WeightedGraph, xs, ys) -> np.ndarray:
    """Shortest-path distances of the vertex pairs ``(xs[k], ys[k])``.

    One Dijkstra run per distinct source, which stops once that source's
    targets are settled (:func:`treeot._kernels.pair_distances`, on the
    kernel backend); nothing of size n x n is built. Raises
    ``VertexRangeError`` for a vertex out of range or a float or bool index.
    """
    xs, ys = (np.ascontiguousarray(_vertex_indices(ends)) for ends in (xs, ys))
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise VertexRangeError(f"pair ends of shapes {xs.shape} and {ys.shape}")
    return _kernels.kernels().pair_distances(g, xs, ys)


def _vertex_indices(values) -> np.ndarray:
    """``values`` as an int64 array (0-d for one index); raises
    ``VertexRangeError`` unless they are integers, where a float or bool index
    would otherwise be cast silently. An empty input passes whatever its
    dtype."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise VertexRangeError(f"vertex indices must be integers, not {values.dtype}")
    return values.astype(np.int64, copy=False)
