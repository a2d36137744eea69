"""Weighted graphs, each one proven CSR: edge lookups, shortest paths, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

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
    keys, which ``arc_index`` and so the edge lookups search. The lookups read
    their vertices as README's "Vertices" says: an end out of range has no arc.
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
        v = _vertex_indices(v, self.n)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        v = _vertex_indices(v, self.n)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def arc_tails(self) -> np.ndarray:
        """Tail of every CSR arc, aligned with ``indices`` (the heads) and
        ``weights``: each vertex repeated once per neighbour."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def arc_index(self, tails, heads) -> np.ndarray:
        """CSR position of every arc ``tails[k] -> heads[k]`` (0-d for one), or -1
        where there is none: a ``searchsorted`` of the arc keys ``tail * n + head``,
        which construction proved sorted and kept."""
        tails, heads, n = _vertex_indices(tails), _vertex_indices(heads), self.n
        inside = (0 <= tails) & (tails < n) & (0 <= heads) & (heads < n)
        # a pair out of range looks up the self-loop 0 -> 0, which no graph holds
        tails, heads = (np.where(inside, ends, 0) for ends in (tails, heads))
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
    or is an (E, 3) array of them. The rows are read into columns and built
    into a CSR, which the :class:`WeightedGraph` proof validates. Only when a
    step fails are the rows walked, so that the first bad row names the error:
    an endpoint out of range, a self-loop, a non-finite or non-positive weight,
    or a repeat of an earlier edge; with no bad row, the graph is disconnected.
    """
    n = int(vertex_count)
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    rows = edge_list.tolist() if isinstance(edge_list, np.ndarray) else list(edge_list)
    # fewer edges than a spanning tree go to the row loop before any n-sized array
    columns = _edge_columns(rows) if len(rows) >= n - 1 else None
    if columns is not None:
        u, v, w = columns
        # both directions of every edge, sorted by tail, then head
        tail, head = np.concatenate([u, v]), np.concatenate([v, u])
        if ((0 <= tail) & (tail < n)).all():
            arcs = np.lexsort((head, tail))
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
            try:
                return WeightedGraph(n, indptr, head[arcs], np.concatenate([w, w])[arcs])
            except (ValueError, NonFiniteWeightError, NonPositiveWeightError):
                pass
    _raise_for_rows(n, rows)


def _edge_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rows read as ``int(u), int(v), float(w)`` into int64, int64 and
    float64 columns, or None when some row does not read so."""
    try:
        u, v, w = zip(*rows, strict=True) if rows else ((), (), ())
        return (np.array(list(map(int, u)), dtype=np.int64),
                np.array(list(map(int, v)), dtype=np.int64),
                np.array(list(map(float, w)), dtype=np.float64))
    except (TypeError, ValueError, OverflowError):  # also an endpoint beyond int64
        return None


def _raise_for_rows(n: int, rows) -> NoReturn:
    """Raise for the first row that fails, in this order, to read as an edge
    (an integer weight past float64's range reads as an infinity of its
    sign), to have both endpoints in range, to join two vertices, to weigh a
    finite positive amount, or to differ from every earlier edge; with no
    such row, raise ``DisconnectedError``."""
    seen = set()
    for u, v, w in rows:
        u, v = int(u), int(v)
        try:
            w = float(w)
        except OverflowError:
            w = math.inf if w > 0 else -math.inf
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"edge ({u},{v}) has weight {w}")
        if w <= 0.0:
            raise NonPositiveWeightError(f"edge ({u},{v}) has weight {w}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
    raise DisconnectedError("graph is not connected")


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
    kernel backend); nothing of size n x n is built."""
    xs, ys = (np.ascontiguousarray(_vertex_indices(ends, g.n)) for ends in (xs, ys))
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise VertexRangeError(f"pair ends of shapes {xs.shape} and {ys.shape}")
    return _kernels.kernels().pair_distances(g, xs, ys)


def _vertex_indices(values, n: int | None = None):
    """The one reader of vertex arguments (README, "Vertices"): one index as a Python int,
    else int64 of its shape; a value past int64 saturates at its bounds unless ``n`` is given."""
    if (type(values) is int or isinstance(values, np.integer)) and (n is None or 0 <= values < n):
        return min(max(int(values), -2**63), 2**63 - 1)  # one index, as every root: no array
    # all but arrays read one object each: numpy would read [1, True] as [1, 1]
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if a.dtype.kind not in "iu" and not all(map(_is_vertex_type, set(map(type, a.flat)))):
        bad = next(v for v in a.flat if not _is_vertex_type(type(v)))
        raise VertexRangeError(f"vertex indices must be integers, not {bad!r}")
    if n is not None and a.size and not 0 <= a.min() <= a.max() < n:
        raise VertexRangeError(f"vertex {a[(a < 0) | (a >= n)].flat[0]} out of range for n={n}")
    if n is None and a.dtype.kind in "Ou" and a.size and not -2**63 <= a.min() <= a.max() < 2**63:
        a = np.asarray(np.clip(a.astype(object), -2**63, 2**63 - 1))  # saturate past int64
    return a.astype(np.int64).item() if a.ndim == 0 else a.astype(np.int64, copy=False)


def _is_vertex_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool
