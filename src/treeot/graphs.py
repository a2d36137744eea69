"""Weighted graphs, each one proven CSR: edge lookups, shortest paths, grids."""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    GraphError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
    TreeOTError,
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
    keys, which ``arc_index`` and so the edge lookups search; an end out of
    range has no arc (README, "Numbers and vertices").
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
        if -2 in _walk(indptr, indices, [0]):
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

    ``vertex_count`` is read by the integer rule and the rows (u, v, w) of
    ``edge_list``, or of an array, by :func:`_edge_rows`, into a CSR that the
    :class:`WeightedGraph` proof validates. Only when a step fails are the rows
    walked: the first raises that fails, in this order, to read (:func:`_edge_row`),
    to have both ends in range, to join two vertices, to weigh a finite positive
    amount, or to differ from every earlier edge; else the graph is disconnected.
    """
    n = _integer(vertex_count, "vertex_count")
    if n <= 0:
        raise VertexRangeError("vertex_count must be positive")
    rows = edge_list.tolist() if isinstance(edge_list, np.ndarray) else list(edge_list)
    # fewer edges than a spanning tree go to the row loop before any n-sized array
    if len(rows) >= n - 1:
        with contextlib.suppress(GraphError, ValueError):  # ValueError: the CSR proof's
            u, v, w = _edge_rows(rows, "uvw", GraphError)
            if ((0 <= u) & (u < n) & (0 <= v) & (v < n)).all():
                indptr, heads, arcs = _csr(n, u, v)
                return WeightedGraph(n, indptr, heads, np.concatenate([w, w])[arcs])
    seen = set()
    for row in rows:
        u, v, w = _edge_row(row, "uvw", GraphError)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge {row!r} out of range for n={n}")
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


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, heads, arcs)`` of both directions of the edges ``(u[k], v[k])``, each row
    sorted by head: ``arcs`` takes the arcs ``u -> v``, then ``v -> u``, to their CSR order."""
    tail, head = np.concatenate([u, v]), np.concatenate([v, u])
    arcs = np.lexsort((head, tail))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return indptr, head[arcs], arcs


def _walk(indptr: np.ndarray, heads: np.ndarray, starts) -> list[int]:
    """The one depth-first walk over undirected edges, in CSR form, read as lists: each
    vertex's discovery parent, -1 at a start it walked from, -2 where no walk reached."""
    indptr, heads = indptr.tolist(), heads.tolist()
    parent = [-2] * (len(indptr) - 1)
    for start in starts:
        if parent[start] == -2:
            parent[start], stack = -1, [start]
            while stack:
                v = stack.pop()
                for nb in heads[indptr[v]:indptr[v + 1]]:
                    if parent[nb] == -2:
                        parent[nb] = v
                        stack.append(nb)
    return parent


def _edge_rows(rows: list, fields: str, error: type[TreeOTError]) -> tuple:
    """The columns of edge rows of the ``fields`` "uvw" or "uv": int64 ends by
    :func:`_vertex_indices` and float64 weights by the real rule, read at once;
    where that fails, row by row, so that the first bad row raises (:func:`_edge_row`)."""
    # zip raises TypeError for a row that is not iterable, ValueError for rows of unequal lengths
    with contextlib.suppress(TypeError, ValueError, TreeOTError):
        columns = tuple(zip(*rows, strict=True)) if rows else ((),) * len(fields)
        if (len(columns) == len(fields)
                and (ends := _vertex_indices(columns[0] + columns[1])).shape == (2 * len(rows),)):
            weights = [_reals(w, "edge weights", NonFiniteWeightError) for w in columns[2:]]
            return ends[:len(rows)], ends[len(rows):], *weights
    # read one at a time, the rows are Python numbers, which read at once
    return _edge_rows([_edge_row(row, fields, error) for row in rows], fields, error)


def _edge_row(row, fields: str, error: type[TreeOTError]) -> tuple:
    """One edge row in Python numbers, its ends by the integer rule (else ``VertexRangeError``)
    and its weight by the real rule; a row of other than ``len(fields)`` fields raises ``error``."""
    values = tuple(row) if np.iterable(row) else ()
    if len(values) != len(fields):
        raise error(f"edge {row!r} is not a row ({', '.join(fields)})")
    return (*(_integer(end, f"an end of edge {row!r}") for end in values[:2]),
            *(_real(w, f"the weight of edge {row!r}", NonFiniteWeightError) for w in values[2:]))


def grid_graph(p: int, weight: float | None = None) -> WeightedGraph:
    """Four-neighbour lattice on ``p*p`` vertices, id ``i*p + j`` for row i, col j.

    Every edge carries the same weight, ``1/p**2`` unless overridden.
    """
    p = _integer(p, "grid side")
    if p < 2:
        raise VertexRangeError("grid side must be at least 2")
    w = 1.0 / (p * p) if weight is None else weight
    # the edges (v, v + 1) within rows, then (v, v + p) within columns
    return build_graph(p * p, [(v, v + 1, w) for v in range(p * p) if (v + 1) % p]
                       + [(v, v + p, w) for v in range(p * p - p)])


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
    """The one reader of vertex arguments (README, "Numbers and vertices"): one index as a
    Python int, else int64 of its shape; past int64 a value saturates unless ``n`` is given."""
    if (type(values) is int or isinstance(values, np.integer)) and (n is None or 0 <= values < n):
        return min(max(int(values), -2**63), 2**63 - 1)  # one index, as every root: no array
    # all but arrays read one object each: numpy would read [1, True] as [1, 1]
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if a.dtype.kind not in "iu" and not all(map(_is_integer_type, set(map(type, a.flat)))):
        bad = next(v for v in a.flat if not _is_integer_type(type(v)))
        raise VertexRangeError(f"vertex indices must be integers, not {bad!r}")
    if n is not None and a.size and not 0 <= a.min() <= a.max() < n:
        raise VertexRangeError(f"vertex {a[(a < 0) | (a >= n)].flat[0]} out of range for n={n}")
    if a.dtype.kind == "u" and a.size and a.max() >= 2**63:
        a = np.minimum(a, 2**63 - 1)  # saturate past int64, which only passes without n
    try:
        a = a.astype(np.int64, copy=False)
    except OverflowError:  # Python ints past int64, which only pass without n, saturate too
        a = np.clip(a, -2**63, 2**63 - 1).astype(np.int64)
    return a.item() if a.ndim == 0 else a


def _integer(value, what: str, error: type[Exception] = VertexRangeError) -> int:
    """``value`` by the integer rule, as a Python int; else ``error`` names it, as ``what``."""
    if not _is_integer_type(type(value)):
        raise error(f"{what} must be an integer, not {value!r}")
    return int(value)


def _real(value, what: str, error: type[Exception]) -> float:
    """``value`` by the real rule, as a float (past float64's range an infinity of its sign)."""
    if not _is_real_type(type(value)):
        raise error(f"{what} must be a real number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reals(values, what: str, error: type[Exception]) -> np.ndarray:
    """The one reader of real arrays, into float64 of their shape: an array of integer or float
    dtype passes on its dtype alone, float64 uncopied; all else is read one object at a time."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float, copy=False)  # float64, the fastest way to name it
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if not all(map(_is_real_type, set(map(type, a.flat)))):
        bad = next(x for x in a.flat if not _is_real_type(type(x)))
        raise error(f"{what} must be real numbers, not {bad!r}")
    try:
        return a.astype(np.float64)
    except OverflowError:  # an integer past float64's range
        return np.array([_real(x, what, error) for x in a.flat]).reshape(a.shape)


def _is_integer_type(kind: type) -> bool:  # the integer rule: Python or numpy, never bool
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _is_real_type(kind: type) -> bool:  # the real rule: never bool, str or None
    return issubclass(kind, numbers.Real) and kind is not bool
