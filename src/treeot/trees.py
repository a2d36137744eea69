"""Rooted spanning trees: orientation, rerooting, subtree sums, paths, random trees."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import HasCycleError, NotSpanningError, VertexRangeError
from .graphs import WeightedGraph


@dataclass(frozen=True)
class RootedTree:
    """Spanning tree with edges oriented towards a distinguished root.

    ``parent[v]`` is the unique out-neighbour of ``v`` (-1 at the root) and
    ``weight_to_parent[v]`` the weight of that edge. ``order`` lists vertices
    leaves-first, so a single forward pass aggregates child values into parents.
    ``depth[v]`` counts edges from ``v`` to the root. No child lists are kept;
    :func:`treeot._kernels.child_csr` derives them from ``parent``.
    """

    root: int
    parent: np.ndarray
    weight_to_parent: np.ndarray
    order: np.ndarray
    depth: np.ndarray

    @property
    def n(self) -> int:
        return self.parent.shape[0]

    def edge_set(self) -> set[tuple[int, int]]:
        """Undirected edges as canonical (min, max) pairs."""
        return {
            (v, p) if v < p else (p, v)
            for v, p in enumerate(self.parent.tolist())
            if p >= 0
        }


def _from_parent_array(root: int, parent: np.ndarray, weight_to_parent: np.ndarray) -> RootedTree:
    """The :class:`RootedTree` of the parent links, which must root a
    spanning tree at ``root`` (else ``NotSpanningError``); ``order`` and
    ``depth`` come from the backend's ``tree_order``."""
    order, depth = _kernels.kernels().tree_order(root, parent)
    parent = parent.copy()
    weight_to_parent = weight_to_parent.copy()
    for arr in (parent, weight_to_parent, order, depth):
        arr.setflags(write=False)
    return RootedTree(root=int(root), parent=parent, weight_to_parent=weight_to_parent,
                      order=order, depth=depth)


def root_tree(g: WeightedGraph, tree_edges, root: int) -> RootedTree:
    """Orient a spanning edge set of ``g`` towards ``root``.

    Edge weights are copied from the graph. Raises ``HasCycleError`` when the
    edge count exceeds n-1 or a cycle is found, ``NotSpanningError`` when some
    vertex is unreachable, ``EdgeNotInGraphError`` for foreign edges.
    """
    n = g.n
    if not (0 <= root < n):
        raise VertexRangeError(f"root {root} out of range")
    pairs = [(int(u), int(v)) for u, v in tree_edges]
    if len(pairs) > n - 1:
        raise HasCycleError(f"{len(pairs)} edges on {n} vertices cannot be acyclic")
    if len(pairs) < n - 1:
        raise NotSpanningError(f"{len(pairs)} edges cannot span {n} vertices")
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    seen_pairs = set()
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        w = g.weight_map.get(key)
        if w is None:
            g.edge_weight(u, v)  # raises EdgeNotInGraphError (also for u == v)
        if key in seen_pairs:
            raise HasCycleError(f"edge {{{u},{v}}} repeated")
        seen_pairs.add(key)
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    parent = [-1] * n
    wpar = [0.0] * n
    visited = [False] * n
    visited[root] = True
    stack = [int(root)]
    reached = 1
    while stack:
        v = stack.pop()
        for nb, w in adjacency[v]:
            if nb == parent[v]:
                continue
            if visited[nb]:
                raise HasCycleError("tree edges contain a cycle")
            visited[nb] = True
            parent[nb] = v
            wpar[nb] = w
            stack.append(nb)
            reached += 1
    if reached != n:
        raise NotSpanningError("tree edges do not reach every vertex")
    return _from_parent_array(root, np.array(parent, dtype=np.int64), np.array(wpar, dtype=np.float64))


def reroot(t: RootedTree, new_root: int) -> RootedTree:
    """Same undirected tree, re-oriented towards ``new_root``.

    Only the parent links on the path between the two roots are reversed.
    """
    if not (0 <= new_root < t.n):
        raise VertexRangeError(f"root {new_root} out of range")
    if new_root == t.root:
        return t
    path = [int(new_root)]
    while path[-1] != t.root:
        path.append(int(t.parent[path[-1]]))
    parent = t.parent.copy()
    wpar = t.weight_to_parent.copy()
    for lower, upper in zip(path, path[1:]):
        parent[upper] = lower
        wpar[upper] = t.weight_to_parent[lower]
    parent[new_root] = -1
    wpar[new_root] = 0.0
    return _from_parent_array(new_root, parent, wpar)


def subtree_aggregate(t: RootedTree, values) -> np.ndarray:
    """For each vertex x, the sum of ``values`` over the subtree hanging at x.

    One leaves-to-root pass, O(n), on the kernel backend
    (:func:`treeot._kernels.subtree_sums`).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (t.n,):
        raise VertexRangeError(f"expected {t.n} values, got shape {values.shape}")
    return _kernels.kernels().subtree_sums(t.parent, t.order, values)


def tree_path(t: RootedTree, x: int, y: int) -> list[tuple[int, int, str]]:
    """Steps of the unique tree path from x to y as ``(from, to, "up"|"down")``.

    The ends walk to their lowest common ancestor: each round moves the
    deeper end to its parent, or both ends at equal depth. "up" steps move
    child -> parent until the lowest common ancestor, then "down" steps move
    parent -> child.
    """
    up_part, down_part = [], []
    a, b = int(x), int(y)
    while a != b:
        move_a, move_b = t.depth[a] >= t.depth[b], t.depth[b] >= t.depth[a]
        if move_a:
            up_part.append((a, int(t.parent[a]), "up"))
            a = int(t.parent[a])
        if move_b:
            down_part.append((int(t.parent[b]), b, "down"))
            b = int(t.parent[b])
    return up_part + down_part[::-1]


def tree_distance(t: RootedTree, x, y):
    """Weighted length of the unique tree path between x and y: a Python
    float for two vertices, the array of pairwise lengths for index arrays of
    one shape (O(path length) per pair, on the kernel backend's
    :func:`treeot._kernels.tree_pairs`). Raises ``VertexRangeError`` for a
    vertex out of range."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
    total = _kernels.kernels().tree_pairs(t.parent, t.depth, t.weight_to_parent, x.ravel(),
                                          y.ravel(), None).reshape(x.shape)
    return float(total) if total.ndim == 0 else total


def tree_distance_matrix(t: RootedTree) -> np.ndarray:
    """Dense ``(n, n)`` matrix of tree distances (O(n^2))."""
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


def random_spanning_tree(g: WeightedGraph, rng: np.random.Generator) -> RootedTree:
    """Uniform random spanning tree via loop-erased random walks (Wilson).

    The root is drawn uniformly; walks use uniform neighbour steps, which gives
    the uniform distribution on spanning trees of the (unweighted) adjacency.
    Deterministic for a given generator state, and the same tree on every
    kernel backend (see :func:`treeot._kernels.wilson_tree`).
    """
    parent = np.empty(g.n, dtype=np.int64)
    wpar = np.empty(g.n, dtype=np.float64)
    root = _kernels.kernels().wilson_tree(g.indptr, g.indices, g.weights, rng, parent, wpar)
    return _from_parent_array(int(root), parent, wpar)
