"""Rooted spanning trees: orientation, rerooting, subtree sums, paths, random trees."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (HasCycleError, NonFiniteMassError, NonFiniteWeightError,
                     NonPositiveWeightError, NotSpanningError, TreeError, VertexRangeError)
from .graphs import WeightedGraph, _csr, _edge_rows, _reals, _vertex_indices, _walk


@dataclass(frozen=True)
class RootedTree:
    """Spanning tree with edges oriented towards a distinguished root.

    ``parent[v]`` is the unique out-neighbour of ``v`` (-1 at the root) and
    ``weight_to_parent[v]`` the weight of that edge. Construction copies both
    read-only and proves once, in numpy alike on every kernel backend
    (:func:`_climb`), that the links root a spanning tree at ``root`` (else
    ``NotSpanningError``, or ``VertexRangeError`` for a root or links that
    are not integers, or shapes that differ), and that every vertex but the
    root weighs its edge a finite real (else ``NonFiniteWeightError``) and positive
    (else ``NonPositiveWeightError``); the root's weight is never read. The proof
    gives ``depth[v]``, the edges from ``v`` to the root, and ``order``: the
    vertices by decreasing depth, then increasing id, so one forward pass
    aggregates child values into parents, each parent taking its children's in
    increasing id order. No child lists are kept.
    """

    root: int
    parent: np.ndarray
    weight_to_parent: np.ndarray
    order: np.ndarray = field(init=False)
    depth: np.ndarray = field(init=False)

    def __post_init__(self):
        parent = np.array(_vertex_indices(self.parent))
        wpar = _reals(self.weight_to_parent, "weights to a parent", NonFiniteWeightError).copy()
        if parent.ndim != 1 or wpar.shape != parent.shape:
            raise VertexRangeError(f"parent links of shape {parent.shape} do not match weights "
                                   f"of shape {wpar.shape}")
        n, root = parent.shape[0], _vertex_indices(self.root)
        not_a_tree = f"parent links are not a tree rooted at {self.root}: "
        if not 0 <= root < n or parent[root] != -1:
            raise NotSpanningError(not_a_tree + "the root is out of range or has a parent link")
        if parent.min() < -1 or parent.max() >= n:
            raise NotSpanningError(not_a_tree + "a parent link is out of range")
        depth, top = _climb(parent)
        if np.any(top != root):
            raise NotSpanningError(not_a_tree + "parent links do not reach every vertex")
        edge_w = wpar.copy()
        edge_w[root] = 1.0  # the root's entry is never read
        if not (edge_w.min() > 0.0 and edge_w.max() < math.inf):  # NaN fails both
            if not np.isfinite(edge_w).all():
                raise NonFiniteWeightError("a weight to a parent is not finite")
            raise NonPositiveWeightError("a weight to a parent is zero or negative")
        object.__setattr__(self, "root", root)
        # by decreasing depth, then increasing id: the key is unique, so no stable sort is needed
        order = np.argsort(np.arange(n) - depth * n)
        for name, a in (("parent", parent), ("weight_to_parent", wpar), ("order", order),
                        ("depth", depth)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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


def _climb(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(depth, top)`` of the links ``parent`` (-1 for none, the others in
    range) by pointer doubling: roots link to themselves, and each of
    ``n.bit_length()`` rounds adds the depth at a vertex's link and follows
    the link's link. ``top[v]`` is the root that v's links reach, with
    ``depth[v]`` the edges to it, or a vertex of the cycle they run into."""
    n = parent.shape[0]
    top = np.where(parent < 0, np.arange(n), parent)
    depth = (parent >= 0).astype(np.int64)
    for _ in range(n.bit_length()):
        depth += depth[top]
        top = top[top]
    return depth, top


def _check_tree_of(g: WeightedGraph, t: RootedTree) -> None:
    """Raise ``NotSpanningError`` unless every link of ``t`` is an edge of
    ``g`` with ``g``'s weight and ``t`` spans ``g``'s vertices."""
    child = np.flatnonzero(t.parent >= 0)
    arc = g.arc_index(child, t.parent[child])
    if t.n != g.n or np.any(arc < 0) or np.any(g.weights[arc] != t.weight_to_parent[child]):
        raise NotSpanningError("the tree is not a spanning tree of the graph, with its weights")


def root_tree(g: WeightedGraph, tree_edges, root: int) -> RootedTree:
    """Orient a spanning edge set of ``g`` towards ``root``, by
    :func:`treeot.graphs._walk` from it; weights are copied from the graph.

    Raises ``HasCycleError`` when the edge count exceeds n-1, an edge repeats
    or the root's part holds a cycle, ``NotSpanningError`` when some vertex is
    unreachable, ``EdgeNotInGraphError`` for foreign edges; README's "Numbers
    and vertices" says how the root and the rows are read (``TreeError``)."""
    n, root = g.n, _vertex_indices(root, g.n)
    rows = tree_edges.tolist() if isinstance(tree_edges, np.ndarray) else list(tree_edges)
    u, v = _edge_rows(rows, "uv", TreeError)
    arcs = g.arc_index(u, v)
    if len(rows) > n - 1:
        raise HasCycleError(f"{len(rows)} edges on {n} vertices cannot be acyclic")
    if len(rows) < n - 1:
        raise NotSpanningError(f"{len(rows)} edges cannot span {n} vertices")
    seen_pairs = set()
    for row, a, b, arc in zip(rows, u.tolist(), v.tolist(), arcs.tolist()):
        key = (a, b) if a < b else (b, a)
        if arc < 0:
            g.edge_weight(*row)  # raises EdgeNotInGraphError, also for a == b
        if key in seen_pairs:
            raise HasCycleError(f"edge {{{a},{b}}} repeated")
        seen_pairs.add(key)
    indptr, heads, _ = _csr(n, u, v)
    parent = np.array(_walk(indptr, heads, [root]))
    if parent.min() == -2:
        # n - 1 distinct edges: the root's part has a cycle if it holds as many as its vertices
        if np.count_nonzero(parent[u] != -2) >= np.count_nonzero(parent != -2):
            raise HasCycleError("tree edges contain a cycle")
        raise NotSpanningError("tree edges do not reach every vertex")
    wpar = np.zeros(n)  # each edge is the link of the end whose parent is the other
    wpar[np.where(parent[v] == u, v, u)] = g.weights[arcs]
    return RootedTree(root, parent, wpar)  # int64, which the proof reads without a scan


def reroot(t: RootedTree, new_root: int) -> RootedTree:
    """Same undirected tree, re-oriented towards ``new_root``.

    Only the parent links on the path between the two roots are reversed.
    """
    new_root = _vertex_indices(new_root, t.n)
    if new_root == t.root:
        return t
    path = [new_root]
    while path[-1] != t.root:
        path.append(int(t.parent[path[-1]]))
    parent = t.parent.copy()
    wpar = t.weight_to_parent.copy()
    for lower, upper in zip(path, path[1:]):
        parent[upper] = lower
        wpar[upper] = t.weight_to_parent[lower]
    parent[new_root] = -1
    wpar[new_root] = 0.0
    return RootedTree(new_root, parent, wpar)


def subtree_aggregate(t: RootedTree, values) -> np.ndarray:
    """For each vertex x, the sum of ``values`` over the subtree hanging at x.

    One leaves-to-root pass, O(n), on the kernel backend: the sums of
    :func:`treeot._kernels.tree_potential`, which also walks back down.
    """
    values = _reals(values, "values", NonFiniteMassError)
    if values.shape != (t.n,):
        raise VertexRangeError(f"expected {t.n} values, got shape {values.shape}")
    return _kernels.kernels().tree_potential(t, values)[0]


def tree_path(t: RootedTree, x: int, y: int) -> list[tuple[int, int, str]]:
    """Steps of the unique tree path from x to y as ``(from, to, "up"|"down")``.

    The ends walk to their lowest common ancestor: each round moves the
    deeper end to its parent, or both ends at equal depth. "up" steps move
    child -> parent until the lowest common ancestor, then "down" steps move
    parent -> child.
    """
    up_part, down_part = [], []
    a, b = _vertex_indices(x, t.n), _vertex_indices(y, t.n)
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
    :func:`treeot._kernels.tree_pairs`)."""
    x, y = np.broadcast_arrays(_vertex_indices(x, t.n), _vertex_indices(y, t.n))
    total = _kernels.kernels().tree_pairs(t, x.ravel(), y.ravel(), None).reshape(x.shape)
    return float(total) if total.ndim == 0 else total


def tree_distance_matrix(t: RootedTree) -> np.ndarray:
    """Dense ``(n, n)`` matrix of tree distances: one :func:`tree_distance`
    call over every ordered vertex pair."""
    return tree_distance(t, *np.indices((t.n, t.n)))


def random_spanning_tree(g: WeightedGraph, rng: np.random.Generator) -> RootedTree:
    """Uniform random spanning tree via loop-erased random walks (Wilson).

    The root is drawn uniformly; walks use uniform neighbour steps, which gives
    the uniform distribution on spanning trees of the (unweighted) adjacency.
    ``rng`` must be a numpy ``Generator``, on any bit generator (else
    ``TypeError``). Deterministic for a given generator state, and
    the same tree, with ``rng`` left at the same position, on every kernel
    backend (see :func:`treeot._kernels.wilson_tree`).
    """
    return RootedTree(*_kernels.kernels().wilson_tree(g, rng))
