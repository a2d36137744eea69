
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import (DisconnectedError, EdgeNotInGraphError, HasCycleError,
                           NonFiniteWeightError, NonPositiveWeightError, NotSpanningError,
                           TreeError, VertexRangeError)
from treeot.trees import RootedTree

from conftest import (
    c_compiler_found,
    compiled_backends,
    degenerate_measures,
    dfs_tree_distance_matrix,
    line6_edges,
    line_graph,
    random_connected_graph,
    random_measure_pair,
    raised,
    random_tree_graph,
    reference_child_sums,
    reference_order_depth,
    reference_root_tree,
    reference_subtree_sums,
    reference_tree_distance,
    reference_tree_path,
    reference_tree_potential,
    run_python,
)


def pass_measures(rng, n, kind):
    """A measure pair on n vertices: random masses, integer masses with
    zero-mass vertices (exact zero subtree sums), or mu == nu."""
    if kind == 0:
        return random_measure_pair(rng, n)
    if kind == 1:
        mu = rng.integers(0, 3, n).astype(float)
        nu = rng.integers(0, 3, n).astype(float)
        mu[0] += mu.sum() == 0.0
        nu[-1] += nu.sum() == 0.0
        return mu / mu.sum(), nu / nu.sum()
    mu = random_measure_pair(rng, n)[0]
    return mu, mu


@pytest.fixture(scope="module")
def pass_trees():
    """(tree, mu, nu) for the tree-pass checks: trees of random graphs with
    n = 1..80, each also rerooted at a random vertex, and Wilson trees of the
    8x8, 10x10 and 32x32 lattices; 1020 trees."""
    rng = np.random.default_rng(3)
    trees = []
    for n in range(1, 81):
        for _ in range(5):
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n + 1)) * (n > 1))
            t = ot.random_spanning_tree(g, rng)
            trees += [t, ot.reroot(t, int(rng.integers(0, n)))]
    for p, count in ((8, 100), (10, 100), (32, 20)):
        g = ot.grid_graph(p)
        trees += [ot.random_spanning_tree(g, rng) for _ in range(count)]
    return [(t, *pass_measures(rng, t.n, k % 3)) for k, t in enumerate(trees)]


CHORDED_RING = [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (3, 4, 2.0), (4, 5, 0.75), (5, 0, 1.5),
                (1, 4, 3.0), (0, 3, 0.125)]
RING_PATH = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

# (tree edges, root) on CHORDED_RING that root_tree rejects; several break
# more than one rule, so the order of its checks decides the error
MALFORMED_TREES = {
    "root-n": (RING_PATH, 6),
    "root-negative": (RING_PATH, -1),
    "too-many-edges": (RING_PATH + [(5, 0)], 0),
    "too-few-edges": (RING_PATH[:4], 0),
    "foreign-edge": ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], 0),
    "foreign-vertex": ([(0, 1), (1, 2), (2, 9), (3, 4), (4, 5)], 0),
    "self-edge": ([(0, 1), (1, 2), (3, 3), (3, 4), (4, 5)], 0),
    "repeated-same-way": ([(0, 1), (1, 2), (0, 1), (3, 4), (4, 5)], 0),
    "repeated-reversed": ([(0, 1), (1, 2), (2, 1), (3, 4), (4, 5)], 0),
    "repeated-before-foreign": ([(0, 1), (1, 0), (0, 2), (3, 4), (4, 5)], 0),
    "foreign-before-repeated": ([(0, 2), (0, 1), (1, 0), (3, 4), (4, 5)], 0),
    "cycle-at-root": ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 0),
    "cycle-below-root": ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 2),
    "cycle-away-from-root": ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 5),
    "chord-cycle": ([(0, 1), (1, 4), (3, 4), (0, 3), (4, 5)], 4),
    "unreached": ([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)], 4),
    "short-row": ([(0, 1), (1,), (2, 3), (3, 4), (4, 5)], 0),
    "long-row": ([(0, 1), (1, 2, 3), (2, 3), (3, 4), (4, 5)], 0),
    "row-not-iterable": ([(0, 1), 7, (2, 3), (3, 4), (4, 5)], 0),
    "endpoint-none": ([(0, 1), (None, 2), (2, 3), (3, 4), (4, 5)], 0),
    # the graph's weighted rows, and a row that is no sequence: each a TreeError
    "weighted-rows": ([(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (3, 4, 2.0), (4, 5, 0.75)], 0),
    "row-none": ([(0, 1), (1, 2), None, (3, 4), (4, 5)], 0),
}


def random_cycle_sets(rng, count):
    """(graph, edges, root) with n - 1 distinct edges of a random graph that
    close a cycle: a random spanning tree less one edge, which splits it in
    two parts, plus a chord inside one part; each edge in a random
    orientation, in random order, and a random root, as often in the
    chord's part as in the other."""
    cases = []
    while len(cases) < count:
        n = int(rng.integers(4, 30))
        g = random_connected_graph(rng, n, extra_edges=n)
        t = ot.random_spanning_tree(g, rng)
        tree = sorted(t.edge_set())
        a, b = tree.pop(int(rng.integers(len(tree))))
        cut = a if t.parent[a] == b else b
        below = []  # whether the climb from v passes the cut vertex
        for v in range(n):
            while v not in (cut, t.root):
                v = int(t.parent[v])
            below.append(v == cut)
        chords = [(a, b) for a, b, _ in g.edges
                  if (a, b) not in t.edge_set() and below[a] == below[b]]
        if chords:
            chord = chords[int(rng.integers(len(chords)))]
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree + [chord]]
            inside = rng.random() < 0.5  # the root in the chord's part, or in the other
            roots = [v for v in range(n) if (below[v] == below[chord[0]]) == inside]
            cases.append((g, [edges[i] for i in rng.permutation(n - 1)],
                          roots[int(rng.integers(len(roots)))]))
    return cases


class TestRootTree:
    @pytest.mark.parametrize("name", MALFORMED_TREES)
    def test_malformed_trees_raise_as_before(self, name):
        g = ot.build_graph(6, CHORDED_RING)
        edges, root = MALFORMED_TREES[name]
        expected = raised(reference_root_tree, g, edges, root)
        assert expected is not None
        if name in ("short-row", "long-row", "row-not-iterable", "weighted-rows", "row-none"):
            assert expected[0] is TreeError
        assert raised(ot.root_tree, g, edges, root) == expected

    def test_random_cycle_sets_raise_as_before(self):
        # n - 1 distinct graph edges with a cycle inside or outside the root's part
        kinds = {HasCycleError: 0, NotSpanningError: 0}
        for g, edges, root in random_cycle_sets(np.random.default_rng(37), 300):
            expected = raised(reference_root_tree, g, edges, root)
            assert expected is not None
            assert raised(ot.root_tree, g, edges, root) == expected
            kinds[expected[0]] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_valid_trees_orient_as_before(self):
        rng = np.random.default_rng(29)
        cases = [(ot.build_graph(6, CHORDED_RING), [(np.int64(1), 2), (1, 0), (3, 2), (4, 3), (5, 4)], 0),
                 (ot.build_graph(6, CHORDED_RING), RING_PATH, np.int64(3)),
                 (ot.build_graph(1, []), [], 0)]
        for _ in range(200):
            g = random_connected_graph(rng, int(rng.integers(2, 40)), extra_edges=5)
            t = ot.random_spanning_tree(g, rng)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edge_set()]
            cases.append((g, [edges[i] for i in rng.permutation(len(edges))], int(rng.integers(g.n))))
        for g, edges, root in cases:
            t, ref = ot.root_tree(g, edges, root), reference_root_tree(g, edges, root)
            assert t.root == ref.root and type(t.root) is int
            for name in ("parent", "weight_to_parent", "order", "depth"):
                a, b = getattr(t, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable


    @pytest.mark.parametrize("root", [1.0, True, np.float64(1.0)])
    def test_root_that_is_not_an_integer_raises(self, root):
        # a float root once raised TypeError, and True rooted the tree at vertex 1
        with pytest.raises(VertexRangeError):
            ot.root_tree(ot.grid_graph(2), [(0, 1), (1, 3), (0, 2)], root)

    @pytest.mark.parametrize("edges", [[((0, 1), (1, 3)), ((0, 1), (0, 2)), ((1, 3), (0, 2))],
                                       [([0], [1]), ([1], [3]), ([0], [2])]])
    def test_an_end_that_is_not_one_vertex_raises(self, edges):
        # these once read as a repeated edge, and as the tree 0-1, 1-3, 0-2
        with pytest.raises(VertexRangeError) as caught:
            ot.root_tree(ot.grid_graph(2), edges, 0)
        assert str(caught.value) == f"an end of edge {edges[0]!r} must be an integer, not {edges[0][0]!r}"

    def test_numpy_integer_root_is_accepted(self):
        t = ot.root_tree(ot.grid_graph(2), [(0, 1), (1, 3), (0, 2)], np.int64(1))
        assert t.root == 1 and type(t.root) is int and t.parent.tolist() == [1, -1, 0, 1]

    def test_line_rooted_at_end(self):
        g = line_graph(6)
        t = ot.root_tree(g, line6_edges(), 5)
        assert [int(p) for p in t.parent] == [1, 2, 3, 4, 5, -1]
        assert t.root == 5

    def test_star_rooted_at_center(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        t = ot.root_tree(g, [(0, 1), (0, 2), (0, 3)], 0)
        assert all(int(t.parent[v]) == 0 for v in (1, 2, 3))

    def test_too_many_edges_is_cycle(self):
        g = ot.build_graph(6, [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)])
        six_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        with pytest.raises(HasCycleError):
            ot.root_tree(g, six_edges, 0)

    def test_cycle_with_right_count(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
        with pytest.raises(HasCycleError):
            ot.root_tree(g, [(0, 1), (1, 2), (2, 0)], 0)

    def test_not_spanning(self):
        g = line_graph(4)
        with pytest.raises(NotSpanningError):
            ot.root_tree(g, [(0, 1), (1, 2)], 0)

    def test_foreign_edge(self):
        g = line_graph(3)
        with pytest.raises(EdgeNotInGraphError):
            ot.root_tree(g, [(0, 1), (0, 2)], 0)

    def test_order_is_topological(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 20, extra_edges=6)
        t = ot.random_spanning_tree(g, rng)
        assert np.array_equal(np.sort(t.order), np.arange(g.n)) and t.order[-1] == t.root
        rank = np.empty(g.n, dtype=np.int64)
        rank[t.order] = np.arange(g.n)
        below = t.parent >= 0
        assert np.all(rank[t.parent[below]] > rank[below])

    def test_order_and_depth_match_the_plain_climb(self, pass_trees):
        trees = [t for t, _, _ in pass_trees]
        assert len(trees) >= 1000
        for t in trees:
            order, depth = reference_order_depth(t.root, t.parent.tolist())
            assert np.array_equal(t.order, order) and np.array_equal(t.depth, depth)
            assert t.order.dtype == t.depth.dtype == np.int64

    def test_sums_along_order_add_children_in_increasing_id_order(self, pass_trees):
        # along the order every parent takes its children's finished sums in
        # increasing id order, so the sums are bit for bit the recursion's
        rng = np.random.default_rng(31)
        cases = [(t, ot.imbalance(mu, nu)) for t, mu, nu in pass_trees]
        cases += [(t, ot.imbalance(*degenerate_measures(rng, t.n))) for t, _, _ in pass_trees
                  if t.n >= 2]
        assert len(cases) >= 2000
        for t, xi in cases:
            expected = reference_child_sums(t.parent.tolist(), xi)
            assert bits(ot.subtree_aggregate(t, xi)) == bits(expected)

    def test_weights_copied_from_graph(self):
        g = ot.build_graph(3, [(0, 1, 0.25), (1, 2, 0.75)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        assert t.weight_to_parent[0] == 0.25 and t.weight_to_parent[1] == 0.75


class TestReroot:
    def test_identity(self):
        g = line_graph(4)
        t = ot.root_tree(g, [(0, 1), (1, 2), (2, 3)], 3)
        assert ot.reroot(t, 3) is t

    def test_line_full_reversal(self):
        g = line_graph(6)
        t = ot.root_tree(g, line6_edges(), 5)
        t2 = ot.reroot(t, 0)
        assert [int(p) for p in t2.parent] == [-1, 0, 1, 2, 3, 4]

    def test_double_reroot_roundtrip(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 15, extra_edges=4)
        t = ot.random_spanning_tree(g, rng)
        s = int(rng.integers(0, g.n))
        back = ot.reroot(ot.reroot(t, s), t.root)
        assert np.array_equal(back.parent, t.parent)
        assert np.array_equal(back.weight_to_parent, t.weight_to_parent)

    @pytest.mark.parametrize("root", [4.0, True, 9, -1])
    def test_a_root_that_is_no_vertex_is_refused(self, root):
        # a float root once failed as an IndexError, past the range check
        t = ot.random_spanning_tree(ot.grid_graph(3), np.random.default_rng(0))
        with pytest.raises(VertexRangeError):
            ot.reroot(t, root)

    def test_preserves_edges_and_distances(self):
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 12, extra_edges=5)
        t = ot.random_spanning_tree(g, rng)
        d_ref = ot.tree_distance_matrix(t)
        for s in range(g.n):
            t2 = ot.reroot(t, s)
            assert t2.edge_set() == t.edge_set()
            assert np.max(np.abs(ot.tree_distance_matrix(t2) - d_ref)) <= 1e-12


class TestSubtreeAggregate:
    def test_all_ones_gives_subtree_sizes(self):
        g = line_graph(5)
        t = ot.root_tree(g, [(i, i + 1) for i in range(4)], 4)
        sizes = ot.subtree_aggregate(t, np.ones(5))
        assert sizes.tolist() == [1, 2, 3, 4, 5]

    def test_indicator_at_root(self):
        g = line_graph(4)
        t = ot.root_tree(g, [(0, 1), (1, 2), (2, 3)], 3)
        v = np.zeros(4)
        v[3] = 1.0
        assert ot.subtree_aggregate(t, v).tolist() == [0, 0, 0, 1]

    def test_root_collects_total(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 30, extra_edges=10)
        t = ot.random_spanning_tree(g, rng)
        vals = rng.normal(size=30)
        agg = ot.subtree_aggregate(t, vals)
        assert abs(agg[t.root] - vals.sum()) <= 1e-12


class TestTreePaths:
    def test_empty_path(self):
        g = line_graph(3)
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        assert ot.tree_path(t, 1, 1) == []

    def test_leaf_to_root_all_up(self):
        g = line_graph(6)
        t = ot.root_tree(g, line6_edges(), 5)
        steps = ot.tree_path(t, 0, 5)
        assert len(steps) == 5 and all(d == "up" for _, _, d in steps)

    def test_star_leaf_to_leaf(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        t = ot.root_tree(g, [(0, 1), (0, 2), (0, 3)], 0)
        steps = ot.tree_path(t, 1, 2)
        assert [d for _, _, d in steps] == ["up", "down"]
        assert steps == [(1, 0, "up"), (0, 2, "down")]

    @pytest.mark.parametrize("x, y", [(0, -1), (-9, 0), (0, 99), (0, 1.0)])
    def test_ends_that_are_no_vertex_are_refused(self, x, y):
        # -1 once wrapped to the last vertex, and 99 raised IndexError
        t = ot.random_spanning_tree(ot.grid_graph(3), np.random.default_rng(0))
        with pytest.raises(VertexRangeError):
            ot.tree_path(t, x, y)

    def test_distance_examples(self):
        g = line_graph(6)
        t = ot.root_tree(g, line6_edges(), 5)
        assert ot.tree_distance(t, 0, 5) == 5.0
        assert ot.tree_distance(t, 2, 2) == 0.0
        assert ot.tree_distance(t, 2, 3) == 1.0
        assert type(ot.tree_distance(t, np.int64(0), np.int64(5))) is float
        got = ot.tree_distance(t, [[0, 2], [2, 5]], [[5, 2], [3, 0]])
        assert got.shape == (2, 2) and got.tolist() == [[5.0, 0.0], [1.0, 5.0]]

    def test_climb_matches_the_scalar_walks(self):
        # every pair of random trees with n <= 40: array distances equal the
        # scalar walk bit for bit, paths equal it step for step
        rng = np.random.default_rng(23)
        for n in range(1, 41):
            g = random_connected_graph(rng, n, n // 2) if n > 2 else random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            xs, ys = np.divmod(np.arange(n * n), n)
            got = ot.tree_distance(t, xs, ys)
            ref = [reference_tree_distance(t, x, y) for x, y in zip(xs, ys)]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref]
            assert np.max(np.abs(got - dfs_tree_distance_matrix(t).ravel())) <= 1e-12
            x, y = rng.integers(0, n, size=2)
            assert type(ot.tree_distance(t, x, y)) is float
            assert ot.tree_distance(t, x, y) == ref[x * n + y]
            for x, y in zip(xs, ys):
                assert ot.tree_path(t, x, y) == reference_tree_path(t, x, y)

    def test_tree_distance_dominates_graph_distance(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 12, extra_edges=8)
        d_g = ot.all_pairs_shortest_paths(g)
        t = ot.random_spanning_tree(g, rng)
        d_t = ot.tree_distance_matrix(t)
        assert (d_t >= d_g - 1e-12).all()


class TestWilson:
    def test_tree_graph_returns_itself(self):
        g = line_graph(5)
        t = ot.random_spanning_tree(g, np.random.default_rng(0))
        assert t.edge_set() == {(i, i + 1) for i in range(4)}

    def test_deterministic_for_fixed_seed(self):
        g = ot.build_graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        t1 = ot.random_spanning_tree(g, np.random.default_rng(123))
        t2 = ot.random_spanning_tree(g, np.random.default_rng(123))
        assert t1.root == t2.root and np.array_equal(t1.parent, t2.parent)

    def test_uniform_on_triangle(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        rng = np.random.default_rng(99)
        counts = {}
        samples = 10_000
        for _ in range(samples):
            key = frozenset(ot.random_spanning_tree(g, rng).edge_set())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / samples - 1 / 3) <= 0.02

    def test_every_edge_in_graph(self):
        rng = np.random.default_rng(17)
        g = random_connected_graph(rng, 25, extra_edges=15)
        t = ot.random_spanning_tree(g, rng)
        for u, v in t.edge_set():
            assert g.has_edge(u, v)
        assert len(t.edge_set()) == g.n - 1


def wilson_graphs():
    """Lattices, random graphs with pendant vertices and non-unit weights,
    and the one- and two-vertex graphs."""
    graphs = [pytest.param(ot.build_graph(1, []), id="n1"),
              pytest.param(ot.build_graph(2, [(0, 1, 0.7)]), id="n2")]
    graphs += [pytest.param(ot.grid_graph(p), id=f"grid{p}") for p in (2, 3, 8)]
    graphs.append(pytest.param(ot.grid_graph(5, weight=0.3), id="grid5-w0.3"))
    for s in range(4):
        rng = np.random.default_rng(700 + s)
        n = int(rng.integers(3, 40))
        graphs.append(pytest.param(random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n))),
                                   id=f"random{s}"))
        graphs.append(pytest.param(random_tree_graph(rng, n), id=f"tree{s}"))
    return graphs


def draw_tree(g, seed, kernel=None):
    """(root, parent, wpar, next uniform) of one draw with the ``Kernels``
    entry ``kernel``, or with the reference walk on the raw CSR."""
    rng = np.random.default_rng(seed)
    if kernel is not None:
        root, parent, wpar = kernel(g, rng)
    else:
        parent = np.empty(g.n, dtype=np.int64)
        wpar = np.empty(g.n)
        out_root = np.empty(1, dtype=np.int64)
        _kernels.wilson_tree(g.n, g.indptr, g.indices, g.weights, rng, parent, wpar, out_root)
        root = out_root[0]
    return int(root), parent, wpar, rng.random()


@pytest.fixture(scope="module")
def c_wilson():
    if not c_compiler_found():
        pytest.skip("no C compiler on PATH")
    return _kernels._load_c().wilson_tree


class TestWilsonBackends:
    @pytest.mark.parametrize("g", wilson_graphs())
    def test_c_matches_python(self, c_wilson, g):
        for seed in range(6):
            root, parent, wpar, after = draw_tree(g, seed, c_wilson)
            ref_root, ref_parent, ref_wpar, ref_after = draw_tree(g, seed)
            assert root == ref_root
            assert np.array_equal(parent, ref_parent)
            assert np.array_equal(wpar, ref_wpar)
            assert after == ref_after
            assert parent[root] == -1 and wpar[root] == 0.0
            assert all(wpar[v] == g.edge_weight(v, int(parent[v])) for v in range(g.n) if v != root)
            t = ot.random_spanning_tree(g, np.random.default_rng(seed))
            assert t.root == root and np.array_equal(t.parent, parent)
            assert np.array_equal(t.weight_to_parent, wpar)

    def test_c_rejects_what_python_rejects(self, c_wilson):
        # the reference walk raises on a graph with no vertex or with an
        # isolated one; no WeightedGraph holds either, and the kernel takes
        # nothing else
        empty = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        isolated = (np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        for (indptr, indices, weights), n in ((empty, 0), (isolated, 2)):
            with pytest.raises(ValueError):
                _kernels.wilson_tree(n, indptr, indices, weights, np.random.default_rng(0),
                                     np.empty(n, dtype=np.int64), np.empty(n),
                                     np.empty(1, dtype=np.int64))
            with pytest.raises((ValueError, DisconnectedError)):
                ot.WeightedGraph(n=n, indptr=indptr, indices=indices, weights=weights)
            with pytest.raises(TypeError, match="needs a WeightedGraph"):
                c_wilson((indptr, indices, weights), np.random.default_rng(0))

    def test_c_rejects_malformed_csr(self, c_wilson):
        csr = dict(indptr=np.array([0, 2, 1, 2], dtype=np.int64),
                   indices=np.array([1, 2], dtype=np.int64), weights=np.ones(2))
        with pytest.raises(ValueError, match="indptr"):
            ot.WeightedGraph(n=3, **csr)
        with pytest.raises(TypeError, match="needs a WeightedGraph"):
            c_wilson(csr, np.random.default_rng(0))


def bits(*arrays):
    """Bit-exact fingerprint of arrays (float64 values compared as their bit
    patterns, so -0.0 and 0.0 differ)."""
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()[:20]


TREE_PASS_SCRIPT = """
import json, pickle, sys
sys.path.insert(0, TESTS_DIR)
import treeot as ot
from treeot.trees import RootedTree
from test_trees import bits
with open(sys.argv[1], "rb") as f:
    trees = pickle.load(f)
passes = []
for root, parent, wpar, mu, nu in trees:
    t = RootedTree(root, parent, wpar)
    sums = ot.subtree_aggregate(t, ot.imbalance(mu, nu))
    passes.append(bits(t.order, t.depth, sums, ot.tree_potential(t, mu, nu).values))
print(json.dumps({"backend": ot.kernel_backend(), "passes": passes}))
"""


@pytest.fixture(scope="module")
def tree_pass_runs(tmp_path_factory, pass_trees):
    """The reference loops' fingerprints, and a function that runs the
    tree-pass script on a backend (once per backend) and returns its output
    and, for the python backend, the empty kernel cache it ran with."""
    trees = [(t.root, t.parent, t.weight_to_parent, mu, nu) for t, mu, nu in pass_trees]
    path = tmp_path_factory.mktemp("tree-pass") / "corpus.pickle"
    path.write_bytes(pickle.dumps(trees))
    passes = []
    for root, parent, wpar, mu, nu in trees:
        order, depth = reference_order_depth(root, parent.tolist())
        sums = reference_subtree_sums(parent, order, ot.imbalance(mu, nu))
        passes.append(bits(order, depth, sums, reference_tree_potential(parent, order, wpar, sums)))
    reference = {"passes": passes}
    runs = {}

    def run(backend):
        if backend not in runs:
            env = {}
            if backend == "python":
                env["TREEOT_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache-python"))
            proc = run_python(TREE_PASS_SCRIPT, backend, argv=[str(path)], **env)
            assert proc.returncode == 0, proc.stderr
            runs[backend] = json.loads(proc.stdout), env.get("TREEOT_CACHE_DIR")
        return runs[backend]

    return reference, run


BACKENDS = ["python", *compiled_backends()]


class TestTreePassParity:
    """The tree's order and depth, ``subtree_sums`` and ``tree_potential``
    give the plain loops' results bit for bit on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_orders_sums_and_potentials_match_the_loops(self, backend, tree_pass_runs):
        reference, run = tree_pass_runs
        out, _ = run(backend)
        assert out["backend"] == backend
        assert len(out["passes"]) == len(reference["passes"]) >= 1000
        mismatched = [i for i, (a, b) in enumerate(zip(out["passes"], reference["passes"])) if a != b]
        assert not mismatched, f"{len(mismatched)} trees differ, first at corpus index {mismatched[0]}"

    def test_python_backend_builds_nothing(self, tree_pass_runs):
        out, cache = tree_pass_runs[1]("python")
        assert out["backend"] == "python"
        assert not any(Path(cache).iterdir())


ROOT_FAULT = "the root is out of range or has a parent link"
RANGE_FAULT = "a parent link is out of range"
REACH_FAULT = "parent links do not reach every vertex"
MALFORMED_LINKS = [
    pytest.param(0, [1, 0], ROOT_FAULT, id="two-cycle-through-the-root"),
    pytest.param(0, [1, 0, 0], ROOT_FAULT, id="root-with-a-parent"),
    pytest.param(0, [-1, 2, 1], REACH_FAULT, id="cycle-away-from-the-root"),
    pytest.param(0, [-1, -1, 0], REACH_FAULT, id="second-root"),
    pytest.param(1, [-1, 0], ROOT_FAULT, id="root-not-the-top"),
    pytest.param(0, [-1, 3, 0], RANGE_FAULT, id="link-out-of-range"),
    pytest.param(0, [-1, -2], RANGE_FAULT, id="negative-link"),
    pytest.param(3, [-1, 0], ROOT_FAULT, id="root-out-of-range"),
]


@pytest.fixture(scope="module", params=BACKENDS)
def backend_kernels(request):
    return _kernels._LOADERS[request.param]()


class TestMalformedLinks:
    """The proof is numpy: the same exception, with a message naming the
    fault, whichever backend runs the kernels."""

    @pytest.mark.parametrize("root, parent, fault", MALFORMED_LINKS)
    def test_backend_reports_not_spanning(self, backend_kernels, root, parent, fault, monkeypatch):
        monkeypatch.setattr(_kernels, "kernels", lambda: backend_kernels)
        with pytest.raises(NotSpanningError) as caught:
            RootedTree(root, np.array(parent, dtype=np.int64), np.ones(len(parent)))
        assert str(caught.value) == f"parent links are not a tree rooted at {root}: {fault}"

    @pytest.mark.parametrize("weight, error", [
        (np.nan, NonFiniteWeightError), (np.inf, NonFiniteWeightError),
        (0.0, NonPositiveWeightError), (-1.0, NonPositiveWeightError)])
    def test_an_edge_weight_must_be_finite_and_positive(self, weight, error):
        # tree_k_distance of the NaN tree once came out NaN
        with pytest.raises(error):
            RootedTree(0, [-1, 0, 1], [1.0, 1.0, weight])
        # the root's entry is never read
        assert RootedTree(0, [-1, 0, 1], [weight, 1.0, 1.0]).n == 3

    @pytest.mark.parametrize("root, parent, fault", MALFORMED_LINKS)
    def test_tree_build_reports_not_spanning(self, root, parent, fault):
        # from a list of links, which the constructor converts
        with pytest.raises(NotSpanningError, match=fault):
            RootedTree(root, parent, np.ones(len(parent)))
