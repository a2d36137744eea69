"""The tree-pair walk (``_kernels.tree_pairs``) and the support-pair Dijkstra
(``_kernels.pair_distances``): bit-identical on every kernel backend, equal
to independent test-side references, and bounds-checked alike on each
backend."""

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import VertexRangeError
from treeot.trees import RootedTree

from conftest import (
    compiled_backends,
    dfs_tree_distance_matrix,
    dijkstra_all_pairs,
    floyd_warshall,
    lockstep_plan_to_flow,
    random_connected_graph,
    random_measure_pair,
    random_tree_graph,
    raised,
    reference_tree_distance,
)

BACKENDS = ["python", *compiled_backends()]


def all_pairs(n):
    return np.divmod(np.arange(n * n, dtype=np.int64), n)


def use_backend(monkeypatch, backend):
    """Route the library's kernel calls to ``backend`` for one test."""
    k = _kernels._LOADERS[backend]()
    monkeypatch.setattr(_kernels, "kernels", lambda: k)


@pytest.fixture(scope="module")
def instances():
    """Random weighted connected graphs on 1..40 vertices (tree graphs below
    3, unit weights on every third so that distances tie), a Wilson tree of
    each and the DP plan of a random measure pair on that tree."""
    rng = np.random.default_rng(61)
    out = []
    for n in range(1, 41):
        g = random_connected_graph(rng, n, n // 2) if n > 2 else random_tree_graph(rng, n)
        if n % 3 == 0:
            g = ot.build_graph(n, [(u, v, 1.0) for u, v, _ in g.edges])
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, n)
        out.append((g, t, ot.dp_transport_plan(t, mu, nu)))
    return out


@pytest.fixture(scope="module")
def runs(instances):
    """Per backend and instance: the tree distance of every vertex pair, the
    plan's edge flows and the graph distance of every vertex pair."""
    out = {}
    for backend in BACKENDS:
        k = _kernels._LOADERS[backend]()
        out[backend] = []
        for g, t, plan in instances:
            xs, ys = all_pairs(g.n)
            out[backend].append((
                k.tree_pairs(t, xs, ys, None),
                k.tree_pairs(t, plan.rows, plan.cols, plan.mass),
                k.pair_distances(g, xs, ys),
            ))
    return out


@pytest.mark.parametrize("backend", compiled_backends())
def test_compiled_backend_matches_python_bit_for_bit(backend, runs):
    for i, (got, ref) in enumerate(zip(runs[backend], runs["python"])):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref], i


@pytest.mark.parametrize("backend", BACKENDS)
class TestTreePairs:
    def test_distances_match_the_scalar_walk_bit_for_bit(self, backend, instances, runs):
        for i, ((_, t, _), (dist, _, _)) in enumerate(zip(instances, runs[backend])):
            ref = [reference_tree_distance(t, x, y) for x, y in zip(*all_pairs(t.n))]
            assert [v.hex() for v in dist.tolist()] == [v.hex() for v in ref], i

    def test_distances_match_the_dense_tree_matrix(self, backend, instances, runs):
        # the matrix sums each path from one end, so it agrees up to rounding
        for i, ((_, t, _), (dist, _, _)) in enumerate(zip(instances, runs[backend])):
            dense = dfs_tree_distance_matrix(t).ravel()
            assert np.all(np.abs(dist - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

    def test_tree_distance_matrix_is_the_walk_over_every_pair(self, backend, instances, monkeypatch):
        use_backend(monkeypatch, backend)
        for i, (_, t, _) in enumerate(instances):
            got = ot.tree_distance_matrix(t)
            ref = [reference_tree_distance(t, x, y) for x, y in zip(*all_pairs(t.n))]
            assert got.shape == (t.n, t.n), i
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in ref], i
            dense = dfs_tree_distance_matrix(t)
            assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

    def test_flows_match_the_lockstep_climb_bit_for_bit(self, backend, instances, runs):
        for i, ((_, t, plan), (_, flow, _)) in enumerate(zip(instances, runs[backend])):
            up, down = lockstep_plan_to_flow(plan, t)
            assert flow.tobytes() == np.concatenate([up, down]).tobytes(), i
        assert sum(np.count_nonzero(p.rows != p.cols) for _, _, p in instances) >= 200


@pytest.mark.parametrize("backend", BACKENDS)
class TestPairDistances:
    def test_distances_match_full_dijkstra_bit_for_bit(self, backend, instances, runs):
        # relaxation keeps only strictly shorter sums, so every Dijkstra that
        # adds d(u) + w in the same way lands on the same floats
        for i, ((g, _, _), (_, _, dist)) in enumerate(zip(instances, runs[backend])):
            assert dist.tobytes() == dijkstra_all_pairs(g).ravel().tobytes(), i

    def test_distances_match_floyd_warshall(self, backend, instances, runs):
        for i, ((g, _, _), (_, _, dist)) in enumerate(zip(instances, runs[backend])):
            dense = floyd_warshall(g).ravel()
            assert np.all(np.abs(dist - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

    def test_all_pairs_shortest_paths_is_the_kernel_over_every_pair(self, backend, instances,
                                                                     monkeypatch):
        use_backend(monkeypatch, backend)
        for i, (g, _, _) in enumerate(instances):
            got = ot.all_pairs_shortest_paths(g)
            assert got.shape == (g.n, g.n) and not got.flags.writeable, i
            assert got.tobytes() == dijkstra_all_pairs(g).tobytes(), i
            dense = floyd_warshall(g)
            assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

    def test_pairs_in_any_order_and_repeated(self, backend, instances):
        k = _kernels._LOADERS[backend]()
        rng = np.random.default_rng(3)
        for g, _, _ in instances:
            xs, ys = (rng.integers(0, g.n, size=3 * g.n) for _ in range(2))
            got = k.pair_distances(g, xs, ys)
            assert got.tobytes() == dijkstra_all_pairs(g)[xs, ys].tobytes()


def kernel_errors(backend):
    """``(type, message)`` of what each malformed call raises on ``backend``,
    building the malformed trees and graphs included."""
    k = _kernels._LOADERS[backend]()
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    pair = np.array([0], dtype=np.int64)
    bad = [np.array([v], dtype=np.int64) for v in (-1, 9)]
    calls = [(k.tree_pairs, t, b, pair, None) for b in bad]
    calls += [(k.tree_pairs, t, pair, b, np.ones(1)) for b in bad]
    calls += [(k.pair_distances, g, b, pair) for b in bad]
    calls += [(k.pair_distances, g, pair, b) for b in bad]

    def walk(parent):
        tree = RootedTree(0, np.array(parent, dtype=np.int64), np.ones(len(parent)))
        return k.tree_pairs(tree, pair, np.array([1], dtype=np.int64), None)

    def paths(indptr, indices, weights, ys):
        graph = ot.WeightedGraph(n=len(indptr) - 1, indptr=np.array(indptr, dtype=np.int64),
                                 indices=np.array(indices, dtype=np.int64),
                                 weights=np.array(weights, dtype=np.float64))
        return k.pair_distances(graph, pair, np.array(ys, dtype=np.int64))

    # two roots: the walk from 0 to 1 would meet no common ancestor
    calls.append((walk, [-1, -1]))
    # a cycle above vertex 1 that never reaches the root 0
    calls.append((walk, [-1, 2, 1]))
    # a negative weight, refused when the graph is built; a CSR whose vertex 1
    # has no arc; indices out of range
    calls.append((paths, g.indptr, g.indices, -g.weights, pair))
    calls.append((paths, [0, 1, 1], [0], [1.0], [1]))
    calls.append((paths, g.indptr, g.indices + 9, g.weights, pair))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "kernels", lambda: k)
        return [raised(call[0], *call[1:]) for call in calls]


def test_bad_pairs_and_graphs_raise_alike_on_every_backend():
    expected = kernel_errors("python")
    assert all(e is not None for e in expected)
    kinds = [kind.__name__ for kind, _ in expected]
    assert kinds == (["VertexRangeError"] * 8 + ["NotSpanningError"] * 2
                     + ["NonPositiveWeightError"] + ["ValueError"] * 2)
    assert "not a tree rooted at 0" in expected[8][1] and "zero or negative" in expected[10][1]
    assert "self-loop" in expected[11][1]
    for backend in compiled_backends():
        assert kernel_errors(backend) == expected


def test_tree_distance_and_pair_distances_reject_a_vertex_out_of_range():
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    with pytest.raises(VertexRangeError):
        ot.tree_distance(t, -1, 0)
    with pytest.raises(VertexRangeError):
        ot.pair_distances(g, [0, 1], [9, 0])
    with pytest.raises(VertexRangeError):
        ot.pair_distances(g, [0, 1], [0])


def test_tree_distance_and_pair_distances_reject_a_non_integer_index():
    # a float or bool index is refused, not truncated or read as 0 and 1
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    for xs, ys in (([0.9], [2]), ([0], [2.5]), ([True], [2]), (np.array([0.0, 1.0]), [2, 3])):
        with pytest.raises(VertexRangeError, match="integers"):
            ot.pair_distances(g, xs, ys)
        with pytest.raises(VertexRangeError, match="integers"):
            ot.tree_distance(t, xs, ys)
    for x, y in ((0.9, 2.5), (True, 2), (0, np.float64(2.0))):
        with pytest.raises(VertexRangeError, match="integers"):
            ot.tree_distance(t, x, y)
    # unsigned and empty index arrays still work
    assert ot.pair_distances(g, np.array([0], dtype=np.uint8), [2]).tolist() == [2 / 9]
    assert ot.pair_distances(g, [], []).shape == (0,)
    assert ot.tree_distance(t, [], []).shape == (0,)
