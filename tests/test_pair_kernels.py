"""The tree-pair walk (``_kernels.tree_pairs``) and the support-pair Dijkstra
(``_kernels.pair_distances``): bit-identical on every kernel backend, equal
to independent test-side references, and bounds-checked alike on each
backend."""

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import VertexRangeError

from conftest import (
    compiled_backends,
    dijkstra_all_pairs,
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
                k.tree_pairs(t.parent, t.depth, t.weight_to_parent, xs, ys, None),
                k.tree_pairs(t.parent, t.depth, t.weight_to_parent, plan.rows, plan.cols, plan.mass),
                k.pair_distances(g.indptr, g.indices, g.weights, xs, ys),
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
            dense = ot.tree_distance_matrix(t).ravel()
            assert np.all(np.abs(dist - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

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
            dense = ot.all_pairs_shortest_paths(g).ravel()
            assert np.all(np.abs(dist - dense) <= 1e-12 * np.maximum(dense, 1.0)), i

    def test_pairs_in_any_order_and_repeated(self, backend, instances):
        k = _kernels._LOADERS[backend]()
        rng = np.random.default_rng(3)
        for g, _, _ in instances:
            xs, ys = (rng.integers(0, g.n, size=3 * g.n) for _ in range(2))
            got = k.pair_distances(g.indptr, g.indices, g.weights, xs, ys)
            assert got.tobytes() == dijkstra_all_pairs(g)[xs, ys].tobytes()


def kernel_errors(backend):
    """``(type, message)`` of what each malformed call raises on ``backend``."""
    k = _kernels._LOADERS[backend]()
    g = ot.grid_graph(3)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    walk = (t.parent, t.depth, t.weight_to_parent)
    csr = (g.indptr, g.indices, g.weights)
    pair = np.array([0], dtype=np.int64)
    bad = [np.array([v], dtype=np.int64) for v in (-1, 9)]
    calls = [(k.tree_pairs, *walk, b, pair, None) for b in bad]
    calls += [(k.tree_pairs, *walk, pair, b, np.ones(1)) for b in bad]
    calls += [(k.pair_distances, *csr, b, pair) for b in bad]
    calls += [(k.pair_distances, *csr, pair, b) for b in bad]
    # two roots: the walk from 0 to 1 meets no common ancestor
    two_roots = np.array([-1, -1], dtype=np.int64)
    calls.append((k.tree_pairs, two_roots, np.zeros(2, dtype=np.int64), np.ones(2),
                  pair, np.array([1], dtype=np.int64), None))
    # a cycle above vertex 1 that never reaches the root 0
    cycle = np.array([-1, 2, 1], dtype=np.int64)
    calls.append((k.tree_pairs, cycle, np.array([0, 1, 1], dtype=np.int64), np.ones(3),
                  pair, np.array([1], dtype=np.int64), None))
    # a negative weight; a CSR whose vertex 1 has no arc; indices out of range
    one_arc = (np.array([0, 1, 1], dtype=np.int64), np.array([0], dtype=np.int64))
    calls.append((k.pair_distances, g.indptr, g.indices, -g.weights, pair, pair))
    calls.append((k.pair_distances, *one_arc, np.ones(1), pair, np.array([1], dtype=np.int64)))
    calls.append((k.pair_distances, g.indptr, g.indices + 9, g.weights, pair, pair))
    return [raised(call[0], *call[1:]) for call in calls]


def test_bad_pairs_and_graphs_raise_alike_on_every_backend():
    expected = kernel_errors("python")
    assert all(e is not None for e in expected)
    kinds = [kind.__name__ for kind, _ in expected]
    assert kinds == ["VertexRangeError"] * 8 + ["NotSpanningError"] * 2 + ["ValueError"] * 3
    assert "does not meet" in expected[8][1] and "negative or not finite" in expected[10][1]
    assert "cannot be reached" in expected[11][1]
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
