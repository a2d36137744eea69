import dataclasses

import numpy as np
import pytest

import treeot as ot
from treeot.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    GraphError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    SelfLoopError,
    VertexRangeError,
)

from conftest import (
    brute_force_geodesic_edges,
    dijkstra_all_pairs,
    raised,
    random_connected_graph,
    reference_build_graph,
)

NAN, INF = float("nan"), float("inf")
LINE4 = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]


def geodesic_edges(g: ot.WeightedGraph, tol: float = 1e-12) -> set[tuple[int, int]]:
    """Edges lying on at least one shortest path, from ``pair_distances`` at
    the edges' ends: by the triangle inequality, edge {x,y} is on a shortest
    path exactly when w(x,y) <= d(x,y)."""
    ends = np.array([(u, v) for u, v, _ in g.edges], dtype=np.int64).reshape(-1, 2)
    dist = ot.pair_distances(g, ends[:, 0], ends[:, 1])
    return {(u, v) for (u, v, w), d in zip(g.edges, dist.tolist()) if w - d <= tol}


# (n, rows, error): each breaks build_graph's checks, some in several rows, so
# the first bad row in input order must name the error, with this type; a row
# that is not three fields is a GraphError, a float or bool end a
# VertexRangeError and a weight that is not a real number a NonFiniteWeightError
MALFORMED_EDGE_LISTS = {
    "n-zero": (0, [], VertexRangeError),
    "n-negative": (-3, LINE4, VertexRangeError),
    "endpoint-n": (4, [(0, 1, 1.0), (1, 4, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-negative": (4, [(0, 1, 1.0), (-1, 2, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-beyond-int64": (4, [(0, 1, 1.0), (2**70, 2, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-beyond-float": (4, [(0, 1, 1.0), (1, -10**400, 1.0), (2, 3, 1.0)], VertexRangeError),
    "self-loop": (4, [(0, 1, 1.0), (2, 2, 1.0), (2, 3, 1.0)], SelfLoopError),
    "weight-nan": (4, [(0, 1, 1.0), (1, 2, NAN), (2, 3, 1.0)], NonFiniteWeightError),
    "weight-inf": (4, [(0, 1, INF), (1, 2, 1.0), (2, 3, 1.0)], NonFiniteWeightError),
    "weight-minus-inf": (4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, -INF)], NonFiniteWeightError),
    "weight-zero": (4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], NonPositiveWeightError),
    "weight-minus-zero": (4, [(0, 1, 1.0), (1, 2, -0.0), (2, 3, 1.0)], NonPositiveWeightError),
    "weight-negative": (4, [(0, 1, 1.0), (1, 2, -2), (2, 3, 1.0)], NonPositiveWeightError),
    "weight-beyond-float": (4, [(0, 1, 1.0), (1, 2, 10**400), (2, 3, 1.0)], NonFiniteWeightError),
    "weight-text": (4, [(0, 1, 1.0), (1, 2, "heavy"), (2, 3, 1.0)], NonFiniteWeightError),
    "weight-none": (4, [(0, 1, 1.0), (1, 2, None), (2, 3, 1.0)], NonFiniteWeightError),
    "duplicate-same-way": (4, [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (2, 3, 1.0)],
                           DuplicateEdgeError),
    "duplicate-reversed": (4, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)],
                           DuplicateEdgeError),
    "duplicate-of-bool-row": (4, [(True, 2, 1.0), (2.9, 1, 1.0), (2, 3, 1.0), (0, 1, 1.0)],
                              VertexRangeError),
    "endpoint-float-nan": (4, [(0, 1, 1.0), (NAN, 2, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-float-inf": (4, [(0, 1, 1.0), (1, INF, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-float-out": (4, [(0, 1, 1.0), (1, 4.5, 1.0), (2, 3, 1.0)], VertexRangeError),
    "endpoint-none": (4, [(0, 1, 1.0), (None, 2, 1.0), (2, 3, 1.0)], VertexRangeError),
    "short-row": (4, [(0, 1, 1.0), (1, 2), (2, 3, 1.0)], GraphError),
    "long-row": (4, [(0, 1, 1.0), (1, 2, 1.0, 7), (2, 3, 1.0)], GraphError),
    "all-rows-short": (4, [(0, 1), (1, 2), (2, 3)], GraphError),
    "row-not-iterable": (4, [(0, 1, 1.0), 5, (2, 3, 1.0)], GraphError),
    "range-before-short": (4, [(0, 9, 1.0), (1, 2), (2, 3, 1.0)], VertexRangeError),
    "short-before-range": (4, [(1, 2), (0, 9, 1.0), (2, 3, 1.0)], GraphError),
    "duplicate-before-loop": (4, [(0, 1, 1.0), (1, 0, 1.0), (3, 3, 1.0)], DuplicateEdgeError),
    "loop-before-duplicate": (4, [(0, 1, 1.0), (3, 3, 1.0), (1, 0, 1.0)], SelfLoopError),
    "weight-before-duplicate": (4, [(0, 1, 1.0), (1, 2, 0.0), (1, 0, 1.0)], NonPositiveWeightError),
    "range-and-weight-in-one-row": (4, [(0, 1, 1.0), (7, 2, NAN)], VertexRangeError),
    "unreadable-weight-out-of-range": (4, [(0, 1, 1.0), (7, 2, "x")], NonFiniteWeightError),
    "bad-key-collides-later": (4, [(0, 1, 1.0), (-1, 5, 1.0), (1, 0, 1.0)], VertexRangeError),
    "disconnected": (5, LINE4, DisconnectedError),
    "no-edges": (3, [], DisconnectedError),
    "bool-and-float-ends": (4, [(True, 0, 1.0), (2.9, 1, 1), (2, 3.5, 0.25)], VertexRangeError),
    "float-array": (4, np.array(LINE4), VertexRangeError),
}


def valid_edge_lists():
    """Valid inputs of every form build_graph reads: tuples and lists, numpy
    endpoints and weights, integer weights and (E, 3) integer arrays."""
    rng = np.random.default_rng(23)
    cases = [(1, []), (2, [(0, 1, 1)]), (np.int32(2), [(np.uint8(0), 1, np.float32(0.5))]),
             (4, [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2]]), (4, [(0, 1, 10**30), (1, 2, 0.5), (2, 3, 2)]),
             (4, np.array([(0, 1, 3), (1, 2, 1), (3, 2, 2)])), (64, ot.grid_graph(8).edges)]
    for _ in range(60):
        n = int(rng.integers(1, 40))
        base = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n + 1)) * (n > 1)).edges
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                 for u, v, w in (base[i] for i in rng.permutation(len(base)))]
        cases.append((n, edges))
        cases.append((n, [(np.int64(u), np.int32(v), np.float64(w)) for u, v, w in edges]))
    return cases


class TestBuildGraph:
    def test_smallest_connected_graph(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        assert g.n == 2 and g.edge_count == 1
        assert g.edge_weight(1, 0) == 1.0

    def test_grid_7x7_edge_count_and_weight(self):
        g = ot.grid_graph(7)
        assert g.n == 49
        assert g.edge_count == 2 * 7 * 6  # 2*p*(p-1)
        assert all(w == 1 / 49 for _, _, w in g.edges)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            ot.build_graph(3, [(0, 1, 1.0)])

    def test_direct_construction_checks_connectivity(self):
        # a Wilson walk from vertex 0 or 1 never reaches a root drawn at 2
        with pytest.raises(DisconnectedError, match="not connected"):
            ot.WeightedGraph(n=3, indptr=np.array([0, 1, 2, 2]), indices=np.array([1, 0]),
                             weights=np.array([1.0, 1.0]))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            ot.build_graph(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            ot.build_graph(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(NonFiniteWeightError):
            ot.build_graph(2, [(0, 1, w)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            ot.build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            ot.build_graph(2, [(0, 2, 1.0)])

    def test_csr_matches_sorted_adjacency_lists(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            base = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n + 1)) * (n > 1)).edges
            edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                     for u, v, w in (base[i] for i in rng.permutation(len(base)))]
            g = ot.build_graph(n, edges)
            adjacency = [[] for _ in range(n)]
            for u, v, w in edges:
                adjacency[u].append((v, w))
                adjacency[v].append((u, w))
            arcs = [arc for nbs in adjacency for arc in sorted(nbs)]
            assert g.edges == tuple(sorted((min(u, v), max(u, v), w) for u, v, w in edges))
            assert g.indptr.dtype == g.indices.dtype == np.int64 and g.weights.dtype == np.float64
            assert g.indptr.tolist() == np.cumsum([0] + [len(nbs) for nbs in adjacency]).tolist()
            assert g.indices.tolist() == [v for v, _ in arcs]
            assert g.weights.tolist() == [w for _, w in arcs]

    @pytest.mark.parametrize("name", MALFORMED_EDGE_LISTS)
    def test_malformed_rows_raise_as_the_row_loop(self, name):
        n, rows, error = MALFORMED_EDGE_LISTS[name]
        expected = raised(reference_build_graph, n, rows)
        assert expected is not None and expected[0] is error
        assert raised(ot.build_graph, n, rows) == expected

    def test_valid_edge_lists_build_what_the_row_loop_built(self):
        for n, rows in valid_edge_lists():
            g, ref = ot.build_graph(n, rows), reference_build_graph(n, rows)
            assert g.n == ref.n and g.edges == ref.edges
            assert all(type(x) is t for e in g.edges for x, t in zip(e, (int, int, float)))
            for name in ("indptr", "indices", "weights"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable

    def test_grid_edges_in_vertex_order(self):
        for p in (2, 3, 8):
            edges = []
            for i in range(p):
                for j in range(p):
                    v = i * p + j
                    edges += [(v, v + 1, 1 / p**2)] * (j + 1 < p) + [(v, v + p, 1 / p**2)] * (i + 1 < p)
            assert ot.grid_graph(p).edges == tuple(edges)
        assert ot.grid_graph(3, weight=2).edges[0] == (0, 1, 2.0)

    def test_edge_weight_missing(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(EdgeNotInGraphError):
            g.edge_weight(0, 2)


#: hand-built CSRs of graphs the paper's ground cost cannot have, and what
#: building each raises: (error, n, indptr, indices, weights)
BAD_CSRS = {
    # vertex 0 lists arc 0 -> 1 twice, and vertex 1 its reverse twice
    "parallel-arcs": (ValueError, 3, [0, 2, 5, 6], [1, 1, 0, 0, 2, 1], [1.0] * 6),
    "asymmetric": (ValueError, 2, [0, 1, 2], [1, 0], [1.0, 3.0]),
    "nan": (NonFiniteWeightError, 2, [0, 1, 2], [1, 0], [NAN, -1.0]),
    "negative": (NonPositiveWeightError, 2, [0, 1, 2], [1, 0], [-1.0, -1.0]),
}


def csr_graph(n, indptr, indices, weights) -> ot.WeightedGraph:
    return ot.WeightedGraph(n, np.array(indptr, dtype=np.int64),
                            np.array(indices, dtype=np.int64), np.array(weights, dtype=np.float64))


class TestProvenCsr:
    def test_a_graph_is_its_csr(self):
        assert [f.name for f in dataclasses.fields(ot.WeightedGraph)] == [
            "n", "indptr", "indices", "weights"]
        g = ot.build_graph(4, [(2, 3, 0.5), (1, 0, 2.0), (0, 2, 1.0)])
        assert g.edges == ((0, 1, 2.0), (0, 2, 1.0), (2, 3, 0.5)) and g.edge_count == 3
        assert g.has_edge(3, 2) and not g.has_edge(1, 2) and not g.has_edge(0, 4)
        assert not g.has_edge(-1, 0) and not g.has_edge(10**30, 0)
        assert g.edge_weight(1, 0) == 2.0 and type(g.edge_weight(1, 0)) is float
        assert g.arc_index([0, 1, 3, 3], [1, 0, 2, 1]).tolist() == [0, 2, 5, -1]

    @pytest.mark.parametrize("name", BAD_CSRS)
    def test_parallel_arcs_and_bad_weights_are_refused(self, backend, name):
        error, *csr = BAD_CSRS[name]
        with pytest.raises(error):
            csr_graph(*csr)

    def test_an_unsorted_row_is_refused(self):
        with pytest.raises(ValueError, match="unsorted"):
            csr_graph(3, [0, 2, 3, 4], [2, 1, 0, 0], [1.0] * 4)

    def test_root_tree_prices_the_arcs_that_solve_walks(self, backend):
        g = csr_graph(2, [0, 1, 2], [1, 0], [1.0, 1.0])
        t = ot.root_tree(g, [(0, 1)], 0)
        mu, nu = [1.0, 0.0], [0.0, 1.0]
        assert ot.tree_k_distance(t, mu, nu) == ot.solve(g, mu, nu).value == 1.0


class TestShortestPaths:
    def test_path_graph_concatenates(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        assert d[0, 2] == 2.0

    def test_zero_diagonal_and_symmetry(self):
        g = ot.grid_graph(4)
        d = ot.all_pairs_shortest_paths(g)
        assert np.all(np.diag(d) == 0.0)
        assert np.max(np.abs(d - d.T)) <= 1e-12

    def test_heavy_edge_bypassed_on_cycle(self):
        # 4-cycle with weights 1,1,1,10: endpoints of the heavy edge at distance 3
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        d = ot.all_pairs_shortest_paths(g)
        assert d[3, 0] == 3.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 12, extra_edges=6)
        d = ot.all_pairs_shortest_paths(g)
        assert (d[:, :, None] <= d[:, None, :] + d[None, :, :] + 1e-12).all()

    def test_matches_dijkstra_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 12)))
            d = ot.all_pairs_shortest_paths(g)
            assert np.max(np.abs(d - dijkstra_all_pairs(g))) <= 1e-12

    def test_edge_weight_on_geodesic_edges(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 10, extra_edges=5)
        d = ot.all_pairs_shortest_paths(g)
        for u, v in geodesic_edges(g):
            assert abs(d[u, v] - g.edge_weight(u, v)) <= 1e-12


class TestGeodesicEdges:
    """Edges on shortest paths, found from ``pair_distances`` at their ends."""

    def test_tree_input_all_edges(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 2.0)])
        assert geodesic_edges(g) == {(0, 1), (1, 2), (1, 3)}

    def test_heavy_cycle_edge_excluded(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        assert geodesic_edges(g) == {(0, 1), (1, 2), (2, 3)}

    def test_complete_graph_unit_weights(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert geodesic_edges(g) == {(0, 1), (0, 2), (1, 2)}

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), extra_edges=3)
            assert geodesic_edges(g) == brute_force_geodesic_edges(g)

    def test_contains_spanning_connected_subgraph(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            g = random_connected_graph(rng, 15, extra_edges=8)
            kept = geodesic_edges(g)
            sub = ot.build_graph(g.n, [(u, v, g.edge_weight(u, v)) for u, v in kept])
            assert sub.n == g.n  # build_graph verifies connectivity
