import hashlib
import itertools
import json
import pickle

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import (
    MassMismatchError,
    NegativeMassError,
    NonFiniteWeightError,
    NonPositiveWeightError,
    NotSpanningError,
    VertexRangeError,
)
from treeot.oracle import (
    VALUE_TOL,
    _has_cycle,
    complementary_violation,
    geodesic_support_violation,
    lipschitz_violation,
)

from conftest import (
    brute_force_weak_nondegeneracy,
    compiled_backends,
    degenerate_measures,
    dfs_tree_distance_matrix,
    line_graph,
    network_simplex_w1,
    noisy_grid_measures,
    random_connected_graph,
    random_measure_pair,
    random_tree_graph,
    raised,
    reference_cyclically_monotone,
    reference_dual_range,
    run_python,
    successive_shortest_paths,
)


class TestExactSolver:
    def test_equal_measures(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = ot.exact_k_distance(d, [0.5, 0.5], [0.5, 0.5])
        assert sol.value == 0.0
        assert np.all(sol.plan.rows == sol.plan.cols)

    def test_dirac_line(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        sol = ot.exact_k_distance(d, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert abs(sol.value - 2.0) <= 1e-12

    def test_line6_value(self, line6):
        g, mu, nu = line6
        d = ot.all_pairs_shortest_paths(g)
        sol = ot.exact_k_distance(d, mu, nu)
        assert abs(sol.value - 0.75) <= 1e-9

    def test_a_nested_list_is_the_array(self, line6):
        g, mu, nu = line6
        d = ot.all_pairs_shortest_paths(g)
        assert (solution_bits(ot.exact_k_distance(d.tolist(), mu, nu))
                == solution_bits(ot.exact_k_distance(d, mu, nu)))
        with pytest.raises(VertexRangeError, match="must be square"):
            ot.exact_k_distance(d.tolist()[:-1], mu, nu)

    def test_no_vertex_cap(self):
        # 1,024 vertices, with both measures on a few of them so that the
        # bipartite network stays small: the value is solve's
        g = ot.grid_graph(32)
        mu, nu = np.zeros(g.n), np.zeros(g.n)
        mu[[0, 37, 500, 1023]] = [0.1, 0.2, 0.3, 0.4]
        nu[[31, 300, 777, 992, 37]] = [0.25, 0.15, 0.3, 0.2, 0.1]
        sol = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu)
        expected = ot.solve(g, mu, nu).value
        assert abs(sol.value - expected) <= 1e-12 * expected

    def test_strong_duality_and_feasibility(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 14))
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 6)))
            d = ot.all_pairs_shortest_paths(g)
            mu, nu = random_measure_pair(rng, n)
            sol = ot.exact_k_distance(d, mu, nu)
            assert abs(ot.plan_cost(sol.plan, d) - sol.value) <= 1e-9
            assert np.max(np.abs(sol.plan.row_sums() - mu)) <= 1e-9
            assert np.max(np.abs(sol.plan.col_sums() - nu)) <= 1e-9
            assert abs(np.dot(sol.dual.values, mu - nu) - sol.value) <= 1e-9
            assert lipschitz_violation(sol.dual, g) <= 1e-9
            assert complementary_violation(sol.plan, sol.dual, d) <= 1e-9
            assert sol.dual.values[0] == 0.0

    def test_plan_is_basic_with_max_diagonal(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            g = random_connected_graph(rng, n, extra_edges=3)
            d = ot.all_pairs_shortest_paths(g)
            mu, nu = random_measure_pair(rng, n)
            sol = ot.exact_k_distance(d, mu, nu)
            assert ot.check_vertex_support(sol.plan)["is_forest"]
            assert np.max(np.abs(sol.plan.diagonal() - np.minimum(mu, nu))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_raises(self, bad):
        d = ot.all_pairs_shortest_paths(ot.grid_graph(3)).copy()
        d[2, 5] = bad
        with pytest.raises(NonFiniteWeightError, match=r"\(2,5\)"):
            ot.exact_k_distance(d, np.full(9, 1 / 9), np.eye(9)[0])

    def test_negative_distance_raises(self):
        d = ot.all_pairs_shortest_paths(ot.grid_graph(3)).copy()
        d[0, 1] = d[1, 0] = -1.0
        with pytest.raises(NonPositiveWeightError, match=r"\(0,1\) is -1\.0"):
            ot.exact_k_distance(d, np.full(9, 1 / 9), np.eye(9)[0])

    def test_tree_ground_cost_matches_closed_form(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            sol = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu)
            assert abs(sol.value - ot.tree_k_distance(t, mu, nu)) <= 1e-9

    def test_spanning_tree_support_under_nondegeneracy(self):
        rng = np.random.default_rng(58)
        hits = 0
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n, extra_edges=2)
            mu, nu = random_measure_pair(rng, n)
            if not ot.check_weak_nondegeneracy(mu, nu, g):
                continue
            hits += 1
            sol = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu)
            assert ot.check_vertex_support(sol.plan)["is_spanning_tree_up_to_loops"]
        assert hits >= 15


def cross_check_instance(rng, kind):
    """A random connected graph on 2..30 vertices and a measure pair.

    kind 0: uniform weights, positive masses; 1: integer weights 1..3 (many
    tied distances) and integer masses 0..3 (zero-mass vertices); 2: as 1 with a
    single source; 3: as 1 with a single sink.
    """
    n = int(rng.integers(2, 31))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((a, b))
    if kind == 0:
        g = ot.build_graph(n, [(a, b, float(rng.uniform(0.05, 1.0))) for a, b in sorted(pairs)])
        return g, *random_measure_pair(rng, n)
    g = ot.build_graph(n, [(a, b, float(rng.integers(1, 4))) for a, b in sorted(pairs)])
    mu = rng.integers(0, 4, n).astype(float)
    nu = rng.integers(0, 4, n).astype(float)
    v = int(rng.integers(0, n))
    mu[v] += 1.0  # neither measure is empty
    nu[(v + 1) % n] += 1.0
    if kind >= 2:
        nu[v] = 0.0
        mu = np.zeros(n)
        mu[v] = 1.0
        if kind == 3:
            mu, nu = nu, mu
    return g, mu / mu.sum(), nu / nu.sum()


class TestExactSolverCrossCheck:
    def test_matches_network_simplex(self):
        pytest.importorskip("networkx")
        seen = {"zero_mass": 0, "single_source": 0, "single_sink": 0}
        for k in range(120):
            g, mu, nu = cross_check_instance(np.random.default_rng(900 + k), k % 4)
            d = ot.all_pairs_shortest_paths(g)
            sol = ot.exact_k_distance(d, mu, nu)
            xi = mu - nu
            seen["zero_mass"] += bool(np.any(mu == 0.0) or np.any(nu == 0.0))
            seen["single_source"] += int(np.count_nonzero(xi > 0.0) == 1)
            seen["single_sink"] += int(np.count_nonzero(xi < 0.0) == 1)
            w1 = network_simplex_w1(g, mu, nu)
            assert abs(sol.value - w1) <= 1e-9, k
            assert abs(ot.solve(g, mu, nu).value - w1) <= 1e-9, k
            assert ot.check_vertex_support(sol.plan)["is_forest"], k
            assert np.max(np.abs(sol.plan.diagonal() - np.minimum(mu, nu))) <= 1e-12, k
            assert lipschitz_violation(sol.dual, g) <= 1e-9, k
            assert complementary_violation(sol.plan, sol.dual, d) <= 1e-9, k
        assert all(count >= 30 for count in seen.values()), seen

    def test_bad_arc_cost_and_unmet_supply_raise_on_every_backend(self, flow_parity_runs):
        reference, run = flow_parity_runs
        assert reference["errors"] == ["RuntimeError: an arc cost is negative or not finite"] * 3 + [
            "RuntimeError: the supplies cannot be met on these arcs"]
        for backend in BACKENDS:
            assert run(backend)["errors"] == reference["errors"], backend


def failing_inputs():
    """Kernel inputs that fail: an infinite, a NaN and a negative arc cost,
    then a sink with no arc into it."""
    supply = np.array([0.5, 0.5, -0.5, -0.5])
    tail = np.array([0, 0, 1, 1], dtype=np.int64)
    head = np.array([2, 3, 2, 3], dtype=np.int64)
    cases = [(supply, tail, head, np.array([1.0, 2.0, bad, 1.0])) for bad in (np.inf, np.nan, -1.0)]
    return cases + [(supply, tail, np.array([2, 2, 2, 2], dtype=np.int64), np.ones(4))]


def exact_parity_corpus():
    """Distance matrices and measure pairs whose exact solve exercises the
    kernel's tie-breaking: unit lattices with integer masses (tied distances
    and tied reduced costs, zero-mass vertices), mu = nu on a subset,
    single-source and single-sink instances, random graphs with random
    masses, and four noisy 10x10 lattice instances (more than 2000 arcs, so
    pricing runs over many blocks)."""
    rng = np.random.default_rng(4242)
    for k in range(48):
        p = 3 + k % 4
        n = p * p
        mu = rng.integers(0, 4, n).astype(float)
        nu = rng.integers(0, 4, n).astype(float)
        mu[0] += 1.0
        nu[-1] += 1.0
        if k % 3 == 1:  # mu = nu on a random subset, totals balanced outside it
            same = rng.random(n) < 0.5
            same[0] = same[-1] = False
            nu[same] = mu[same]
        gap = mu.sum() - nu.sum()
        if gap > 0:
            nu[-1] += gap
        else:
            mu[0] -= gap
        yield ot.all_pairs_shortest_paths(ot.grid_graph(p, weight=1.0)), mu / mu.sum(), nu / nu.sum()
    for k in range(40):
        g, mu, nu = cross_check_instance(np.random.default_rng(5100 + k), k % 4)
        yield ot.all_pairs_shortest_paths(g), mu, nu
    for seed in range(4):
        mu, nu = noisy_grid_measures(10, seed)
        yield ot.all_pairs_shortest_paths(ot.grid_graph(10)), mu, nu


def degenerate_corpus():
    """40 unit 6x6 lattices with integer masses and mu == nu on random
    subsets: zero cumulative imbalances and tied reduced costs everywhere."""
    dist = ot.all_pairs_shortest_paths(ot.grid_graph(6, weight=1.0))
    rng = np.random.default_rng(4343)
    for _ in range(40):
        yield dist, *degenerate_measures(rng, 36)


def bits(*arrays):
    """Bit-exact fingerprint of float and int arrays."""
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return hashlib.sha256(data).hexdigest()[:20]


def simplex_inputs(dist, mu, nu):
    """The kernel's inputs for this instance, as ``exact_k_distance`` makes them."""
    xi = mu - nu
    srcs, snks = np.flatnonzero(xi > 0.0), np.flatnonzero(xi < 0.0)
    ns, nd = srcs.size, snks.size
    return (np.concatenate([xi[srcs], xi[snks]]), np.repeat(np.arange(ns), nd),
            np.tile(np.arange(ns, ns + nd), ns), np.ascontiguousarray(dist[np.ix_(srcs, snks)]).ravel())


def simplex_bits(flow, pi, pivots):
    return bits(flow, pi, np.array([pivots]))


def solution_bits(sol):
    return bits(np.array([sol.value]), sol.plan.rows, sol.plan.cols, sol.plan.mass,
                sol.dual.values, np.array([sol.pivots]))


def errors(simplex):
    """``"Type: message"`` of what ``simplex`` raises on each failing input."""
    return [f"{kind.__name__}: {message}"
            for kind, message in (raised(simplex, *args) for args in failing_inputs())]


FLOW_PARITY_SCRIPT = """
import json, pickle, sys
import numpy as np
sys.path.insert(0, TESTS_DIR)
import treeot as ot
from treeot import _kernels
from test_oracle import errors, simplex_bits, simplex_inputs, solution_bits
with open(sys.argv[1], "rb") as f:
    corpus = pickle.load(f)
simplex = _kernels.kernels().network_simplex
flows = [simplex_bits(*simplex(*simplex_inputs(d, mu, nu))) for d, mu, nu in corpus]
solutions = [solution_bits(ot.exact_k_distance(d, mu, nu)) for d, mu, nu in corpus]
print(json.dumps({"backend": ot.kernel_backend(), "flows": flows, "solutions": solutions,
                  "errors": errors(simplex)}))
"""

BACKENDS = ["python", *compiled_backends()]


@pytest.fixture(scope="module")
def flow_parity_runs(tmp_path_factory):
    """The plain-Python reference's flow and solution fingerprints and
    errors, and a function that runs the parity script on a backend (once
    per backend) and returns its output."""
    corpus = list(exact_parity_corpus())
    path = tmp_path_factory.mktemp("flow-parity") / "corpus.pickle"
    path.write_bytes(pickle.dumps(corpus))
    simplex = _kernels._load_python().network_simplex
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "kernels", _kernels._load_python)
        solutions = [solution_bits(ot.exact_k_distance(d, mu, nu)) for d, mu, nu in corpus]
    reference = {
        "flows": [simplex_bits(*simplex(*simplex_inputs(d, mu, nu))) for d, mu, nu in corpus],
        "solutions": solutions,
        "errors": errors(simplex),
    }
    runs = {}

    def run(backend):
        if backend not in runs:
            proc = run_python(FLOW_PARITY_SCRIPT, backend, argv=[str(path)])
            assert proc.returncode == 0, proc.stderr
            runs[backend] = json.loads(proc.stdout)
            assert runs[backend]["backend"] == backend
        return runs[backend]

    return reference, run


class TestFlowKernelParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_flows_and_duals_match_the_reference_bit_for_bit(self, backend, flow_parity_runs):
        reference, run = flow_parity_runs
        flows = run(backend)["flows"]
        assert len(flows) == len(reference["flows"]) == 92
        mismatched = [i for i, (a, b) in enumerate(zip(flows, reference["flows"])) if a != b]
        assert not mismatched, f"{len(mismatched)} flows differ, first at corpus index {mismatched[0]}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solutions_match_the_reference_bit_for_bit(self, backend, flow_parity_runs):
        reference, run = flow_parity_runs
        solutions = run(backend)["solutions"]
        mismatched = [i for i, (a, b) in enumerate(zip(solutions, reference["solutions"])) if a != b]
        assert not mismatched, f"{len(mismatched)} solutions differ, first at corpus index {mismatched[0]}"

    def test_corpus_has_ties_and_degenerate_cases(self):
        seen = {"zero_mass": 0, "equal_on_subset": 0, "single_source": 0, "single_sink": 0}
        for _, mu, nu in exact_parity_corpus():
            xi = mu - nu
            seen["zero_mass"] += bool(np.any(mu == 0.0) or np.any(nu == 0.0))
            seen["equal_on_subset"] += int(np.count_nonzero((mu == nu) & (mu > 0.0)) >= 2)
            seen["single_source"] += int(np.count_nonzero(xi > 0.0) == 1)
            seen["single_sink"] += int(np.count_nonzero(xi < 0.0) == 1)
        assert all(count >= 10 for count in seen.values()), seen

    def test_values_match_successive_shortest_paths(self):
        for k, (d, mu, nu) in enumerate(exact_parity_corpus()):
            xi = mu - nu
            srcs, snks = np.flatnonzero(xi > 0.0), np.flatnonzero(xi < 0.0)
            cost = d[np.ix_(srcs, snks)]
            flow, _, _ = successive_shortest_paths(cost, xi[srcs].copy(), -xi[snks].copy())
            expected = float(np.sum(flow * cost))
            value = ot.exact_k_distance(d, mu, nu).value
            assert abs(value - expected) <= 1e-12 * max(1.0, expected), k

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degenerate_corpus_finishes_basic_and_exact(self, backend, monkeypatch):
        monkeypatch.setattr(_kernels, "kernels", _kernels._LOADERS[backend])
        g = ot.grid_graph(6, weight=1.0)
        for k, (d, mu, nu) in enumerate(degenerate_corpus()):
            sol = ot.exact_k_distance(d, mu, nu)  # raises if the pivot guard is hit
            xi = mu - nu
            srcs, snks = np.flatnonzero(xi > 0.0), np.flatnonzero(xi < 0.0)
            cost = d[np.ix_(srcs, snks)]
            flow, _, _ = successive_shortest_paths(cost, xi[srcs].copy(), -xi[snks].copy())
            expected = float(np.sum(flow * cost))
            assert abs(sol.value - expected) <= 1e-12 * max(1.0, expected), k
            assert ot.check_vertex_support(sol.plan)["is_forest"], k
            assert np.max(np.abs(sol.plan.diagonal() - np.minimum(mu, nu))) <= 1e-12, k
            assert lipschitz_violation(sol.dual, g) <= 1e-12, k
            assert complementary_violation(sol.plan, sol.dual, d) <= 1e-12, k
            assert sol.pivots > 0, k


class TestLipschitzCheck:
    def test_zero_potential(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        u = ot.Potential(np.zeros(2), anchor=0)
        assert lipschitz_violation(u, g) <= VALUE_TOL

    def test_tree_potential_tight(self):
        rng = np.random.default_rng(59)
        g = random_tree_graph(rng, 10)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, 10)
        u = ot.tree_potential(t, mu, nu)
        assert lipschitz_violation(u, g) <= VALUE_TOL
        for v in range(10):
            p = int(t.parent[v])
            if p >= 0:
                assert abs(abs(u.values[v] - u.values[p]) - g.edge_weight(v, p)) <= 1e-12

    def test_violated_edge(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        u = ot.Potential(np.array([0.0, 2.0]), anchor=0)
        assert not lipschitz_violation(u, g) <= VALUE_TOL

    def test_nan_value_propagates(self):
        # max(0.0, nan) is 0.0 in Python; a NaN potential must not pass
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        u = ot.Potential(np.array([0.0, np.nan, -2.0]), anchor=0)
        assert np.isnan(lipschitz_violation(u, g))
        assert not lipschitz_violation(u, g) <= VALUE_TOL

    def test_matches_edge_loop(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            g = random_connected_graph(rng, n, extra_edges=4)
            for scale in (0.0, 0.01, 1.0):  # 0.0 checks the floor at zero
                u = ot.Potential(scale * rng.normal(size=n), anchor=0)
                loop = 0.0
                for a, b, w in g.edges:
                    loop = max(loop, abs(u.values[a] - u.values[b]) - w)
                assert lipschitz_violation(u, g) == loop


@pytest.mark.parametrize("length", [3, 6])
def test_a_potential_of_another_length_is_refused(length):
    g = ot.grid_graph(2)
    t = ot.root_tree(g, [(0, 1), (1, 3), (3, 2)], 0)
    plan = ot.dp_transport_plan(t, [1.0, 0, 0, 0], [0, 0, 0, 1.0])
    u = ot.Potential(np.zeros(length), anchor=0)
    with pytest.raises(VertexRangeError, match=f"potential on {length} vertices, graph on 4"):
        lipschitz_violation(u, g)
    with pytest.raises(VertexRangeError, match=f"potential on {length} vertices, plan on 4"):
        complementary_violation(plan, u, t)
    with pytest.raises(VertexRangeError, match=f"potentials on 4 and {length} vertices"):
        ot.potential_match_up_to_constant(ot.Potential(np.zeros(4), anchor=0), u)


class TestComplementaryCheck:
    def test_diagonal_plan_any_potential(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = ot.make_plan(2, [(0, 0, 0.5), (1, 1, 0.5)])
        u = ot.Potential(np.array([0.0, 0.7]), anchor=0)
        assert complementary_violation(plan, u, d) <= VALUE_TOL

    def test_non_tight_pair_fails(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = ot.make_plan(2, [(0, 1, 0.5), (1, 1, 0.5)])
        u = ot.Potential(np.array([0.0, 0.0]), anchor=0)
        assert not complementary_violation(plan, u, d) <= VALUE_TOL


class TestWeakNondegeneracy:
    def test_equal_measures_false(self):
        assert not ot.check_weak_nondegeneracy([0.5, 0.5], [0.5, 0.5], line_graph(2))

    def test_two_vertices_true(self):
        assert ot.check_weak_nondegeneracy([0.6, 0.4], [0.4, 0.6], line_graph(2))

    def test_graph_of_another_size_rejected(self):
        with pytest.raises(VertexRangeError):
            ot.check_weak_nondegeneracy([0.6, 0.4], [0.4, 0.6], line_graph(3))

    @pytest.mark.parametrize("mu, nu, error", [([1.5, -0.5], [0.5, 0.5], NegativeMassError),
                                               ([1.5, 0.5], [1.0, 1.0], MassMismatchError)])
    def test_what_is_not_a_measure_is_rejected(self, mu, nu, error):
        # balanced pairs that are not measures once passed as non-degenerate
        g = ot.build_graph(2, [(0, 1, 1.0)])
        for pair in ((mu, nu), (nu, mu)):
            with pytest.raises(error):
                ot.check_weak_nondegeneracy(*pair, g)

    def test_line6_degenerate(self, line6):
        g, mu, nu = line6
        assert ot.check_weak_nondegeneracy(mu, nu, g) is False
        assert not brute_force_weak_nondegeneracy(mu, nu)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                mu, nu = random_measure_pair(rng, n)
            else:
                mu, _ = random_measure_pair(rng, n)
                nu = mu.copy()
                if n >= 4:  # balance a strict subset to force degeneracy
                    nu[0], nu[1] = nu[1], nu[0]
            got = ot.check_weak_nondegeneracy(mu, nu, line_graph(n))
            assert got is brute_force_weak_nondegeneracy(mu, nu)

    def test_more_vertices_than_the_scan_takes_raise(self):
        rng = np.random.default_rng(61)
        g = ot.grid_graph(5)
        mu, nu = random_measure_pair(rng, g.n)
        with pytest.raises(ValueError, match="at most 22 vertices, not 25"):
            ot.check_weak_nondegeneracy(mu, nu, graph=g)
        small = ot.grid_graph(4)
        mu, nu = random_measure_pair(rng, small.n)
        assert ot.check_weak_nondegeneracy(mu, nu, graph=small) is True


def simplex_basis_tree(g, mu, nu, rng):
    """An optimal spanning tree of ``g`` for mu and nu: the support of a
    basic optimal flow (the network simplex on the graph's arcs), a forest,
    completed by the other edges in random order and rooted at random."""
    tails = g.arc_tails()
    flow, _, _ = _kernels.kernels().network_simplex(ot.imbalance(mu, nu), tails, g.indices,
                                                    g.weights)
    edges = list(zip(tails[flow > 0.0].tolist(), g.indices[flow > 0.0].tolist()))
    edges += [edges_[k] for edges_ in [[(a, b) for a, b, _ in g.edges]]
              for k in rng.permutation(len(edges_))]
    root_of = list(range(g.n))

    def find(v):
        while root_of[v] != v:
            v = root_of[v]
        return v

    kept = []
    for a, b in edges:
        if find(a) != find(b):
            root_of[find(a)] = find(b)
            kept.append((a, b))
    t = ot.root_tree(g, kept, int(rng.integers(g.n)))
    assert abs(ot.tree_k_distance(t, mu, nu) - float(np.sum(flow * g.weights))) <= 1e-12
    return t


def optimal_tree_corpus(count=120, seed=27):
    """``(g, t, mu, nu)`` on 2x2 to 4x4 lattices, random and
    ``degenerate_measures`` in turn, ``t`` a :func:`simplex_basis_tree`."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        g = ot.grid_graph(2 + i % 3)
        mu, nu = (random_measure_pair if i % 2 else degenerate_measures)(rng, g.n)
        corpus.append((g, simplex_basis_tree(g, mu, nu, rng), mu, nu))
    return corpus


def degenerate_tree_corpus():
    """40 ``(g, t, mu, nu)`` on the 6x6 lattice, ``degenerate_measures`` and
    a :func:`simplex_basis_tree`: the tree formula fails on all 40."""
    rng = np.random.default_rng(7)
    g = ot.grid_graph(6)
    corpus = []
    for _ in range(40):
        mu, nu = degenerate_measures(rng, g.n)
        corpus.append((g, simplex_basis_tree(g, mu, nu, rng), mu, nu))
    return corpus


def assert_certified(g, t, mu, nu):
    """``certified_dual`` finds a potential that is 1-Lipschitz within
    1e-12 of the largest weight and whose duality value is the tree's cost
    within 1e-12, and its verdict is ``reference_dual_range``'s; returns the
    verdict and whether the tree formula was 1-Lipschitz."""
    u, unique = ot.certified_dual(g, t, mu, nu)
    assert lipschitz_violation(u, g) <= 1e-12 * g.weights.max()
    assert abs(float(np.dot(u.values, mu - nu)) - ot.tree_k_distance(t, mu, nu)) <= 1e-12
    low, high = reference_dual_range(g, t, mu, nu)
    spread = max(h - lo for lo, h in zip(low, high))
    assert unique is (spread <= 1e-9), (unique, spread)
    assert all(lo - 1e-9 <= x <= h + 1e-9 for lo, x, h in zip(low, u.values - u.values[0], high))
    formula = ot.tree_potential(t, mu, nu)
    return unique, bool(lipschitz_violation(formula, g) <= 1e-12 * g.weights.max())


class TestDualUnique:
    def test_line6_unique_though_the_condition_fails(self, line6):
        g, mu, nu = line6
        t = ot.root_tree(g, [(i, i + 1) for i in range(5)], 5)
        assert not ot.check_weak_nondegeneracy(mu, nu, g)
        u, unique = ot.certified_dual(g, t, mu, nu)
        assert unique is True
        assert np.array_equal(u.values, ot.tree_potential(t, mu, nu).values) and u.anchor == 5

    def test_equal_measures_not_unique(self):
        # no edge carries flow, so every 1-Lipschitz potential is optimal
        g = line_graph(9)
        t = ot.root_tree(g, [(i, i + 1) for i in range(8)], 4)
        mu = np.full(9, 1 / 9)
        assert ot.certified_dual(g, t, mu, mu)[1] is False

    def test_equal_measures_on_a_lattice(self):
        # every tree is optimal, yet the tree formula exceeds an edge by 2w
        g = ot.grid_graph(3)
        t = ot.random_spanning_tree(g, np.random.default_rng(0))
        mu = np.full(9, 1 / 9)
        assert lipschitz_violation(ot.tree_potential(t, mu, mu), g) > g.weights.max()
        u, unique = ot.certified_dual(g, t, mu, mu)
        assert unique is False
        assert lipschitz_violation(u, g) <= 1e-12 * g.weights.max()
        assert float(np.dot(u.values, mu - mu)) == 0.0
        assert u.anchor == t.root and u.values[t.root] == 0.0

    def test_single_vertex_has_no_constraint(self):
        g = ot.build_graph(1, [])
        u, unique = ot.certified_dual(g, ot.root_tree(g, [], 0), [1.0], [1.0])
        assert unique is True and u.values.tolist() == [0.0]

    def test_uncertified_tree_gives_none(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        t = ot.root_tree(g, [(1, 2), (2, 3), (3, 0)], 0)
        assert ot.certified_dual(g, t, [1.0, 0, 0, 0], [0, 1.0, 0, 0]) is None
        assert ot.certified_dual(g, ot.root_tree(g, [(0, 1), (1, 2), (2, 3)], 0),
                                 [1.0, 0, 0, 0], [0, 1.0, 0, 0])[1] is False

    @pytest.mark.parametrize("mu, nu, error", [
        ([1.5, -0.5, 0, 0], [0, 1.0, 0, 0], NegativeMassError),
        ([2.0, 0, 0, 0], [0, 2.0, 0, 0], MassMismatchError),
    ])
    def test_measures_are_checked_before_the_verdict(self, mu, nu, error):
        # the tree is not optimal for either pair; the measures raise first
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        with pytest.raises(error):
            ot.certified_dual(g, ot.root_tree(g, [(1, 2), (2, 3), (3, 0)], 0), mu, nu)

    def test_a_flow_of_1e_13_is_flow(self):
        # both edges carry flow, the leaf's 1e-13 too, so the dual is unique
        # and it is the tree potential
        g = line_graph(3)
        t = ot.root_tree(g, [(0, 1), (1, 2)], 0)
        mu, nu = np.array([0.5, 0.5, 0.0]), np.array([0.0, 1 - 1e-13, 1e-13])
        assert assert_certified(g, t, mu, nu) == (True, True)
        u, _ = ot.certified_dual(g, t, mu, nu)
        assert u.values.tobytes() == ot.tree_potential(t, mu, nu).values.tobytes()

    def test_tree_of_another_graph_rejected(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        other = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        mu, nu = [0.6, 0.2, 0.2], [0.2, 0.2, 0.6]
        foreign = [ot.root_tree(other, [(0, 1), (1, 2)], 0),
                   ot.root_tree(ot.build_graph(3, [(0, 2, 1.0), (1, 2, 1.0)]), [(0, 2), (1, 2)], 0)]
        for t in foreign:
            with pytest.raises(NotSpanningError, match="not a spanning tree of the graph"):
                ot.certified_dual(g, t, mu, nu)
        with pytest.raises(NotSpanningError):
            ot.certified_dual(line_graph(4), ot.root_tree(g, [(0, 1), (1, 2)], 0), [0.25] * 4,
                              [0.25] * 4)
        with pytest.raises(NotSpanningError):
            ot.certified_dual(g, ot.root_tree(line_graph(2), [(0, 1)], 0), [0.5, 0.5], [0.5, 0.5])

    def test_agrees_with_the_bellman_ford_face(self, backend):
        # both potentials are returned: the tree formula where it is
        # 1-Lipschitz, the face's where it is not
        outcomes = {}
        for seed in (27, 28):
            for g, t, mu, nu in optimal_tree_corpus(seed=seed):
                outcome = assert_certified(g, t, mu, nu)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 10, outcomes

    def test_degenerate_lattice_trees(self, backend):
        outcomes = [assert_certified(*case) for case in degenerate_tree_corpus()]
        assert len(outcomes) == 40 and not any(formula for _, formula in outcomes)

    def test_the_papers_condition_implies_uniqueness(self):
        # sufficient, not necessary: some degenerate pairs have a unique dual
        outcomes = {(held, unique): 0 for held in (True, False) for unique in (True, False)}
        for g, t, mu, nu in optimal_tree_corpus(seed=28):
            _, unique = ot.certified_dual(g, t, mu, nu)
            outcomes[ot.check_weak_nondegeneracy(mu, nu, g), unique] += 1
        assert outcomes[True, False] == 0, outcomes
        assert outcomes[True, True] >= 40 and outcomes[False, True] >= 5, outcomes
        assert outcomes[False, False] >= 5, outcomes


def brute_force_cyclically_monotone(plan, dist, max_m=None, tol=VALUE_TOL) -> bool:
    """Every family of off-diagonal support pairs (of size <= max_m, default
    all) and every permutation of its targets. A family of m pairs fails when a
    permutation saves more than m*tol/s, s being the number of off-diagonal
    pairs. Loops are left out: by the triangle inequality a loop in a family
    never makes a permutation cheaper than the same family without it."""
    pairs = [(x, y) for x, y in zip(plan.rows.tolist(), plan.cols.tolist()) if x != y]
    s = len(pairs)
    for m in range(2, min(s, max_m or s) + 1):
        for family in itertools.combinations(pairs, m):
            xs = [x for x, _ in family]
            base = sum(dist[x, y] for x, y in family)
            for perm in itertools.permutations([y for _, y in family]):
                if sum(dist[x, y] for x, y in zip(xs, perm)) < base - m * tol / s:
                    return False
    return True


class TestCyclicalMonotonicity:
    def test_single_support_point(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        assert ot.check_cyclical_monotonicity(ot.make_plan(2, [(0, 1, 1.0)]), g, d)

    def test_oracle_plans_pass(self):
        rng = np.random.default_rng(62)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, extra_edges=2)
            d = ot.all_pairs_shortest_paths(g)
            mu, nu = random_measure_pair(rng, n)
            sol = ot.exact_k_distance(d, mu, nu)
            assert ot.check_cyclical_monotonicity(sol.plan, g, d)

    def test_crossed_pairs_fail(self):
        # two crossed moves on a line: 0->3 and 3->0 can be uncrossed
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        plan = ot.make_plan(4, [(0, 3, 0.5), (3, 0, 0.5)])
        assert not ot.check_cyclical_monotonicity(plan, g, d)

    @pytest.mark.parametrize("form", ["vector", "matrix"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_support_distance_is_refused(self, form, bad):
        # the crossed plan above: with d(0, 3) infinite the rounds settle at
        # -inf, where the full-round reference would call it monotone
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        plan = ot.make_plan(4, [(0, 3, 0.5), (3, 0, 0.5)])
        if form == "vector":
            dist = np.array([bad, 3.0])
        else:
            dist = ot.all_pairs_shortest_paths(g).copy()
            dist[0, 3] = bad
        with pytest.raises(NonFiniteWeightError, match=rf"support distance \(0,3\) is {bad}"):
            ot.check_cyclical_monotonicity(plan, g, dist)

    def test_four_pair_family_beyond_three(self):
        # unit 8-cycle: 0->6, 1->2, 3->3, 5->4 undercuts the plan (4 < 6),
        # yet no family of two or three of its pairs improves
        g = ot.build_graph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
        d = ot.all_pairs_shortest_paths(g)
        plan = ot.make_plan(8, [(0, 2, 0.25), (1, 3, 0.25), (3, 4, 0.25), (5, 6, 0.25)])
        assert brute_force_cyclically_monotone(plan, d, max_m=3)
        assert not brute_force_cyclically_monotone(plan, d)
        assert not ot.check_cyclical_monotonicity(plan, g, d)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(64)
        verdicts = []
        for trial in range(240):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 4)))
            d = ot.all_pairs_shortest_paths(g)
            if trial % 4 == 0:  # optimal plans, so monotone ones occur often
                mu, nu = random_measure_pair(rng, n)
                entries = ot.exact_k_distance(d, mu, nu).plan.entries()
                keep = rng.permutation(len(entries))[:6]
                triplets = [entries[i] for i in keep]
            else:  # random supports, loops included
                k = int(rng.integers(1, 7))
                triplets = [(int(x), int(y), float(rng.random()) + 0.1)
                            for x, y in rng.integers(0, n, size=(k, 2))]
            plan = ot.make_plan(n, triplets)
            got = ot.check_cyclical_monotonicity(plan, g, d)
            assert got == brute_force_cyclically_monotone(plan, d), (trial, plan.entries())
            if np.count_nonzero(plan.rows != plan.cols) >= 2:
                verdicts.append(got)
        # both verdicts occur often on supports with a permutation to try
        assert min(sum(verdicts), len(verdicts) - sum(verdicts)) >= 50

    def test_agrees_with_the_full_round_reference(self, backend):
        """The early stop at a parent-graph cycle gives the verdict of every
        round run out: on the enumeration corpus above, and on lattice plans
        of Wilson trees (rarely monotone) and of annealed trees, with the
        distances at the support pairs as ``verify`` passes them."""
        rng = np.random.default_rng(64)
        cases = []
        for trial in range(240):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 4)))
            k = int(rng.integers(1, 7))
            triplets = [(int(x), int(y), float(rng.random()) + 0.1)
                        for x, y in rng.integers(0, n, size=(k, 2))]
            cases.append((ot.make_plan(n, triplets), g, ot.all_pairs_shortest_paths(g)))
        for p, seed in [(4, 1), (6, 2), (8, 3), (12, 4), (16, 5), (20, 6)]:
            g = ot.grid_graph(p)
            mu, nu = noisy_grid_measures(p, seed=seed)
            trees = [ot.random_spanning_tree(g, np.random.default_rng(s)) for s in range(3)]
            if p <= 8:  # annealed to an optimal tree, whose plan is monotone
                trees.append(ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=20_000, seed=seed)).best_tree)
            for t in trees:
                plan = ot.dp_transport_plan(t, mu, nu)
                cases.append((plan, g, ot.pair_distances(g, plan.rows, plan.cols)))
        verdicts = [ot.check_cyclical_monotonicity(*case) for case in cases]
        assert verdicts == [reference_cyclically_monotone(*case) for case in cases]
        assert 20 <= sum(verdicts) <= len(verdicts) - 20

    def test_a_plan_on_another_vertex_count_is_refused(self):
        g = ot.grid_graph(2)
        with pytest.raises(VertexRangeError, match="plan size does not match graph"):
            ot.check_cyclical_monotonicity(ot.make_plan(5, [(0, 4, 1.0)]), g, np.array([1.0]))
        # a plan with no off-diagonal support too
        with pytest.raises(VertexRangeError, match="plan size does not match graph"):
            ot.check_cyclical_monotonicity(ot.make_plan(3, [(0, 0, 1.0)]), g, np.zeros(0))

    @pytest.mark.parametrize("parent, cycle", [
        ([-1], False), ([-1, 0, 1, 2], False), ([1, 0], True), ([0], True),
        ([-1, 2, 3, 1, 3], True), ([-1, 0, 0, 1, 1], False),
    ])
    def test_parent_cycle_search(self, parent, cycle):
        assert _has_cycle(np.array(parent, dtype=np.int64)) is cycle


class TestVertexSupport:
    def test_diagonal_plan(self):
        plan = ot.make_plan(3, [(0, 0, 0.4), (1, 1, 0.3), (2, 2, 0.3)])
        info = ot.check_vertex_support(plan)
        assert info["is_forest"] and info["proper_edges"] == 0
        assert not info["is_spanning_tree_up_to_loops"]

    def test_four_cycle_not_forest(self):
        plan = ot.make_plan(
            4, [(0, 1, 0.25), (2, 1, 0.25), (2, 3, 0.25), (0, 3, 0.25)]
        )
        assert not ot.check_vertex_support(plan)["is_forest"]


class TestGeodesicSupport:
    def test_tree_graph_always_true(self):
        rng = np.random.default_rng(63)
        g = random_tree_graph(rng, 10)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, 10)
        plan = ot.dp_transport_plan(t, mu, nu)
        d = ot.all_pairs_shortest_paths(g)
        assert geodesic_support_violation(plan, d, t) <= VALUE_TOL

    def test_detour_tree_detected(self):
        # 4-cycle: spanning tree that forces a long detour between neighbours
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        t = ot.root_tree(g, [(0, 1), (1, 2), (2, 3)], 0)
        plan = ot.make_plan(4, [(3, 0, 1.0)])
        assert not geodesic_support_violation(plan, d, t) <= VALUE_TOL

    def test_tree_and_its_matrix_agree(self):
        # the support functions read the same distances from a tree as from
        # its dense matrix, on geodesic (tree plan) and non-geodesic (exact
        # graph plan) supports alike
        rng = np.random.default_rng(65)
        for n in range(2, 30):
            g = random_connected_graph(rng, n, n // 2) if n > 2 else random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            d = ot.all_pairs_shortest_paths(g)
            d_t = dfs_tree_distance_matrix(t)
            sol = ot.exact_k_distance(d, mu, nu)
            for plan in (sol.plan, ot.dp_transport_plan(t, mu, nu)):
                by_matrix = geodesic_support_violation(plan, d, d_t)
                assert abs(geodesic_support_violation(plan, d, t) - by_matrix) <= 1e-12, n
                assert (geodesic_support_violation(plan, d, t) <= VALUE_TOL) == (by_matrix <= VALUE_TOL), n
                assert abs(ot.plan_cost(plan, t) - ot.plan_cost(plan, d_t)) <= 1e-12, n
                assert abs(complementary_violation(plan, sol.dual, t)
                           - complementary_violation(plan, sol.dual, d_t)) <= 1e-12, n
        with pytest.raises(VertexRangeError):
            ot.plan_cost(ot.make_plan(n + 1, [(0, n, 1.0)]), t)


class TestPotentialMatch:
    def test_constant_shift(self):
        u1 = ot.Potential(np.array([0.0, 1.0, -2.0]), anchor=0)
        u2 = ot.Potential(np.array([5.0, 6.0, 3.0]), anchor=0)
        assert ot.potential_match_up_to_constant(u1, u2)

    def test_non_constant_difference(self):
        u1 = ot.Potential(np.array([0.0, 1.0]), anchor=0)
        u2 = ot.Potential(np.array([0.0, 2.0]), anchor=0)
        assert not ot.potential_match_up_to_constant(u1, u2)

    def test_tree_potential_matches_oracle_dual(self):
        rng = np.random.default_rng(64)
        hits = 0
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            if not ot.check_weak_nondegeneracy(mu, nu, g):
                continue
            hits += 1
            sol = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu)
            u = ot.tree_potential(t, mu, nu)
            assert ot.potential_match_up_to_constant(u, sol.dual)
        assert hits >= 20

    def test_graph_dual_lifts_to_optimal_tree(self):
        # the exact dual is 1-Lipschitz for the optimal tree's metric and
        # attains that tree's transport cost
        from conftest import noisy_grid_measures

        g = ot.grid_graph(3)
        d = ot.all_pairs_shortest_paths(g)
        mu, nu = noisy_grid_measures(3, seed=77)
        sol = ot.exact_k_distance(d, mu, nu)
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=50_000, seed=1),
                        target_cost=sol.value)
        assert abs(res.best_cost - sol.value) <= 1e-9
        t_star = res.best_tree
        d_t = ot.tree_distance_matrix(t_star)
        u = sol.dual.values
        assert (np.abs(u[:, None] - u[None, :]) <= d_t + 1e-9).all()
        assert abs(np.dot(u, mu - nu) - ot.tree_k_distance(t_star, mu, nu)) <= 1e-9
