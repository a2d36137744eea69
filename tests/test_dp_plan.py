"""Properties of the dynamic-programming transport plan, and its parity with
a recursive reference on every kernel backend."""

import hashlib
import json
import math
import pickle
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import (
    MassMismatchError,
    NegativeMassError,
    NonFiniteMassError,
    NotSpanningError,
    PlanError,
    TreeOTError,
    VertexRangeError,
)
from treeot.oracle import complementary_violation
from treeot.transport import imbalance_zero
from treeot.trees import RootedTree

from conftest import (
    children_lists,
    compiled_backends,
    degenerate_measures,
    line6_edges,
    noisy_grid_measures,
    random_connected_graph,
    random_measure_pair,
    random_tree_graph,
    raised,
    reference_plan_to_flow,
    run_python,
)


def line_tree(n, root):
    g = ot.build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return ot.root_tree(g, [(i, i + 1) for i in range(n - 1)], root)


class TestExamples:
    def test_dirac_to_dirac(self):
        t = line_tree(3, 2)
        plan = ot.dp_transport_plan(t, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert plan.entries() == [(0, 2, 1.0)]
        assert ot.plan_cost(plan, ot.tree_distance_matrix(t)) == 2.0

    def test_split_to_center(self):
        t = line_tree(3, 2)
        plan = ot.dp_transport_plan(t, [0.5, 0.0, 0.5], [0.0, 1.0, 0.0])
        dense = plan.to_dense()
        assert abs(dense[0, 1] - 0.5) <= 1e-15
        assert abs(dense[2, 1] - 0.5) <= 1e-15
        assert abs(ot.plan_cost(plan, ot.tree_distance_matrix(t)) - 1.0) <= 1e-12

    def test_equal_measures_diagonal_only(self):
        t = line_tree(4, 0)
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        plan = ot.dp_transport_plan(t, mu, mu)
        assert np.all(plan.rows == plan.cols)
        assert np.allclose(plan.diagonal(), mu)

    def test_line6_cost(self, line6):
        g, mu, nu = line6
        t = ot.root_tree(g, line6_edges(), 5)
        plan = ot.dp_transport_plan(t, mu, nu)
        cost = ot.plan_cost(plan, ot.tree_distance_matrix(t))
        assert abs(cost - 0.75) <= 1e-9
        assert abs(cost - ot.tree_k_distance(t, mu, nu)) <= 1e-9

    def test_blocked_interior_demand(self):
        # balanced leaf between the supply and the demand: the balanced leaf
        # must be discarded so the interior imbalance gets matched
        t = line_tree(3, 2)
        mu = np.array([0.2, 0.5, 0.3])
        nu = np.array([0.2, 0.2, 0.6])
        plan = ot.dp_transport_plan(t, mu, nu)
        dense = plan.to_dense()
        assert abs(dense[1, 2] - 0.3) <= 1e-12
        assert np.max(np.abs(plan.row_sums() - mu)) <= 1e-12


def random_instances(count, seed, max_n=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        g = random_tree_graph(rng, n)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, n)
        yield t, mu, nu


class InvariantChecks:
    """The plan's invariants on every instance that ``instances`` yields;
    each check passes its own seed, which a fixed corpus ignores."""

    def instances(self, seed):
        raise NotImplementedError

    def test_marginals_and_diagonal(self):
        for t, mu, nu in self.instances(seed=101):
            plan = ot.dp_transport_plan(t, mu, nu)
            assert np.max(np.abs(plan.row_sums() - mu)) <= 1e-9
            assert np.max(np.abs(plan.col_sums() - nu)) <= 1e-9
            assert np.max(np.abs(plan.diagonal() - np.minimum(mu, nu))) <= 1e-12

    def test_no_antiparallel_pairs(self):
        for t, mu, nu in self.instances(seed=102):
            plan = ot.dp_transport_plan(t, mu, nu)
            pairs = set(zip(plan.rows.tolist(), plan.cols.tolist()))
            for x, y in pairs:
                if x != y:
                    assert (y, x) not in pairs

    def test_support_is_forest_with_few_edges(self):
        for t, mu, nu in self.instances(seed=103):
            plan = ot.dp_transport_plan(t, mu, nu)
            info = ot.check_vertex_support(plan)
            assert info["is_forest"]
            assert info["proper_edges"] <= t.n - 1
            assert plan.support_size <= 2 * t.n - 1

    def test_cost_matches_closed_form(self):
        for t, mu, nu in self.instances(seed=104):
            plan = ot.dp_transport_plan(t, mu, nu)
            cost = ot.plan_cost(plan, ot.tree_distance_matrix(t))
            assert abs(cost - ot.tree_k_distance(t, mu, nu)) <= 1e-9

    def test_flow_matches_cumulative_imbalance(self):
        for t, mu, nu in self.instances(seed=105):
            plan = ot.dp_transport_plan(t, mu, nu)
            got = ot.plan_to_flow(plan, t)
            ref = ot.beckmann_flow(t, mu, nu)
            assert np.max(np.abs(got.up - ref.up)) <= 1e-9
            assert np.max(np.abs(got.down - ref.down)) <= 1e-9
            assert np.max(np.abs(got.divergence(t) - (mu - nu))) <= 1e-9

    def test_path_sign_property(self):
        # along any transporting path, up-steps sit on positive cumulative
        # imbalance and down-steps on negative
        for t, mu, nu in self.instances(seed=106):
            plan = ot.dp_transport_plan(t, mu, nu)
            cum = ot.cumulative_imbalance(t, ot.imbalance(mu, nu))
            for x, y, _ in plan.entries():
                if x == y:
                    continue
                for a, b, direction in ot.tree_path(t, x, y):
                    if direction == "up":
                        assert cum[a] > 0.0
                    else:
                        assert cum[b] < 0.0


class TestInvariants(InvariantChecks):
    """The checks on 50 random tree graphs with n <= 12 each, and the checks
    that need instances of their own."""

    def instances(self, seed):
        return random_instances(50, seed)

    def test_complementary_with_tree_potential(self):
        for t, mu, nu in random_instances(50, seed=107):
            plan = ot.dp_transport_plan(t, mu, nu)
            u = ot.tree_potential(t, mu, nu)
            d_t = ot.tree_distance_matrix(t)
            offdiag = plan.rows != plan.cols
            gaps = (
                u.values[plan.rows[offdiag]]
                - u.values[plan.cols[offdiag]]
                - d_t[plan.rows[offdiag], plan.cols[offdiag]]
            )
            # sign conventions only matter on vanishing cumulative imbalance,
            # which transporting paths never cross
            assert gaps.size == 0 or np.max(np.abs(gaps)) <= 1e-9

    def test_closed_form_agreement_when_alternating(self):
        rng = np.random.default_rng(108)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 10))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = _alternating_instance(t, rng)
            if not ot.check_alternating_condition(t, mu, nu):
                continue
            found += 1
            d_t = ot.tree_distance_matrix(t)
            a = ot.plan_cost(ot.closed_form_plan(t, mu, nu), d_t)
            b = ot.plan_cost(ot.dp_transport_plan(t, mu, nu), d_t)
            assert abs(a - b) <= 1e-9
        assert found >= 50


def _alternating_instance(t, rng):
    """Measures whose cumulative imbalance alternates in sign with depth."""
    n = t.n
    scale = 0.5 / n
    cum = np.zeros(n)
    for v in range(n):
        if v != t.root:
            sign = 1.0 if t.depth[v] % 2 else -1.0
            cum[v] = sign * rng.uniform(0.2, 1.0) * scale
    xi = cum.copy()
    kids = children_lists(t.parent.tolist())
    for v in range(n):
        xi[v] -= sum(cum[c] for c in kids[v])
    base = np.full(n, 1.0 / n)
    mu = base + xi / 2
    nu = base - xi / 2
    if mu.min() <= 0 or nu.min() <= 0:
        return base, base
    return mu / mu.sum(), nu / nu.sum()


class TestInvariantsOnTheParityCorpus(InvariantChecks):
    """The checks on the backend parity corpus: n up to 39, ties and zero
    cumulative imbalances, equal measures, and annealed 10x10 and 32x32
    lattice trees."""

    @pytest.fixture(autouse=True)
    def use_the_parity_corpus(self, parity_instances):
        self.parity_instances = parity_instances

    def instances(self, seed):
        return self.parity_instances


def degenerate_corpus():
    """(t, mu, nu): Wilson trees of the 4x4 and 6x6 lattices under
    ``degenerate_measures``, where equal masses and cumulative imbalances
    of exactly 0 are common."""
    rng = np.random.default_rng(109)
    for p in (4, 6):
        g = ot.grid_graph(p)
        for _ in range(150):
            yield ot.random_spanning_tree(g, rng), *degenerate_measures(rng, g.n)


class TestInvariantsOnDegenerateMeasures(InvariantChecks):
    def instances(self, seed):
        return degenerate_corpus()


# ---------------------------------------------------------------------------
# Reference: the plan construction as a recursion over child lists, and the
# dict-based plan assembly. Test-only.


def reference_make_plan(n, triplets):
    acc = {}
    for x, y, m in triplets:
        x, y, m = int(x), int(y), float(m)
        if not (0 <= x < n and 0 <= y < n):
            raise VertexRangeError(f"plan entry ({x},{y}) out of range")
        if not math.isfinite(m):
            raise NonFiniteMassError(f"plan entry ({x},{y}) has non-finite mass {m}")
        if m < 0.0:
            raise NegativeMassError(f"plan entry ({x},{y}) has negative mass {m}")
        if m > 0.0:
            acc[(x, y)] = acc.get((x, y), 0.0) + m
    keys = sorted(acc)
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([acc[k] for k in keys], dtype=np.float64))


def reference_offdiag(t, xi, zero_tol):
    """Off-diagonal entries {(x, y): mass} for the residuals ``xi``, by a
    recursion over child lists: a subtree hands up the supplies and demands
    it leaves unmatched, oldest first. A vertex gathers what its children
    hand up (children in the order ``t.order`` lists them) and then its own
    residual, and matches its first supply with its first demand until it
    runs out of one kind. Residuals up to ``zero_tol`` count as zero."""
    res = [0.0 if abs(x) <= zero_tol else float(x) for x in xi]
    position = {v: i for i, v in enumerate(t.order.tolist())}
    kids = [sorted(k, key=position.__getitem__) for k in children_lists(t.parent.tolist())]
    offdiag = {}

    def unmatched(v):
        supplies, demands = [], []
        for c in kids[v]:
            s, d = unmatched(c)
            supplies += s
            demands += d
        if res[v] != 0.0:
            (supplies if res[v] > 0.0 else demands).append(v)
        while supplies and demands:
            a, b = supplies[0], demands[0]
            m = min(res[a], -res[b])
            assert (a, b) not in offdiag
            offdiag[(a, b)] = m
            res[a] -= m
            res[b] += m
            if res[a] <= zero_tol:
                res[a] = 0.0
                supplies.pop(0)
            if -res[b] <= zero_tol:
                res[b] = 0.0
                demands.pop(0)
        return supplies, demands

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, t.n + 100))
    try:
        supplies, demands = unmatched(t.root)
    finally:
        sys.setrecursionlimit(limit)
    if supplies or demands:
        raise RuntimeError(f"no matching vertex below {t.root}; residuals are inconsistent")
    return offdiag


def reference_dp_plan(t, mu, nu):
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    xi = mu / mu.sum() - nu / nu.sum()
    offdiag = reference_offdiag(t, xi, imbalance_zero(xi))
    diag = np.minimum(mu, nu)
    triplets = [(x, y, m) for (x, y), m in offdiag.items()]
    triplets.extend((v, v, float(diag[v])) for v in range(t.n) if diag[v] > 0.0)
    return reference_make_plan(t.n, triplets)


def digest(rows, cols, mass):
    """Bit-exact fingerprint of a plan's arrays."""
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in
                    (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
                     np.asarray(mass, dtype=np.float64)))
    return hashlib.sha256(data).hexdigest()[:20]


PARITY_RANDOM = 2000


def parity_corpus():
    """(t, mu, nu) for the backend parity check: random trees and connected
    graphs with n = 1..39, equal measures, integer masses with zero-mass
    vertices (zero cumulative imbalances and ties), and annealed 10x10 and
    32x32 lattice trees."""
    for seed in range(PARITY_RANDOM):
        rng = np.random.default_rng(7000 + seed)
        n = 1 + seed % 39
        if seed % 2 or n < 3:
            g = random_tree_graph(rng, n)
        else:
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, n)))
        t = ot.random_spanning_tree(g, rng)
        if seed % 3 == 0:
            mu = rng.integers(0, 4, n).astype(float)
            nu = rng.integers(0, 4, n).astype(float)
            mu[0] += mu.sum() == 0.0
            nu[-1] += nu.sum() == 0.0
            mu, nu = mu / mu.sum(), nu / nu.sum()
        else:
            mu, nu = random_measure_pair(rng, n)
        if seed % 10 == 1:
            nu = mu
        yield t, mu, nu
    for p, seed in ((10, 0), (10, 1), (10, 2), (32, 0)):
        mu, nu = noisy_grid_measures(p, seed)
        res = ot.anneal(ot.grid_graph(p), mu, nu, ot.AnnealConfig(max_iters=5_000, seed=seed))
        yield res.best_tree, mu, nu


# residuals that do not sum to 0, so some are left unmatched at the root: a
# leaf's, the root's own, and an interior vertex's; they are matched with a
# zero of 1e-14, since imbalance_zero's |sum xi| would absorb them
INCONSISTENT = ([0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, -0.25, 0.0])

PARITY_SCRIPT = """
import json, pickle, sys
import numpy as np
sys.path.insert(0, TESTS_DIR)
import treeot as ot
from treeot import _kernels
from test_dp_plan import INCONSISTENT, digest, line_tree
with open(sys.argv[1], "rb") as f:
    corpus = pickle.load(f)
plans = []
for t, mu, nu in corpus:
    plan = ot.dp_transport_plan(t, mu, nu)
    plans.append(digest(plan.rows, plan.cols, plan.mass))
errors = []
t = line_tree(3, 2)
for xi in INCONSISTENT:
    try:
        _kernels.kernels().dp_plan(t, np.zeros(3), np.zeros(3), np.array(xi), 1e-14)
        errors.append(None)
    except RuntimeError as exc:
        errors.append(str(exc))
print(json.dumps({"backend": ot.kernel_backend(), "plans": plans, "errors": errors}))
"""


@pytest.fixture(scope="module")
def parity_instances():
    return list(parity_corpus())


@pytest.fixture(scope="module")
def parity_runs(tmp_path_factory, parity_instances):
    """The reference's plan digests and errors, and a function that runs the
    parity script on a backend (once per backend) and returns its output and,
    for the python backend, the empty kernel cache it ran with."""
    corpus = parity_instances
    path = tmp_path_factory.mktemp("parity") / "corpus.pickle"
    path.write_bytes(pickle.dumps(corpus))
    errors = []
    t = line_tree(3, 2)
    for xi in INCONSISTENT:
        with pytest.raises(RuntimeError) as info:
            reference_offdiag(t, xi, 1e-14)
        errors.append(str(info.value))
    reference = {"plans": [digest(*reference_dp_plan(t, mu, nu)) for t, mu, nu in corpus],
                 "errors": errors}
    runs = {}

    def run(backend):
        if backend not in runs:
            env = {}
            if backend == "python":
                env["TREEOT_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache-python"))
            proc = run_python(PARITY_SCRIPT, backend, argv=[str(path)], **env)
            assert proc.returncode == 0, proc.stderr
            runs[backend] = json.loads(proc.stdout), env.get("TREEOT_CACHE_DIR")
        return runs[backend]

    return reference, run


BACKENDS = ["python", *compiled_backends()]


class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plans_match_the_reference_bit_for_bit(self, backend, parity_runs):
        reference, run = parity_runs
        out, _ = run(backend)
        assert out["backend"] == backend
        assert len(out["plans"]) == len(reference["plans"]) >= 2000
        mismatched = [i for i, (a, b) in enumerate(zip(out["plans"], reference["plans"])) if a != b]
        assert not mismatched, f"{len(mismatched)} plans differ, first at corpus index {mismatched[0]}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inconsistent_residuals_raise_the_reference_error(self, backend, parity_runs):
        reference, run = parity_runs
        out, _ = run(backend)
        assert out["errors"] == reference["errors"]
        assert all(e.startswith("no matching vertex below") for e in out["errors"])

    def test_python_backend_builds_nothing(self, parity_runs):
        out, cache = parity_runs[1]("python")
        assert out["backend"] == "python"
        assert not any(Path(cache).iterdir())


class TestTreeMetricOnTheSupport:
    def test_plan_to_flow_matches_the_per_pair_walk(self, parity_instances):
        for i, (t, mu, nu) in enumerate(parity_instances):
            plan = ot.dp_transport_plan(t, mu, nu)
            got = ot.plan_to_flow(plan, t)
            up, down = reference_plan_to_flow(plan, t)
            assert got.up.tobytes() == up.tobytes() and got.down.tobytes() == down.tobytes(), i

    def test_tree_and_its_matrix_give_the_same_support_values(self, parity_instances):
        # every tenth random instance (the dense matrix is the slow part), and
        # the annealed lattice trees
        for i, (t, mu, nu) in enumerate(parity_instances[:PARITY_RANDOM:10]
                                        + parity_instances[PARITY_RANDOM:]):
            plan = ot.dp_transport_plan(t, mu, nu)
            u = ot.tree_potential(t, mu, nu)
            d_t = ot.tree_distance_matrix(t)
            assert abs(ot.plan_cost(plan, t) - ot.plan_cost(plan, d_t)) <= 1e-12, i
            assert abs(complementary_violation(plan, u, t)
                       - complementary_violation(plan, u, d_t)) <= 1e-12, i


class TestPlanGuards:
    def fake_kernel(self, status, rows, cols, u=-1):
        def run(n, parent, order, mu, nu, xi, zero_tol, out_x, out_y, out_m, out_k):
            k = len(rows)
            out_x[:k], out_y[:k], out_m[:k], out_k[:] = rows, cols, 0.25, (k, u)
            return status
        return _kernels.Kernels("fake", {"dp_plan": run}).dp_plan

    @staticmethod
    def call(kernel, n, zero_tol=1e-14):
        return kernel(line_tree(n, 3), np.zeros(n), np.zeros(n), np.zeros(n), zero_tol)

    def test_repeated_entry_raises(self):
        # in (row, col) order but for the repeat
        kernel = self.fake_kernel(0, [0, 1, 2, 2, 4], [3, 3, 3, 3, 3])
        with pytest.raises(RuntimeError, match=r"^plan construction wrote off-diagonal entry "
                                               r"\(2, 3\) twice$"):
            self.call(kernel, 5)

    def test_entries_out_of_order_raise(self):
        kernel = self.fake_kernel(0, [0, 2, 1], [3, 3, 3])
        with pytest.raises(RuntimeError, match=r"^plan construction wrote off-diagonal entry "
                                               r"\(1, 3\) out of order$"):
            self.call(kernel, 4)

    def test_repeat_is_reported_before_a_failed_status(self):
        kernel = self.fake_kernel(_kernels.PLAN_NO_MATCH, [1, 1], [3, 3])
        with pytest.raises(RuntimeError, match="twice"):
            self.call(kernel, 4)

    def test_statuses_map_to_the_loop_messages(self):
        with pytest.raises(RuntimeError, match="^no matching vertex below 2; residuals are inconsistent$"):
            self.call(self.fake_kernel(_kernels.PLAN_NO_MATCH, [], [], u=2), 4, 0.0)

    @pytest.mark.parametrize("mu, nu, error", [
        ([-0.5, 1.5, 0.0], [0.0, 0.0, 1.0], NegativeMassError),
        ([0.5, 0.0, 0.0], [0.0, 0.0, 0.5], MassMismatchError),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], MassMismatchError),
    ])
    def test_measures_that_are_not_probability_measures_are_refused(self, mu, nu, error):
        # each was once renormalised into a plan: rows that did not sum to
        # mu, a plan of mass 1 costing twice the tree distance, or a warning
        # and then "no matching vertex"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                ot.dp_transport_plan(line_tree(3, 2), mu, nu)

    def test_an_imbalance_beyond_the_mass_tolerance_is_refused(self):
        # each measure is within MASS_TOL of mass 1, their imbalance is not:
        # the plan once came back, where the tree's distance raises
        g = ot.grid_graph(3)
        t = ot.random_spanning_tree(g, np.random.default_rng(0))
        mu, nu = np.full(9, (1 + 9e-10) / 9), np.full(9, (1 - 9e-10) / 9)
        message = "^imbalance sums to 1.8000000240325775e-09, not 0$"
        for closed_form in (ot.tree_k_distance, ot.dp_transport_plan):
            with pytest.raises(MassMismatchError, match=message):
                closed_form(t, mu, nu)

    @pytest.mark.parametrize("parent, order", [
        ([1, 2, -1], [0, 2, 1]),   # parent after its child in order
        ([1, 0, -1], [0, 1, 2]),   # a cycle
        ([1, 2, -1], [0, 1, 1]),   # order is not a permutation
        ([1, -1, 1], [1, 0, 2]),   # order does not end at the root
        ([3, 2, -1], [0, 1, 2]),   # parent out of range
    ])
    def test_malformed_tree_is_rejected(self, parent, order):
        # the kernel walks only a RootedTree, whose order it derives; links
        # that are not a tree cannot build one
        kernel = _kernels.kernels().dp_plan
        with pytest.raises(TypeError, match="plan kernel: needs a RootedTree"):
            kernel((np.array(parent, dtype=np.int64), np.array(order, dtype=np.int64)), np.zeros(3),
                   np.zeros(3), np.zeros(3), 0.0)
        root = parent.index(-1)
        tree = raised(RootedTree, root, np.array(parent, dtype=np.int64), np.ones(3))
        assert tree is None or tree[0] is NotSpanningError
        if tree is None:
            assert RootedTree(root, parent, np.ones(3)).order.tolist() != order


@pytest.fixture(scope="module")
def assembly_corpus(parity_instances):
    """(t, mu, nu, reference plan) over the parity, degenerate and random corpora."""
    corpora = [*parity_instances, *degenerate_corpus(), *random_instances(300, 11, max_n=40)]
    return [(t, mu, nu, reference_dp_plan(t, mu, nu)) for t, mu, nu in corpora]


class TestPlanAssembly:
    """The plan kernel writes the whole plan, the diagonal included, in
    (row, col) order: the plans are those of the recursive reference,
    coalesced by the dict-based assembly, bit for bit."""

    def test_plans_are_the_assembled_entries_bit_for_bit(self, backend, assembly_corpus):
        for i, (t, mu, nu, want) in enumerate(assembly_corpus):
            plan = ot.dp_transport_plan(t, mu, nu)
            for got, expected in zip((plan.rows, plan.cols, plan.mass), want):
                assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes()), i
                assert not got.flags.writeable

    def test_a_mass_that_is_not_positive_and_finite_raises(self, monkeypatch):
        t = line_tree(4, 3)
        for bad in (0.0, -0.25, math.nan, math.inf):
            def run(n, parent, order, mu, nu, xi, zero_tol, out_x, out_y, out_m, out_k, bad=bad):
                out_x[:2], out_y[:2], out_m[:2], out_k[:] = (0, 1), (3, 2), (0.25, bad), (2, -1)
                return 0
            kernels = _kernels.Kernels("fake", {"dp_plan": run})
            monkeypatch.setattr(_kernels, "kernels", lambda: kernels)
            with pytest.raises(RuntimeError, match="^plan construction wrote a mass that is not "
                                                   "positive and finite$"):
                ot.dp_transport_plan(t, [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])


def old_make_plan_outcome(n, triplets):
    try:
        return reference_make_plan(n, triplets)
    except TreeOTError as exc:
        return type(exc), str(exc)


def make_plan_outcome(n, triplets):
    try:
        plan = ot.make_plan(n, triplets)
        return plan.rows, plan.cols, plan.mass
    except TreeOTError as exc:
        return type(exc), str(exc)


def same_outcome(a, b):
    if isinstance(a[0], type):
        return a == b
    return not isinstance(b[0], type) and digest(*a) == digest(*b)


class TestMakePlan:
    @pytest.mark.parametrize("triplets", [
        [(0, 1, 0.5), (3, 0, 0.25)],
        [(0, 1, 0.5), (0, -1, 0.25)],
        [(0, 0, float("nan"))],
        [(0, 1, float("inf")), (1, 1, -1.0)],
        [(1, 1, -0.5), (0, 1, float("nan"))],
        [(0, 1, -float("inf")), (5, 5, 1.0)],
        [(0, 1, 0.5), (1, 2, -1e-300), (7, 0, float("nan")), (0, 0, -2.0)],
        [(2, 1, 0.5), (1, 1, 0.25), (0, 3, float("nan")), (3, 0, 0.1)],
        [(10**30, 0, 1.0)],
        [(0, 0, 1.0), (-(10**400), 0, 1.0), (0, 5, -1.0)],
    ])
    def test_errors_match_the_loop(self, triplets):
        old = old_make_plan_outcome(3, triplets)
        assert isinstance(old[0], type)
        assert make_plan_outcome(3, triplets) == old

    @pytest.mark.parametrize("entry", [(0, 1), (0, 1, 0.5, 2), 5, None],
                             ids=["two-fields", "four-fields", "int", "None"])
    def test_an_entry_that_is_not_a_triplet_raises_plan_error(self, entry):
        with pytest.raises(PlanError, match=f"^plan entry {re.escape(repr(entry))} is not a "
                                            r"triplet \(x, y, mass\)$"):
            ot.make_plan(2, [entry])

    def test_assembly_matches_the_loop(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, 40))
            masses = rng.choice([0.0, -0.0, 0.1, 1 / 3, 0.7, 1e-17], size=k) * rng.random(k)
            triplets = [(int(rng.integers(0, n)), int(rng.integers(0, n)), float(m)) for m in masses]
            old = old_make_plan_outcome(n, triplets)
            assert same_outcome(make_plan_outcome(n, triplets), old)
            as_arrays = zip(np.array([x for x, _, _ in triplets], dtype=np.int64),
                            np.array([y for _, y, _ in triplets], dtype=np.int64), masses)
            assert same_outcome(make_plan_outcome(n, as_arrays), old)

    def test_duplicates_sum_in_input_order(self):
        triplets = [(0, 1, 0.1), (0, 1, 0.2), (0, 1, 0.3), (1, 0, 1e-17), (1, 0, 1.0)]
        rows, cols, mass = old_make_plan_outcome(2, triplets)
        plan = ot.make_plan(2, triplets)
        assert [m.hex() for m in plan.mass.tolist()] == [m.hex() for m in mass.tolist()]
        assert plan.mass[0] == (0.0 + 0.1 + 0.2) + 0.3

    def test_empty_plan_keeps_its_dtypes(self):
        for plan in (ot.make_plan(3, []), ot.make_plan(3, [(0, 1, 0.0), (1, 2, -0.0)])):
            assert plan.support_size == 0
            assert (plan.rows.dtype, plan.cols.dtype, plan.mass.dtype) == (np.int64, np.int64, np.float64)
