import re
import warnings

import numpy as np
import pytest

import treeot as ot
from treeot.errors import (
    ConditionViolatedError,
    MassMismatchError,
    NegativeMassError,
    NonFiniteMassError,
    VertexRangeError,
)

from conftest import (
    LINE6_XI,
    line6_edges,
    random_connected_graph,
    random_measure_pair,
    random_tree_graph,
)

CUMULATIVE_BY_ROOT = {
    0: [0, -0.05, -0.1, 0.1, 0.2, 0.3],
    1: [0.05, 0, -0.1, 0.1, 0.2, 0.3],
    2: [0.05, 0.1, 0, 0.1, 0.2, 0.3],
    3: [0.05, 0.1, -0.1, 0, 0.2, 0.3],
    4: [0.05, 0.1, -0.1, -0.2, 0, 0.3],
    5: [0.05, 0.1, -0.1, -0.2, -0.3, 0],
}


class TestMeasures:
    def test_imbalance_of_equal_measures(self):
        mu = np.full(4, 0.25)
        assert np.all(ot.imbalance(mu, mu) == 0.0)

    def test_line6_imbalance(self, line6):
        _, mu, nu = line6
        assert np.allclose(ot.imbalance(mu, nu), LINE6_XI, atol=1e-15)

    def test_dirac_difference(self):
        xi = ot.imbalance([1.0, 0.0], [0.0, 1.0])
        assert xi.tolist() == [1.0, -1.0]

    def test_mass_mismatch_raises(self):
        with pytest.raises(MassMismatchError):
            ot.imbalance([0.7, 0.4], [0.5, 0.5])

    def test_mass_messages_print_plain_numbers(self):
        # numpy 2 scalars repr as np.float64(...); the messages show the number
        with pytest.raises(MassMismatchError) as caught:
            ot.as_measure([0.5, 0.2])
        assert str(caught.value) == "measure mass 0.7 is not 1"
        with pytest.raises(MassMismatchError) as caught:
            ot.imbalance([0.5, 0.5], [0.2, 0.2])
        assert str(caught.value) == "imbalance sums to 0.6, not 0"

    def test_negative_measure_rejected(self):
        with pytest.raises(NegativeMassError):
            ot.as_measure([1.2, -0.2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_measure_rejected(self, bad):
        for normalize in (False, True):
            with pytest.raises(NonFiniteMassError):
                ot.as_measure([bad, 1.0], normalize=normalize)
        # the tree closed forms refuse them too (dp_transport_plan through as_measure)
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 0)
        for closed_form in (ot.tree_k_distance, ot.tree_potential, ot.dp_transport_plan):
            with pytest.raises(NonFiniteMassError):
                closed_form(t, [bad, 0.5, 0.5], [0.2, 0.2, 0.6])

    def test_normalization(self):
        mu = ot.as_measure([2.0, 2.0], normalize=True)
        assert mu.tolist() == [0.5, 0.5]

    def test_normalizing_a_sum_that_overflows_warns_nothing(self):
        # numpy's "overflow encountered in reduce" once escaped as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = ot.as_measure([1e308, 1e308], normalize=True)
        assert mu.tolist() == [0.5, 0.5]

    NON_FINITE = (NonFiniteMassError, "measure has a NaN or infinite entry")
    #: case: the vector, then what ``as_measure`` (plain, then normalizing)
    #: and ``imbalance`` (the vector as mu, then as nu, against ``VALID``)
    #: raise, as (type, message), or return; NaN or an infinity anywhere is
    #: named before a negative entry or a wrong mass, also where a sum of
    #: finite entries overflows
    VALID = [0.2, 0.3, 0.5]
    CHECKS = {
        "nan": ([np.nan, 0.5, 0.5], NON_FINITE, NON_FINITE, NON_FINITE, NON_FINITE),
        "plus-inf": ([np.inf, 0.5, 0.5], NON_FINITE, NON_FINITE, NON_FINITE, NON_FINITE),
        "minus-inf": ([-np.inf, 0.5, 0.5], NON_FINITE, NON_FINITE, NON_FINITE, NON_FINITE),
        "both-infs": ([np.inf, -np.inf, 1.0], NON_FINITE, NON_FINITE, NON_FINITE, NON_FINITE),
        "infs-and-an-overflowing-sum": ([1e308, 1e308, np.inf], NON_FINITE, NON_FINITE,
                                        NON_FINITE, NON_FINITE),
        "sum-overflows": ([1e308, 1e308, 0.0], (MassMismatchError, "measure mass inf is not 1"),
                          [0.5, 0.5, 0.0], (MassMismatchError, "imbalance sums to inf, not 0"),
                          (MassMismatchError, "imbalance sums to -inf, not 0")),
        "negative-and-nan": ([-0.5, np.nan, 1.5], NON_FINITE, NON_FINITE, NON_FINITE, NON_FINITE),
        "negative": ([-0.5, 1.5, 0.0], (NegativeMassError, "measure has a negative entry"),
                     (NegativeMassError, "measure has a negative entry"),
                     [-0.7, 1.2, -0.5], [0.7, -1.2, 0.5]),
        "wrong-mass": ([0.5, 0.2, 0.0], (MassMismatchError, "measure mass 0.7 is not 1"),
                       [0.7142857142857143, 0.28571428571428575, 0.0],
                       (MassMismatchError, "imbalance sums to -0.3, not 0"),
                       (MassMismatchError, "imbalance sums to 0.3, not 0")),
    }

    @pytest.mark.parametrize("case", CHECKS)
    def test_measure_checks_raise_in_a_fixed_order(self, case):
        values, *expected = self.CHECKS[case]

        def outcome(check, *args, **kwargs):
            try:
                return check(*args, **kwargs).tolist()
            except Exception as exc:
                return type(exc), str(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing or infinite sum warns nothing
            got = [outcome(ot.as_measure, values), outcome(ot.as_measure, values, normalize=True),
                   outcome(ot.imbalance, values, self.VALID),
                   outcome(ot.imbalance, self.VALID, values)]
        assert got == [e if isinstance(e, list) else tuple(e) for e in expected]

    #: pairs whose difference balances but which are not probability
    #: measures; the closed forms once returned a cost for them
    NOT_MEASURES = {"half-mass": ([0.5, 0, 0], [0, 0, 0.5]),
                    "double-mass": ([2.0, 0, 0], [0, 0, 2.0]),
                    "negative-entry": ([-0.5, 1.5, 0], [0, 0, 1.0])}

    @pytest.mark.parametrize("closed_form", ["tree_k_distance", "tree_potential", "beckmann_flow",
                                             "check_alternating_condition", "closed_form_plan",
                                             "line_w1"])
    @pytest.mark.parametrize("pair", NOT_MEASURES)
    def test_closed_forms_refuse_what_is_not_a_measure(self, closed_form, pair):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        on = [0.0, 1.0, 2.0] if closed_form == "line_w1" else ot.root_tree(g, [(0, 1), (1, 2)], 2)
        mu, nu = self.NOT_MEASURES[pair]
        kind = NegativeMassError if pair == "negative-entry" else MassMismatchError
        with pytest.raises(kind):
            getattr(ot, closed_form)(on, mu, nu)


class TestCumulativeImbalance:
    def test_cumulative_rows_every_root(self, line6):
        g, mu, nu = line6
        xi = ot.imbalance(mu, nu)
        for r, expected in CUMULATIVE_BY_ROOT.items():
            t = ot.root_tree(g, line6_edges(), r)
            assert np.allclose(ot.cumulative_imbalance(t, xi), expected, atol=1e-12)

    def test_zero_imbalance(self, line6):
        g, _, _ = line6
        t = ot.root_tree(g, line6_edges(), 3)
        assert np.all(ot.cumulative_imbalance(t, np.zeros(6)) == 0.0)

    def test_root_entry_vanishes(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 14, extra_edges=4)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, 14)
        cum = ot.cumulative_imbalance(t, ot.imbalance(mu, nu))
        assert abs(cum[t.root]) <= 1e-12


class TestTreeKDistance:
    def test_line6_value_every_root(self, line6):
        g, mu, nu = line6
        for r in range(6):
            t = ot.root_tree(g, line6_edges(), r)
            assert abs(ot.tree_k_distance(t, mu, nu) - 0.75) <= 1e-12

    def test_equal_measures_zero(self, line6):
        g, mu, _ = line6
        t = ot.root_tree(g, line6_edges(), 0)
        assert ot.tree_k_distance(t, mu, mu) == 0.0

    def test_rerooting_invariance_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 14))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            k0 = ot.tree_k_distance(t, mu, nu)
            for r in range(n):
                assert abs(ot.tree_k_distance(ot.reroot(t, r), mu, nu) - k0) <= 1e-9


class TestTreePotential:
    def test_line6_values(self, line6):
        g, mu, nu = line6
        t = ot.root_tree(g, line6_edges(), 5)
        u = ot.tree_potential(t, mu, nu)
        assert np.allclose(u.values, [-1, -2, -3, -2, -1, 0], atol=1e-12)
        assert u.values[u.anchor] == 0.0

    def test_duality_identity_line6(self, line6):
        g, mu, nu = line6
        t = ot.root_tree(g, line6_edges(), 5)
        u = ot.tree_potential(t, mu, nu)
        assert abs(np.dot(u.values, mu - nu) - 0.75) <= 1e-12

    def test_equal_measures_gives_distance_to_root(self, line6):
        g, mu, _ = line6
        t = ot.root_tree(g, line6_edges(), 5)
        u = ot.tree_potential(t, mu, mu)
        expected = [ot.tree_distance(t, v, 5) for v in range(6)]
        assert np.allclose(u.values, expected, atol=1e-12)

    def test_duality_and_lipschitz_random(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            u = ot.tree_potential(t, mu, nu)
            assert abs(np.dot(u.values, mu - nu) - ot.tree_k_distance(t, mu, nu)) <= 1e-9
            for v in range(n):
                p = int(t.parent[v])
                if p >= 0:
                    # tight on every tree edge
                    assert abs(abs(u.values[v] - u.values[p]) - t.weight_to_parent[v]) <= 1e-12
            d_t = ot.tree_distance_matrix(t)
            gaps = np.abs(u.values[:, None] - u.values[None, :]) - d_t
            assert gaps.max() <= 1e-9


class TestBeckmannFlow:
    def test_zero_flow_for_equal_measures(self, line6):
        g, mu, _ = line6
        t = ot.root_tree(g, line6_edges(), 5)
        f = ot.beckmann_flow(t, mu, mu)
        assert np.all(f.up == 0.0) and np.all(f.down == 0.0)

    def test_line6_parts(self, line6):
        g, mu, nu = line6
        t = ot.root_tree(g, line6_edges(), 5)
        f = ot.beckmann_flow(t, mu, nu)
        assert np.allclose(f.up[:5], [0.05, 0.1, 0, 0, 0], atol=1e-12)
        assert np.allclose(f.down[:5], [0, 0, 0.1, 0.2, 0.3], atol=1e-12)

    def test_divergence_matches_imbalance(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 16))
            g = random_tree_graph(rng, n)
            t = ot.random_spanning_tree(g, rng)
            mu, nu = random_measure_pair(rng, n)
            f = ot.beckmann_flow(t, mu, nu)
            assert np.max(np.abs(f.divergence(t) - (mu - nu))) <= 1e-12

    def test_one_direction_per_edge(self):
        rng = np.random.default_rng(16)
        g = random_tree_graph(rng, 12)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, 12)
        f = ot.beckmann_flow(t, mu, nu)
        assert np.all(f.up * f.down == 0.0)


class TestAlternatingCondition:
    def test_line6_false_for_every_root(self, line6):
        g, mu, nu = line6
        for r in range(6):
            t = ot.root_tree(g, line6_edges(), r)
            assert not ot.check_alternating_condition(t, mu, nu)

    def test_two_vertices_true(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        t = ot.root_tree(g, [(0, 1)], 1)
        assert ot.check_alternating_condition(t, [0.6, 0.4], [0.4, 0.6])

    def test_zero_imbalance_false(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        mu = np.full(3, 1 / 3)
        assert not ot.check_alternating_condition(t, mu, mu)


class TestClosedFormPlan:
    def test_two_vertex_example(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        t = ot.root_tree(g, [(0, 1)], 1)
        plan = ot.closed_form_plan(t, [0.6, 0.4], [0.4, 0.6])
        dense = plan.to_dense()
        assert abs(dense[0, 1] - 0.2) <= 1e-15
        assert abs(dense[0, 0] - 0.4) <= 1e-15
        assert abs(dense[1, 1] - 0.4) <= 1e-15

    def test_equal_measures_rejected(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        mu = np.full(3, 1 / 3)
        with pytest.raises(ConditionViolatedError):
            ot.closed_form_plan(t, mu, mu)

    def test_line6_rejected_every_root(self, line6):
        g, mu, nu = line6
        for r in range(6):
            t = ot.root_tree(g, line6_edges(), r)
            with pytest.raises(ConditionViolatedError):
                ot.closed_form_plan(t, mu, nu)

    def test_mixed_sign_root_children_stay_optimal(self):
        # the alternating condition does not constrain the root's children
        # against each other; with mixed signs the formula routes mass through
        # the root (off-minimal diagonal there) yet stays optimal
        g = ot.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (0, 2)], 0)
        mu = np.array([0.3, 0.45, 0.25])
        nu = np.array([0.3, 0.35, 0.35])
        assert ot.check_alternating_condition(t, mu, nu)
        plan = ot.closed_form_plan(t, mu, nu)
        d_t = ot.tree_distance_matrix(t)
        assert abs(ot.plan_cost(plan, d_t) - ot.tree_k_distance(t, mu, nu)) <= 1e-12
        assert np.max(np.abs(plan.row_sums() - mu)) <= 1e-12
        assert np.max(np.abs(plan.col_sums() - nu)) <= 1e-12
        dense = plan.to_dense()
        assert dense[0, 0] < min(mu[0], nu[0])  # mass transits the root


class TestPlanUtilities:
    def test_plan_cost_identity_zero(self):
        plan = ot.make_plan(3, [(0, 0, 0.5), (1, 1, 0.3), (2, 2, 0.2)])
        d = np.ones((3, 3)) - np.eye(3)
        assert ot.plan_cost(plan, d) == 0.0

    def test_plan_cost_dirac_path(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        d = ot.all_pairs_shortest_paths(g)
        plan = ot.make_plan(3, [(0, 2, 1.0)])
        assert ot.plan_cost(plan, d) == 2.0

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMassError):
            ot.make_plan(2, [(0, 1, -0.1)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(NonFiniteMassError):
            ot.make_plan(3, [(0, 2, 1.0), (0, 1, bad)])

    @pytest.mark.parametrize("entry, shown", [
        ((1.7, 0, 0.5), "(1.7,0)"),
        ((0, np.float64(2.0), 0.5), "(0,np.float64(2.0))"),
        ((True, 2, 0.5), "(True,2)"),
        ((0, np.True_, 0.5), "(0,np.True_)"),
    ])
    def test_non_integer_index_rejected(self, entry, shown):
        with pytest.raises(VertexRangeError, match=re.escape(f"plan entry {shown} has a non-integer index")):
            ot.make_plan(3, [(0, 2, 0.5), entry])

    def test_plan_to_flow_diagonal_only(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        plan = ot.make_plan(3, [(0, 0, 0.5), (2, 2, 0.5)])
        f = ot.plan_to_flow(plan, t)
        assert np.all(f.up == 0.0) and np.all(f.down == 0.0)

    def test_plan_to_flow_single_path(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        t = ot.root_tree(g, [(0, 1), (1, 2)], 2)
        f = ot.plan_to_flow(ot.make_plan(3, [(0, 2, 1.0)]), t)
        assert f.up[0] == 1.0 and f.up[1] == 1.0


class TestLineW1:
    def test_equal_measures(self):
        assert ot.line_w1([0.0, 1.0], [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_two_diracs(self):
        assert ot.line_w1([0.0, 1.0], [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_three_point_example(self):
        got = ot.line_w1([0.0, 1.0, 3.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0])
        assert abs(got - 2.5) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # a NaN point once gave a NaN distance, an infinite one an infinite distance
        points = [bad, 0.0] if bad < 0 else [0.0, bad]
        with pytest.raises(VertexRangeError, match="finite"):
            ot.line_w1(points, [1.0, 0.0], [0.0, 1.0])

    def test_matches_tree_distance_on_induced_line(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(2, 30))
            pts = np.sort(rng.uniform(0, 10, n))
            pts += np.arange(n) * 1e-3  # enforce strict increase
            mu, nu = random_measure_pair(rng, n)
            g = ot.build_graph(n, [(i, i + 1, float(pts[i + 1] - pts[i])) for i in range(n - 1)])
            t = ot.root_tree(g, [(i, i + 1) for i in range(n - 1)], n - 1)
            assert abs(ot.line_w1(pts, mu, nu) - ot.tree_k_distance(t, mu, nu)) <= 1e-12
