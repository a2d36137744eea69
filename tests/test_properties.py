"""Property tests on small random connected graphs and measure pairs.

W1 on a graph is the minimum of the tree distance over its spanning trees,
so the exact value is at most the tree distance of any Wilson tree, equals
it on a tree graph (whose only spanning tree is itself), and, being a
distance, does not change when mu and nu are swapped. ``solve``, the
network simplex on the graph's own arcs, finds the dense oracle's value, and
its potential certifies that value: it is 1-Lipschitz on every edge and its
duality value is the optimum. The examples are derandomized, so every run
checks the same ones.
"""

import numpy as np
import pytest

import treeot as ot
from treeot.oracle import lipschitz_violation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY_SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                                        database=None)
# integer weights and masses tie distances and balance vertex sets
WEIGHTS = st.one_of(st.integers(1, 3).map(float), st.floats(0.05, 1.0))
MASSES = st.one_of(st.integers(0, 3).map(float), st.floats(0.001, 3.0))


@st.composite
def instances(draw, tree_only=False):
    """A connected graph on 2..9 vertices (a random tree plus, unless
    ``tree_only``, up to n extra edges) and a probability measure pair."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v): draw(WEIGHTS) for v in range(1, n)}
    if not tree_only:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in draw(st.lists(pairs, max_size=n)):
            if a != b:
                edges.setdefault((min(a, b), max(a, b)), draw(WEIGHTS))
    mu = np.array(draw(st.lists(MASSES, min_size=n, max_size=n)))
    nu = np.array(draw(st.lists(MASSES, min_size=n, max_size=n)))
    mu[0] += 1.0  # neither measure is all zero
    nu[n - 1] += 1.0
    g = ot.build_graph(n, [(a, b, w) for (a, b), w in sorted(edges.items())])
    return g, mu / mu.sum(), nu / nu.sum()


def exact_value(g, mu, nu):
    return ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value


@PROPERTY_SETTINGS
@hypothesis.given(instances(), st.integers(0, 2**32 - 1))
def test_exact_value_is_at_most_any_wilson_tree_distance(instance, seed):
    g, mu, nu = instance
    tree = ot.random_spanning_tree(g, np.random.default_rng(seed))
    tree_value = ot.tree_k_distance(tree, mu, nu)
    assert exact_value(g, mu, nu) <= tree_value + 1e-12 * max(1.0, tree_value)


@PROPERTY_SETTINGS
@hypothesis.given(instances(tree_only=True))
def test_exact_value_is_the_tree_distance_on_a_tree_graph(instance):
    g, mu, nu = instance
    tree_value = ot.tree_k_distance(ot.random_spanning_tree(g, np.random.default_rng(0)), mu, nu)
    assert abs(exact_value(g, mu, nu) - tree_value) <= 1e-12 * max(1.0, tree_value)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_exact_value_is_symmetric_in_mu_and_nu(instance):
    g, mu, nu = instance
    value = exact_value(g, mu, nu)
    assert abs(exact_value(g, nu, mu) - value) <= 1e-12 * max(1.0, value)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_solve_on_graph_arcs_finds_the_dense_oracle_value(instance):
    g, mu, nu = instance
    value = exact_value(g, mu, nu)
    assert abs(ot.solve(g, mu, nu).value - value) <= 1e-12 * max(1.0, value)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_solve_potential_is_lipschitz_on_every_edge(instance):
    g, mu, nu = instance
    assert lipschitz_violation(ot.solve(g, mu, nu).potential, g) <= 1e-12 * g.weights.max()


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_solve_potential_duality_value_is_the_solve_value(instance):
    g, mu, nu = instance
    sol = ot.solve(g, mu, nu)
    assert sol.potential.values[0] == 0.0
    duality = float(np.dot(sol.potential.values, mu - nu))
    assert abs(duality - sol.value) <= 1e-12 * max(1.0, sol.value)
