"""Property tests on small random connected graphs and measure pairs.

W1 on a graph is the minimum of the tree distance over its spanning trees,
so the exact value is at most the tree distance of any Wilson tree, equals
it on a tree graph (whose only spanning tree is itself), and, being a
distance, does not change when mu and nu are swapped. ``solve``, the
network simplex on the graph's own arcs, finds the dense oracle's value, and
its potential certifies that value: it is 1-Lipschitz on every edge and its
duality value is the optimum. A ``RootedTree`` built from random parent
links, and a ``WeightedGraph`` from random CSR arrays and weights, is proven
the same way on every backend, as plain-loop references in ``conftest.py``
decide. The examples are derandomized, so every run checks the same ones.
"""

import functools
import math

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.errors import DisconnectedError, NotSpanningError
from treeot.oracle import lipschitz_violation
from treeot.trees import RootedTree

from conftest import (
    compiled_backends,
    raised,
    reference_csr_verdict,
    reference_order_depth,
    reference_reverse_arcs,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY_SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                                        database=None)
# the proofs are cheap, and most random links or arrays fail them
PROOF_SETTINGS = hypothesis.settings(PROPERTY_SETTINGS, max_examples=300)
# integer weights and masses tie distances and balance vertex sets
WEIGHTS = st.one_of(st.integers(1, 3).map(float), st.floats(0.05, 1.0))
MASSES = st.one_of(st.integers(0, 3).map(float), st.floats(0.001, 3.0))
# what a proven graph refuses
BAD_WEIGHTS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])


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


@functools.cache
def backends() -> dict:
    """Every backend's kernels, loaded on first use (inside the session's
    kernel cache)."""
    return {b: _kernels._LOADERS[b]() for b in ["python", *compiled_backends()]}


def built_on_every_backend(build) -> list:
    """What ``build()`` returns with each backend's kernels, or the ``(type,
    message)`` it raises."""
    out = []
    for k in backends().values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "kernels", lambda k=k: k)
            try:
                out.append(build())
            except Exception as exc:  # the type itself is what is compared
                out.append((type(exc), str(exc)))
    return out


@st.composite
def parent_links(draw):
    """A root and parent links on 1..9 vertices: a random rooted tree with up
    to three links rewritten (a cycle, a self-link, a second root, a link out
    of range or a parent for the root), sometimes a root out of range, as
    int64 or int32 links."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    parent = [-1] * n
    for i in range(1, n):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    for v, p in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, n + 1)),
                              max_size=3)):
        parent[v] = p
    root = draw(st.one_of(st.just(order[0]), st.integers(-1, n)))
    return root, np.array(parent, dtype=draw(st.sampled_from([np.int64, np.int32])))


@PROOF_SETTINGS
@hypothesis.given(parent_links())
def test_rooted_tree_is_proven_alike_on_every_backend(links):
    root, parent = links

    def orient():
        t = RootedTree(root, parent, np.ones(parent.shape[0]))
        return t.order.tolist(), t.depth.tolist()

    outcomes = built_on_every_backend(orient)
    assert all(o == outcomes[0] for o in outcomes)
    links = parent.tolist()
    expected = reference_order_depth(root, links)
    if expected is None:
        n = len(links)
        if not (0 <= root < n and links[root] == -1):
            fault = "the root is out of range or has a parent link"
        elif not all(-1 <= p < n for p in links):
            fault = "a parent link is out of range"
        else:
            fault = "parent links do not reach every vertex"
        assert outcomes[0] == (NotSpanningError, f"parent links are not a tree rooted at {root}: {fault}")
    else:
        assert outcomes[0] == tuple(a.tolist() for a in expected)


#: what ``csr_arrays`` breaks, one kind drawn per example
CSR_DEFECTS = ("none", "bad weight", "repeated edge", "dropped arc", "moved head",
               "asymmetric weight", "swapped arcs")


@st.composite
def csr_arrays(draw):
    """CSR arrays on 1..7 vertices holding both arcs of n - 1 to 12 random
    edges (self-loops only on one vertex), the two arcs of an edge with one
    weight, and one defect of ``CSR_DEFECTS``, its kind drawn once: an edge's
    weight not finite or not positive, an edge listed twice (with a weight of
    its own), or one arc dropped, its head moved (possibly out of range), its
    weight changed to another valid weight, or its place swapped with the next
    arc's."""
    n = draw(st.integers(1, 7))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)), WEIGHTS)
    edges = [(a, (a + d) % n, w) for a, d, w in draw(st.lists(ends, min_size=n - 1, max_size=12))]
    edges = list({(min(a, b), max(a, b)): (a, b, w) for a, b, w in edges}.values())
    defect = draw(st.sampled_from(CSR_DEFECTS))
    if edges and defect == "bad weight":
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = (*edges[k][:2], draw(BAD_WEIGHTS))
    elif edges and defect == "repeated edge":
        edges.append((*edges[draw(st.integers(0, len(edges) - 1))][:2], draw(WEIGHTS)))
    arcs = sorted(edges + [(b, a, w) for a, b, w in edges])
    if arcs and defect in CSR_DEFECTS[3:]:
        # the last arc has no next one to swap with
        k = draw(st.integers(0, len(arcs) - (2 if defect == "swapped arcs" else 1)))
        tail, head, w = arcs[k]
        if defect == "dropped arc":
            del arcs[k]
        elif defect == "moved head":
            arcs[k] = (tail, draw(st.integers(-1, n).filter(lambda h: h != head)), w)
        elif defect == "asymmetric weight":
            arcs[k] = (tail, head, draw(WEIGHTS.filter(lambda x: x != w)))
        else:
            arcs[k:k + 2] = arcs[k:k + 2][::-1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([a for a, _, _ in arcs], minlength=n), out=indptr[1:])
    return (n, indptr, np.array([b for _, b, _ in arcs], dtype=np.int64),
            np.array([w for _, _, w in arcs], dtype=np.float64))


@PROOF_SETTINGS
@hypothesis.given(csr_arrays())
def test_weighted_graph_is_proven_alike_on_every_backend(csr):
    n, indptr, indices, weights = csr

    def build():
        g = ot.WeightedGraph(n, indptr.copy(), indices.copy(), weights.copy())
        return "built", ot.random_spanning_tree(g, np.random.default_rng(0)).n

    outcomes = built_on_every_backend(build)
    assert all(o == outcomes[0] for o in outcomes)
    expected = reference_csr_verdict(n, indptr, indices, weights)
    if expected is None:
        assert outcomes[0] == ("built", n)
    else:
        assert outcomes[0][0] is expected


REVERSE_ARC_MISSING = (ValueError, "graph CSR: an arc has no reverse arc of the same weight")


def csr_of(n, indptr, indices, weights):
    return (n, np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(weights, dtype=np.float64))


@PROOF_SETTINGS
@hypothesis.given(csr_arrays())
# the drawn CSRs that reach the reverse-arc check all lack an arc; these
# examples have every arc, with one weight asymmetric or none
@hypothesis.example(csr_of(2, [0, 1, 2], [1, 0], [1.0, 3.0]))
@hypothesis.example(csr_of(3, [0, 2, 4, 6], [1, 2, 0, 2, 0, 1], [1.0, 2.0, 1.0, 0.5, 2.0, 0.25]))
@hypothesis.example(csr_of(3, [0, 2, 4, 6], [1, 2, 0, 2, 0, 1], [1.0, 2.0, 1.0, 0.5, 2.0, 0.5]))
def test_reverse_arc_check_agrees_with_the_lookup_reference(csr):
    n, indptr, indices, weights = csr
    got = raised(ot.WeightedGraph, n, indptr.copy(), indices.copy(), weights.copy())
    # the CSRs that pass every check before the reverse-arc one reach it
    if got is None or got[0] is DisconnectedError or got == REVERSE_ARC_MISSING:
        expected = raised(reference_reverse_arcs, n, indptr, indices, weights)
        assert (got if got == REVERSE_ARC_MISSING else None) == expected
