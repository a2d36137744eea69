"""Tests of the benchmark's own arithmetic: span self time, failure share and
the networkx reference.

    python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import treeot as ot  # noqa: E402
from reference import reference_w1  # noqa: E402
from run import tally  # noqa: E402
from spans import Span, Tracer, covered_time, self_times, totals_by_name  # noqa: E402
from workloads import OpCheck, noisy_blob_measures, tree_cost  # noqa: E402


def test_self_time_nested_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 2.0, 8.0, parent=0), Span("c", 3.0, 5.0, parent=1)]
    assert self_times(spans) == [4.0, 4.0, 2.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_sibling_spans():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 3.0, parent=0), Span("b", 5.0, 6.0, parent=0)]
    assert self_times(spans) == [7.0, 2.0, 1.0]
    assert totals_by_name(spans) == {"a": (7.0, 1), "b": (3.0, 2)}


def test_self_time_counts_overlapping_children_once():
    # two chains on threads under one call: their union covers 1..7
    spans = [Span("a", 0.0, 8.0), Span("t", 1.0, 6.0, parent=0), Span("t", 2.0, 7.0, parent=0)]
    assert self_times(spans)[0] == 2.0
    assert covered_time(0.0, 4.0, [(3.0, 9.0), (-1.0, 1.0)]) == 2.0


def test_tracer_rebinds_callers_names_and_restores_them():
    import treeot.cli
    import treeot.oracle

    original = treeot.cli.all_pairs_shortest_paths
    tracer = Tracer()
    with tracer.installed():
        assert treeot.cli.all_pairs_shortest_paths is not original
        assert treeot.all_pairs_shortest_paths is treeot.cli.all_pairs_shortest_paths
        g = ot.grid_graph(3)
        ot.exact_k_distance(ot.all_pairs_shortest_paths(g), [1, 0, 0, 0, 0, 0, 0, 0, 0],
                            [0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert treeot.cli.all_pairs_shortest_paths is original
    names = [s.name for s in tracer.spans]
    assert names == ["graphs.build_graph", "graphs.all_pairs_shortest_paths", "oracle.exact_k_distance"]
    assert all(s.parent is None for s in tracer.spans)


def test_failed_share():
    ok = OpCheck("ok", [], 1.0, True, 0)
    bad = OpCheck("bad", ["verify exited 3, reference says 0"], 1.2, False, 5)
    passes = [{"checks": [ok, bad, ok]}, {"checks": [ok]}]
    attempted, failed = tally(passes)
    assert (attempted, failed) == (4, [bad])
    assert len(failed) / attempted == 0.25


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matches_exact_on_4x4(seed):
    g = ot.grid_graph(4)
    mu, nu = noisy_blob_measures(4, seed)
    exact = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value
    assert abs(reference_w1(g.n, g.edges, mu, nu) - exact) <= 1e-12


def test_tree_cost_matches_closed_form():
    g = ot.grid_graph(4)
    mu, nu = noisy_blob_measures(4, 5)
    t = ot.random_spanning_tree(g, np.random.default_rng(0))
    weights = {(min(u, v), max(u, v)): w for u, v, w in g.edges}
    own = tree_cost(g.n, t.root, sorted(t.edge_set()), weights, mu - nu)
    assert abs(own - ot.tree_k_distance(t, mu, nu)) <= 1e-15
