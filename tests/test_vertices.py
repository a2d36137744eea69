"""One rule reads every vertex argument: a Python or numpy integer, never a
bool or a float, and in ``0..n-1`` where the argument names a vertex of a
graph or tree. A bad value raises with the value as given, on every backend.
The integer rule also reads every count and integer setting, and the real
rule (a real number, never a bool, a string or None) every weight, mass,
distance, point and real setting."""

import re

import numpy as np
import pytest

import treeot as ot
from treeot.errors import (EdgeNotInGraphError, NonFiniteMassError, NonFiniteWeightError,
                           NotSpanningError, VertexRangeError)
from treeot.graphs import _vertex_indices
from treeot.trees import RootedTree

# grid_graph(2): vertices 0 1 / 2 3 and edges {0,1}, {0,2}, {1,3}, {2,3}
EDGES = [(0, 1), (1, 3), (0, 2)]
N = 4
GRID2_ROWS = [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)]

# every public vertex argument, as a call on one bad value v, and what an
# integer out of range gives there: the range check of the argument
# (VertexRangeError), the tree proof's (NotSpanningError), or no arc
ARGUMENTS = {
    "RootedTree root": (lambda g, t, v: RootedTree(v, [2, 0, -1, 2], np.ones(N)), NotSpanningError),
    "root_tree root": (lambda g, t, v: ot.root_tree(g, EDGES, v), VertexRangeError),
    "root_tree tail": (lambda g, t, v: ot.root_tree(g, [(v, 1), (1, 3), (0, 2)], 0),
                       EdgeNotInGraphError),
    "root_tree head": (lambda g, t, v: ot.root_tree(g, [(0, 1), (1, v), (0, 2)], 0),
                       EdgeNotInGraphError),
    "reroot": (lambda g, t, v: ot.reroot(t, v), VertexRangeError),
    "tree_path x": (lambda g, t, v: ot.tree_path(t, v, 0), VertexRangeError),
    "tree_path y": (lambda g, t, v: ot.tree_path(t, 0, v), VertexRangeError),
    "tree_distance x": (lambda g, t, v: ot.tree_distance(t, v, 0), VertexRangeError),
    "tree_distance ys": (lambda g, t, v: ot.tree_distance(t, [0, 1], [2, v]), VertexRangeError),
    "pair_distances xs": (lambda g, t, v: ot.pair_distances(g, [1, v], [0, 0]), VertexRangeError),
    "pair_distances ys": (lambda g, t, v: ot.pair_distances(g, [0], [v]), VertexRangeError),
    "arc_index": (lambda g, t, v: int(g.arc_index(v, 0)), -1),
    "arc_index heads": (lambda g, t, v: g.arc_index([0, 0], [1, v]).tolist(), [0, -1]),
    "has_edge": (lambda g, t, v: g.has_edge(0, v), False),
    "edge_weight": (lambda g, t, v: g.edge_weight(v, 0), EdgeNotInGraphError),
    "neighbors": (lambda g, t, v: g.neighbors(v), VertexRangeError),
    "neighbor_weights": (lambda g, t, v: g.neighbor_weights(v), VertexRangeError),
    "make_plan x": (lambda g, t, v: ot.make_plan(N, [(0, 0, 0.5), (v, 0, 0.5)]), VertexRangeError),
    "make_plan y": (lambda g, t, v: ot.make_plan(N, [(0, v, 1.0)]), VertexRangeError),
    "build_graph tail": (lambda g, t, v: ot.build_graph(N, [(v, 1, 1.0)] + GRID2_ROWS[1:]),
                         VertexRangeError),
    "build_graph head": (lambda g, t, v: ot.build_graph(N, GRID2_ROWS[:1] + [(1, v, 1.0)]
                                                        + GRID2_ROWS[2:]), VertexRangeError),
}
NOT_INTEGERS = [0.9, True, np.float64(1.0)]
OUT_OF_RANGE = [2**63, 10**30, -1, N]


@pytest.fixture
def graph_and_tree(backend):
    g = ot.grid_graph(2)
    return g, ot.root_tree(g, EDGES, 2)


def names(message: str, value) -> bool:
    """Whether ``message`` names ``value`` as given: its repr, not a
    neighbouring number (the graph's size is set apart)."""
    return re.search(rf"(?<![\d.-]){re.escape(repr(value))}(?![\d.])",
                     message.replace(f"n={N}", "")) is not None


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_float_or_bool_is_no_vertex(graph_and_tree, argument, value):
    call, _ = ARGUMENTS[argument]
    with pytest.raises(VertexRangeError) as caught:
        call(*graph_and_tree, value)
    assert names(str(caught.value), value), str(caught.value)


@pytest.mark.parametrize("value", OUT_OF_RANGE, ids=str)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_an_integer_out_of_range_is_named_as_given(graph_and_tree, argument, value):
    call, outcome = ARGUMENTS[argument]
    if not isinstance(outcome, type):
        assert call(*graph_and_tree, value) == outcome
        return
    with pytest.raises(outcome) as caught:
        call(*graph_and_tree, value)
    assert type(caught.value) is outcome and names(str(caught.value), value), str(caught.value)


# the misreads the reader replaced, each once read as a vertex or a missing
# one, or (2**63 and 10**30) named as another index or a dtype; with the
# text each message must show
RING = [(i, (i + 1) % 6, 1.0) for i in range(6)]
MISREADS = [
    pytest.param(lambda g, t: RootedTree(0.9, [-1, 0, 1], [1.0, 1.0, 1.0]), "0.9", id="root-0.9"),
    pytest.param(lambda g, t: RootedTree(True, [1, -1, 1], [1.0, 1.0, 1.0]), "True", id="root-True"),
    pytest.param(lambda g, t: g.has_edge(0.5, 1), "0.5", id="has_edge-0.5"),
    pytest.param(lambda g, t: g.edge_weight(1.9, 0), "1.9", id="edge_weight-1.9"),
    pytest.param(lambda g, t: g.neighbors(-1), "vertex -1 ", id="neighbors--1"),
    pytest.param(lambda g, t: g.neighbors(4), "vertex 4 ", id="neighbors-4"),
    pytest.param(lambda g, t: ot.tree_distance(t, [1, True], [0, 0]), "True", id="tree_distance"),
    pytest.param(lambda g, t: ot.pair_distances(g, [1, True], [0, 0]), "True", id="pair_distances"),
    pytest.param(lambda g, t: ot.make_plan(4, [(1, True, 1.0)]), "(1,True)", id="make_plan"),
    pytest.param(lambda g, t: ot.root_tree(g, [(0.5, 1), (1, 3), (0, 2)], 0), "0.5",
                 id="root_tree-end-0.5"),
    # a case that the orientation test against the reference once accepted
    pytest.param(lambda g, t: ot.root_tree(ot.build_graph(6, RING),
                                           [(True, 2.7), (1, 0), (3.0, 2), (4, 3), (5, 4)], 0),
                 "True", id="root_tree-ends-True-2.7"),
    pytest.param(lambda g, t: ot.root_tree(g, EDGES, 2**63), "vertex 9223372036854775808 ",
                 id="root_tree-root-2**63"),
    pytest.param(lambda g, t: ot.root_tree(g, EDGES, 10**30), f"vertex {10**30} ",
                 id="root_tree-root-10**30"),
    pytest.param(lambda g, t: ot.reroot(t, 2**63), "vertex 9223372036854775808 ", id="reroot-2**63"),
    pytest.param(lambda g, t: ot.tree_path(t, 0, 10**30), f"vertex {10**30} ", id="tree_path-10**30"),
]


@pytest.mark.parametrize("call, shown", MISREADS)
def test_each_former_misread_raises(graph_and_tree, call, shown):
    with pytest.raises(VertexRangeError, match=re.escape(shown)):
        call(*graph_and_tree)


@pytest.mark.parametrize("dtype", [np.uint64, np.int32, np.uint8])
def test_numpy_ends_of_any_integer_dtype_orient_as_python_ints_do(backend, dtype):
    g = ot.grid_graph(2)
    want = ot.root_tree(g, EDGES, 0)
    for edges in (np.array(EDGES, dtype=dtype), [tuple(map(dtype, pair)) for pair in EDGES]):
        got = ot.root_tree(g, edges, dtype(0))
        assert got.root == want.root and got.parent.tolist() == want.parent.tolist()


# every count, weight, mass and scalar argument that the integer rule or the
# real rule reads, as a call on one value v: (call, the error a value that
# breaks the rule raises, the rule, a numpy scalar the call accepts)
# AnnealConfig and anneal's target_cost raise ValueError, as they document;
# every other argument raises its TreeOTError subclass
NUMBERS = {
    "build_graph vertex_count": (lambda v: ot.build_graph(v, [(0, 1, 1.0)]), VertexRangeError,
                                 "integer", np.int64(2)),
    "grid_graph p": (lambda v: ot.grid_graph(v), VertexRangeError, "integer", np.uint8(3)),
    "make_plan n": (lambda v: ot.make_plan(v, [(0, 0, 1.0)]), VertexRangeError, "integer", np.int32(2)),
    "AnnealConfig max_iters": (lambda v: ot.AnnealConfig(max_iters=v), ValueError, "integer",
                               np.int64(10)),
    "AnnealConfig seed": (lambda v: ot.AnnealConfig(1, seed=v), ValueError, "integer", np.uint32(5)),
    "AnnealConfig record_every": (lambda v: ot.AnnealConfig(1, record_every=v), ValueError, "integer",
                                  np.int16(7)),
    "build_graph weight": (lambda v: ot.build_graph(2, [(0, 1, v)]), NonFiniteWeightError, "real",
                           np.float32(0.5)),
    "grid_graph weight": (lambda v: ot.grid_graph(2, v), NonFiniteWeightError, "real or None",
                          np.int64(2)),
    "AnnealConfig beta0": (lambda v: ot.AnnealConfig(1, beta0=v), ValueError, "real", np.float64(2.0)),
    "AnnealConfig eta": (lambda v: ot.AnnealConfig(1, eta=v), ValueError, "real", np.float32(0.01)),
    "anneal target_cost": (lambda v: ot.anneal(ot.grid_graph(2), [1.0, 0, 0, 0], [0, 0, 0, 1.0],
                                               ot.AnnealConfig(10), target_cost=v),
                           ValueError, "real or None", np.float64(0.5)),
    "as_measure entry": (lambda v: ot.as_measure([v, 0.5]), NonFiniteMassError, "real",
                         np.float64(0.5)),
    "imbalance mu entry": (lambda v: ot.imbalance([v, 0.5], [0.5, 0.5]), NonFiniteMassError, "real",
                           np.float16(0.5)),
    "imbalance nu entry": (lambda v: ot.imbalance([0.5, 0.5], [0.5, v]), NonFiniteMassError, "real",
                           np.float64(0.5)),
    "make_plan mass": (lambda v: ot.make_plan(2, [(0, 0, v)]), NonFiniteMassError, "real",
                       np.float64(1.0)),
    "exact_k_distance dist": (lambda v: ot.exact_k_distance([[0.0, v], [v, 0.0]], [1.0, 0], [0, 1.0]),
                              NonFiniteWeightError, "real", np.float64(0.5)),
    "RootedTree weight": (lambda v: RootedTree(0, [-1, 0], [0.0, v]), NonFiniteWeightError, "real",
                          np.float64(2.5)),
    "subtree_aggregate value": (lambda v: ot.subtree_aggregate(RootedTree(0, [-1, 0], [1.0, 1.0]),
                                                               [v, 0.0]),
                                NonFiniteMassError, "real", np.float64(1.0)),
    "line_w1 point": (lambda v: ot.line_w1([0.0, v], [1.0, 0], [0, 1.0]), VertexRangeError, "real",
                      np.float64(0.5)),
}
# None is the default of the two optional reals: no weight given, no target
BREAKS = {"integer": [True, "0.5", None, 2.0], "real": [True, "0.5", None],
          "real or None": [True, "0.5"]}


@pytest.mark.parametrize("argument, value", [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, (_, _, rule, _) in NUMBERS.items() for value in BREAKS[rule]])
def test_a_value_that_breaks_its_rule_is_named_as_given(argument, value):
    call, error, _, _ = NUMBERS[argument]
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error and names(str(caught.value), value), str(caught.value)


@pytest.mark.parametrize("argument", NUMBERS)
def test_a_numpy_scalar_is_read_as_its_number(argument):
    call, _, _, scalar = NUMBERS[argument]
    call(scalar)


class TestReader:
    def test_one_index_comes_back_as_a_python_int(self):
        for value in (3, np.int64(3), np.uint8(3), np.array(3)):
            assert type(_vertex_indices(value, 4)) is int and _vertex_indices(value) == 3

    def test_arrays_come_back_as_int64_of_their_shape(self):
        for values in ([[0, 1], [2, 3]], np.arange(4, dtype=np.uint32).reshape(2, 2),
                       [np.int64(0), np.uint64(1), 2, 3]):
            got = _vertex_indices(values, 4)
            assert got.dtype == np.int64 and got.reshape(-1).tolist() == [0, 1, 2, 3]

    def test_beyond_int64_saturates_without_a_range(self):
        assert _vertex_indices(2**63) == 2**63 - 1 and _vertex_indices(-10**30) == -2**63
        assert _vertex_indices([2**63, -1, -10**30]).tolist() == [2**63 - 1, -1, -2**63]
        assert _vertex_indices(np.array([2**64 - 1], dtype=np.uint64)).tolist() == [2**63 - 1]

    @pytest.mark.parametrize("values", [[0, np.True_], np.array([True]), [None], "1", [1.0],
                                        np.array([0.0, 1.0]), [[0, 1], [2, False]]])
    def test_no_bool_float_or_other_object_passes(self, values):
        with pytest.raises(VertexRangeError, match="must be integers"):
            _vertex_indices(values)

    def test_an_empty_input_passes_whatever_its_dtype(self):
        for values in ([], np.array([], dtype=np.float64), ()):
            assert _vertex_indices(values, 4).shape == (0,)

