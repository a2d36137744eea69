"""Kantorovich (Wasserstein-1) distance on weighted graphs via spanning trees.

The transport cost for a tree ground metric has a closed form in the
cumulative imbalance of mu - nu over subtrees; minimizing it over rooted
spanning trees of a graph recovers the graph's Kantorovich distance. This
package provides the tree closed forms (distance, dual potential, Beckmann
flow, transport plans), a simulated-annealing search over spanning trees, an
exact LP solver used as ground truth, and a CLI.
"""

__version__ = "0.1.0"

from . import errors
from ._kernels import kernel_backend, numba_enabled
from .annealing import AnnealConfig, AnnealResult, TraceRecord, anneal, anneal_chains
from .graphs import (
    WeightedGraph,
    all_pairs_shortest_paths,
    build_graph,
    grid_graph,
    pair_distances,
)
from .oracle import (
    ExactSolution,
    NondegeneracyVerdict,
    Solution,
    check_complementary,
    check_cyclical_monotonicity,
    check_geodesic_support,
    check_lipschitz,
    check_vertex_support,
    check_weak_nondegeneracy,
    exact_k_distance,
    potential_match_up_to_constant,
    solve,
)
from .transport import (
    Flow,
    Potential,
    TransportPlan,
    as_measure,
    beckmann_flow,
    check_alternating_condition,
    closed_form_plan,
    cumulative_imbalance,
    dp_transport_plan,
    imbalance,
    line_w1,
    make_plan,
    plan_cost,
    plan_to_flow,
    tree_k_distance,
    tree_potential,
)
from .trees import (
    RootedTree,
    random_spanning_tree,
    reroot,
    root_tree,
    subtree_aggregate,
    tree_distance,
    tree_distance_matrix,
    tree_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
