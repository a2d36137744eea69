"""Independent W1 reference: min-cost flow over the graph's own edges.

The transport problem on a graph is solved as an uncapacitated min-cost flow
with supply ``mu - nu``, by ``networkx.network_simplex`` on integer data.
Demands are the floats' binary values scaled by 2**96 and weights by 2**64,
so the scaling rounds by less than 1e-28 of the total mass; the only other
inexact step moves the float residual of ``sum(mu) - sum(nu)`` (about 1e-16)
onto one vertex. Nothing here calls treeot.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx

DEMAND_BITS = 96
WEIGHT_BITS = 64


def _scaled(x: float, bits: int) -> int:
    return round(Fraction(float(x)) * (1 << bits))


def reference_w1(n: int, edges, mu, nu) -> float:
    """W1 between ``mu`` and ``nu`` on the undirected graph ``(n, edges)``
    with ``edges`` given as ``(u, v, weight)``."""
    # networkx convention: demand = inflow - outflow, so sources are negative
    demand = [_scaled(nu[v], DEMAND_BITS) - _scaled(mu[v], DEMAND_BITS) for v in range(n)]
    heaviest = max(range(n), key=lambda v: abs(demand[v]))
    demand[heaviest] -= sum(demand)
    g = nx.DiGraph()
    for v in range(n):
        g.add_node(v, demand=demand[v])
    for u, v, w in edges:
        cost = _scaled(w, WEIGHT_BITS)
        g.add_edge(int(u), int(v), weight=cost)
        g.add_edge(int(v), int(u), weight=cost)
    flow_cost, _ = nx.network_simplex(g)
    return float(Fraction(flow_cost, 1 << (DEMAND_BITS + WEIGHT_BITS)))
