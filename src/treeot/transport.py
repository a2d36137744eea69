"""Optimal transport with a tree ground metric.

Closed forms driven by the cumulative imbalance of mu - nu over subtrees:
distance, dual potential, Beckmann flow, the sign-alternating closed-form plan,
and a dynamic-programming construction of an optimal plan for arbitrary
measure pairs. Each checks its measures with :func:`as_measure`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConditionViolatedError,
    MassMismatchError,
    NegativeMassError,
    NonFiniteMassError,
    PlanError,
    VertexRangeError,
)
from .graphs import _integer, _real, _reals, _vertex_indices
from .trees import RootedTree, subtree_aggregate, tree_distance

#: Tolerance on total measure mass.
MASS_TOL = 1e-9


_quiet = np.errstate(over="ignore", invalid="ignore")  # no warning for sums that are not finite


@_quiet
def as_measure(values, n: int | None = None, normalize: bool = False) -> np.ndarray:
    """Validate (and optionally normalize) a finite, nonnegative unit-mass vector of reals.

    Normalizing divides by the sum; where finite entries overflow it, they
    are divided by the largest entry first."""
    mu = _reals(values, "measure entries", NonFiniteMassError).copy()
    if mu.ndim != 1 or (n is not None and mu.shape[0] != n):
        raise VertexRangeError(f"expected a flat vector of length {n}, got shape {mu.shape}")
    # only a non-finite sum, as of a NaN or an infinity, needs the entries read
    total = np.add.reduce(mu)
    if not math.isfinite(total) and not np.isfinite(mu).all():
        raise NonFiniteMassError("measure has a NaN or infinite entry")
    if mu.min(initial=0.0) < 0.0:
        raise NegativeMassError("measure has a negative entry")
    if normalize:
        if total <= 0.0:
            raise MassMismatchError("cannot normalize a zero-mass vector")
        if not math.isfinite(total):  # finite entries whose sum overflows
            mu /= mu.max()
            total = np.add.reduce(mu)
        if abs(total - 1.0) > MASS_TOL:  # keep valid measures bit-stable
            mu /= total
    elif abs(total - 1.0) > MASS_TOL:
        raise MassMismatchError(f"measure mass {float(total)!r} is not 1")
    return mu


@_quiet
def imbalance(mu, nu) -> np.ndarray:
    """Signed excess mu - nu of reals; rejects NaN and infinite entries and
    enforces the zero-sum invariant."""
    mu = _reals(mu, "measure entries", NonFiniteMassError)
    nu = _reals(nu, "measure entries", NonFiniteMassError)
    if mu.shape != nu.shape:
        raise VertexRangeError("measures live on different vertex sets")
    xi = mu - nu
    total = np.add.reduce(xi, axis=None)  # non-finite if an entry of mu or nu is, as in as_measure
    if not math.isfinite(total) and not (np.isfinite(mu).all() and np.isfinite(nu).all()):
        raise NonFiniteMassError("measure has a NaN or infinite entry")
    if abs(total) > MASS_TOL:
        raise MassMismatchError(f"imbalance sums to {float(total)!r}, not 0")
    return xi


@_quiet
def _checked(mu, nu, n: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mu``, ``nu`` checked by :func:`as_measure` and their :func:`imbalance`: one quiet scope."""
    mu, nu = as_measure.__wrapped__(mu, n), as_measure.__wrapped__(nu, n)  # undecorated
    return mu, nu, imbalance.__wrapped__(mu, nu)


def imbalance_zero(xi: np.ndarray) -> float:
    """The largest imbalance of a vertex set that counts as zero: |sum xi|,
    which the root absorbs, plus 4 n eps sum|xi|, over the rounding of a subtree
    sum, (n - 1) eps/2 sum|xi| (Higham, *Accuracy and Stability*, 2002, 4.2)."""
    return abs(float(xi.sum())) + 4 * xi.size * math.ulp(1.0) * float(np.abs(xi).sum())


def cumulative_imbalance(t: RootedTree, xi) -> np.ndarray:
    """Subtree sums of the imbalance: out[x] = sum of xi over the subtree at x."""
    return subtree_aggregate(t, xi)


def tree_k_distance(t: RootedTree, mu, nu) -> float:
    """Transport cost between mu and nu under the tree metric.

    Equals the sum over non-root vertices of w(x, parent) * |cumulative
    imbalance at x|; invariant under the choice of root.
    """
    xi_cum = cumulative_imbalance(t, _checked(mu, nu, t.n)[2])
    mask = t.parent >= 0
    return float(np.sum(t.weight_to_parent[mask] * np.abs(xi_cum[mask])))


def tree_potential(t: RootedTree, mu, nu) -> "Potential":
    """Dual potential for the tree metric, zero at the root.

    Walking root-to-leaves, each vertex adds w(x, parent) * sign(cumulative
    imbalance at x) to its parent's value, with sign +1 where it is exactly
    0; there an optimal tree's potential can fail to be 1-Lipschitz (see
    :func:`treeot.oracle.certified_dual`). The subtree sums and the walk are
    one call of :func:`treeot._kernels.tree_potential`, on the kernel backend.
    """
    xi = _checked(mu, nu, t.n)[2]
    u = _kernels.kernels().tree_potential(t, xi)[1]
    u.setflags(write=False)
    return Potential(values=u, anchor=t.root)


@dataclass(frozen=True)
class Potential:
    """Vertex potential with a distinguished anchor where it vanishes."""

    values: np.ndarray
    anchor: int

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Flow:
    """Arc flow on a rooted tree: per non-root vertex, mass moving towards the
    root (``up``) and away from it (``down``) across the parent edge."""

    up: np.ndarray
    down: np.ndarray

    @property
    def n(self) -> int:
        return self.up.shape[0]

    def divergence(self, t: RootedTree) -> np.ndarray:
        """Net outflow per vertex: matches mu - nu for an admissible flow."""
        child = np.flatnonzero(t.parent >= 0)
        inflow = np.bincount(t.parent[child], weights=self.down[child] - self.up[child],
                             minlength=self.n)
        return self.up - self.down + inflow


def beckmann_flow(t: RootedTree, mu, nu) -> Flow:
    """Optimal flow on the tree: positive/negative parts of the cumulative imbalance."""
    xi_cum = cumulative_imbalance(t, _checked(mu, nu, t.n)[2])
    up = np.where(t.parent >= 0, np.maximum(xi_cum, 0.0), 0.0)
    down = np.where(t.parent >= 0, np.maximum(-xi_cum, 0.0), 0.0)
    up.setflags(write=False)
    down.setflags(write=False)
    return Flow(up=up, down=down)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling: parallel arrays of (row, col, mass) with mass > 0,
    sorted lexicographically."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray

    @property
    def support_size(self) -> int:
        return self.rows.shape[0]

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.rows, self.mass)
        return out

    def col_sums(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.cols, self.mass)
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.n)
        on_diag = self.rows == self.cols
        np.add.at(out, self.rows[on_diag], self.mass[on_diag])
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        np.add.at(out, (self.rows, self.cols), self.mass)
        return out

    def entries(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.mass.tolist()))


def make_plan(n: int, triplets) -> TransportPlan:
    """Build a plan from (x, y, mass) triplets: coalesces duplicates, drops
    zeros, rejects negative and non-finite masses, sorts lexicographically.
    The numbers are read by README's "Numbers and vertices": an entry that
    is not three fields raises ``PlanError``, and an index that is not one
    integer ``VertexRangeError``, before any other check."""
    return _plan_from_entries(_integer(n, "plan size"), [_entry(e) for e in triplets])


def _plan_from_entries(n: int, entries) -> TransportPlan:
    """:func:`make_plan` over (int, int, float) triplets; an index past int64 saturates."""
    rows, cols, mass = zip(*entries) if entries else ((), (), ())
    return _assemble_plan(n, _vertex_indices(rows), _vertex_indices(cols),
                          np.array(mass, dtype=np.float64), entries)


def _entry(triplet) -> tuple[int, int, float]:
    """A plan entry, its indices as given for :func:`_check_entry`, its mass as a float."""
    try:
        x, y, m = triplet
    except (TypeError, ValueError):  # not iterable, or not three fields
        raise PlanError(f"plan entry {triplet!r} is not a triplet (x, y, mass)") from None
    with contextlib.suppress(VertexRangeError):
        if all(type(_vertex_indices(i)) is int for i in (x, y)):  # each one index
            return x, y, _real(m, f"the mass of plan entry ({x},{y})", NonFiniteMassError)
    raise VertexRangeError(f"plan entry ({x!r},{y!r}) has a non-integer index")


def _check_entry(n: int, x: int, y: int, m: float) -> None:
    if not (0 <= x < n and 0 <= y < n):
        raise VertexRangeError(f"plan entry ({x},{y}) out of range")
    if not math.isfinite(m):
        raise NonFiniteMassError(f"plan entry ({x},{y}) has non-finite mass {m}")
    if m < 0.0:
        raise NegativeMassError(f"plan entry ({x},{y}) has negative mass {m}")


def _assemble_plan(n: int, rows, cols, mass, entries=None) -> TransportPlan:
    """:func:`make_plan` over parallel arrays: the first offending entry, in
    input order, raises as :func:`_check_entry` says, with the values of
    ``entries`` when given; duplicates are summed in input order."""
    ok = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n) & np.isfinite(mass) & ~(mass < 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        _check_entry(n, *(entries[i] if entries is not None
                          else (int(rows[i]), int(cols[i]), float(mass[i]))))
    kept = mass > 0.0
    keys = rows[kept].astype(np.int64) * n + cols[kept].astype(np.int64)
    keys, slot = np.unique(keys, return_inverse=True)
    # bincount adds in input order, as a running sum per key would; it
    # returns int64 when there is nothing to add
    mass = np.bincount(slot, weights=mass[kept], minlength=keys.shape[0]).astype(np.float64)
    rows, cols = np.divmod(keys, n)
    for arr in (rows, cols, mass):
        arr.setflags(write=False)
    return TransportPlan(n=n, rows=rows, cols=cols, mass=mass)


def plan_cost(plan: TransportPlan, dist) -> float:
    """Total cost of a plan under a dense distance matrix, a tree metric (a
    :class:`RootedTree`, read on the support pairs only) or the distances at
    the support pairs themselves (a vector aligned with ``plan.rows``)."""
    return float(np.sum(plan.mass * _support_distances(plan, dist)))


def _support_distances(plan: TransportPlan, dist) -> np.ndarray:
    """Distances at the support pairs, from a dense matrix, a tree or a
    vector that already holds them."""
    if isinstance(dist, RootedTree):
        if dist.n != plan.n:
            raise VertexRangeError("tree size does not match plan")
        return tree_distance(dist, plan.rows, plan.cols)
    if dist.ndim == 1:
        if dist.shape != (plan.support_size,):
            raise VertexRangeError("support distances do not match the plan's support")
        return dist
    if dist.shape != (plan.n, plan.n):
        raise VertexRangeError("distance matrix shape does not match plan")
    return dist[plan.rows, plan.cols]


def check_alternating_condition(t: RootedTree, mu, nu) -> bool:
    """True iff the cumulative imbalance strictly alternates sign between every
    non-root vertex and each of its children."""
    xi_cum = cumulative_imbalance(t, _checked(mu, nu, t.n)[2])
    c = np.flatnonzero((t.parent >= 0) & (t.parent != t.root))
    return not np.any(xi_cum[c] * xi_cum[t.parent[c]] >= 0.0)


def closed_form_plan(t: RootedTree, mu, nu) -> TransportPlan:
    """Optimal plan in closed form, valid only under the sign-alternating
    condition: each non-root vertex exchanges its cumulative imbalance with its
    parent and the remainder stays on the diagonal."""
    if not check_alternating_condition(t, mu, nu):
        raise ConditionViolatedError("cumulative imbalance does not alternate signs")
    mu, _, xi = _checked(mu, nu, t.n)
    xi_cum = cumulative_imbalance(t, xi)
    child = np.flatnonzero(t.parent >= 0)
    parent = t.parent[child]
    # mass each vertex sends to its children, added in child order
    sent_down = np.bincount(parent, weights=np.maximum(-xi_cum[child], 0.0), minlength=t.n)
    stay = mu - np.maximum(xi_cum, 0.0) - sent_down
    if (stay < -MASS_TOL).any():
        x = int(np.argmax(stay < -MASS_TOL))
        raise ConditionViolatedError(f"negative diagonal mass {stay[x]} at vertex {x}")
    up = xi_cum[child] > 0.0
    diag = np.flatnonzero(stay > 0.0)
    return _assemble_plan(t.n, np.concatenate([np.where(up, child, parent), diag]),
                          np.concatenate([np.where(up, parent, child), diag]),
                          np.concatenate([np.abs(xi_cum[child]), stay[diag]]))


def dp_transport_plan(t: RootedTree, mu, nu) -> TransportPlan:
    """Optimal plan under the tree metric for arbitrary probability measures
    ``mu`` and ``nu`` on the tree's vertices.

    The diagonal is pinned to min(mu, nu). The leftover supplies and demands
    are matched in one pass from the leaves to the root: each vertex matches
    the unmatched supplies and demands that meet there (its own and those its
    children pass up), and passes the rest, all of one sign, to its parent.
    Every edge so carries exactly the cumulative imbalance of its subtree,
    which makes the plan optimal with at most n - 1 off-diagonal entries.
    Residues up to :func:`imbalance_zero` count as zero. The paper
    states that a dynamic program gives an optimal plan once an optimal
    tree is known; this pass is this library's construction of it, run on
    the kernel backend as :func:`treeot._kernels.dp_plan`, which writes the
    whole plan, diagonal included, in (row, col) order. The measures are
    checked as by :func:`tree_k_distance`: a negative, non-finite or wrongly
    sized entry, a mass other than 1 or an imbalance beyond ``MASS_TOL``
    raises.
    """
    mu, nu, _ = _checked(mu, nu, t.n)
    # exact unit sums so supply and demand cancel to rounding noise, not to the
    # 1e-9 ingestion tolerance, which would strand residuals at the root
    xi = mu / mu.sum() - nu / nu.sum()
    rows, cols, mass = _kernels.kernels().dp_plan(t, mu, nu, xi, imbalance_zero(xi))
    for arr in (rows, cols, mass):
        arr.setflags(write=False)
    return TransportPlan(n=t.n, rows=rows, cols=cols, mass=mass)


def plan_to_flow(plan: TransportPlan, t: RootedTree) -> Flow:
    """Total plan mass crossing each directed tree edge, accumulated over the
    tree paths of all support pairs: each pair walks to its lowest common
    ancestor (as in :func:`treeot.trees.tree_path`), and each edge adds the
    masses of the pairs crossing it in support order. The walk is
    :func:`treeot._kernels.tree_pairs`, run on the kernel backend."""
    sums = _kernels.kernels().tree_pairs(t, plan.rows, plan.cols, plan.mass)
    return Flow(up=sums[:t.n], down=sums[t.n:])


def line_w1(points, mu, nu) -> float:
    """Wasserstein-1 distance on the real line via the CDF formula:
    sum of gap lengths times |F_mu - F_nu|."""
    x = _reals(points, "points", VertexRangeError)
    if x.ndim != 1 or x.shape[0] < 1:
        raise VertexRangeError("points must be a flat, non-empty array")
    if not np.isfinite(x).all() or np.any(np.diff(x) <= 0.0):
        raise VertexRangeError("points must be finite and strictly increasing")
    xi = _checked(mu, nu, x.shape[0])[2]
    cdf_gap = np.cumsum(xi)[:-1]
    return float(np.sum(np.diff(x) * np.abs(cdf_gap)))
