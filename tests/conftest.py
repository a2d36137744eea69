"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's code paths: plain
Dijkstra, exhaustive path enumeration and direct subset scans serve as oracles
for the optimized implementations.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import treeot as ot
from treeot import _kernels
from treeot.trees import _from_parent_array

LINE6_XI = np.array([0.05, 0.05, -0.2, -0.1, -0.1, 0.3])


@pytest.fixture
def line6():
    """Unit-weight line on 6 vertices with the worked-example measures."""
    g = ot.build_graph(6, [(i, i + 1, 1.0) for i in range(5)])
    mu = np.full(6, 1 / 6) + LINE6_XI / 2
    nu = np.full(6, 1 / 6) - LINE6_XI / 2
    return g, mu, nu


def line6_edges():
    return [(i, i + 1) for i in range(5)]


def dijkstra_all_pairs(g: ot.WeightedGraph) -> np.ndarray:
    """Reference all-pairs distances via one Dijkstra per source."""
    n = g.n
    out = np.full((n, n), np.inf)
    for s in range(n):
        dist = out[s]
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d0, v = heapq.heappop(heap)
            if d0 > dist[v]:
                continue
            for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
                nd = d0 + w
                if nd < dist[nb]:
                    dist[nb] = nd
                    heapq.heappush(heap, (nd, int(nb)))
    return out


def brute_force_geodesic_edges(g: ot.WeightedGraph) -> set[tuple[int, int]]:
    """Edges on some shortest path, found by enumerating all simple paths."""
    n = g.n
    best = dijkstra_all_pairs(g)
    used: set[tuple[int, int]] = set()

    def walk(path, length):
        v = path[-1]
        for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
            nb = int(nb)
            if nb in path:
                continue
            walk(path + [nb], length + w)

    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            stack = [([s], 0.0)]
            while stack:
                path, length = stack.pop()
                v = path[-1]
                if v == t:
                    if abs(length - best[s, t]) <= 1e-12:
                        for a, b in zip(path, path[1:]):
                            used.add((min(a, b), max(a, b)))
                    continue
                if length > best[s, t] + 1e-12:
                    continue
                for nb, w in zip(g.neighbors(v), g.neighbor_weights(v)):
                    nb = int(nb)
                    if nb not in path:
                        stack.append((path + [nb], length + w))
    return used


def brute_force_weak_nondegeneracy(mu, nu, tol=1e-12) -> bool:
    """Direct scan of every proper nonempty subset."""
    xi = np.asarray(mu) - np.asarray(nu)
    n = xi.shape[0]
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            if abs(sum(xi[list(combo)])) <= tol:
                return False
    return True


def random_tree_graph(rng, n, weight_low=0.05, weight_high=1.0) -> ot.WeightedGraph:
    """Random labelled tree as a graph: vertex v attaches to a lower vertex."""
    edges = [
        (int(rng.integers(0, v)), v, float(rng.uniform(weight_low, weight_high)))
        for v in range(1, n)
    ]
    return ot.build_graph(n, edges)


def random_connected_graph(rng, n, extra_edges=3) -> ot.WeightedGraph:
    """Random tree plus a few chords, random weights."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(extra_edges):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((a, b))
    return ot.build_graph(
        n, [(a, b, float(rng.uniform(0.05, 1.0))) for a, b in sorted(edges)]
    )


def random_measure_pair(rng, n, floor=1e-3):
    mu = rng.random(n) + floor
    nu = rng.random(n) + floor
    return mu / mu.sum(), nu / nu.sum()


def blob_image(p, cx, cy, spread):
    yy, xx = np.mgrid[0:p, 0:p].astype(float)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * spread**2))


def noisy_grid_measures(p, seed, img_mu=None, img_nu=None, sigma=1e-3):
    """The lattice protocol: base images plus uniform noise, then normalize."""
    if img_mu is None:
        img_mu = blob_image(p, 0.2 * p, 0.2 * p, 0.28 * p)
    if img_nu is None:
        img_nu = blob_image(p, 0.58 * p, 0.53 * p, 0.33 * p)
    streams = np.random.SeedSequence(seed).spawn(2)
    mu = img_mu.reshape(-1) + np.random.default_rng(streams[0]).uniform(0, sigma, p * p)
    nu = img_nu.reshape(-1) + np.random.default_rng(streams[1]).uniform(0, sigma, p * p)
    return mu / mu.sum(), nu / nu.sum()


class SwapChain:
    """One annealing chain moved by the kernel's own step functions
    (``propose_root``, ``swap_delta``, ``apply_swap``, ``update_beta``), with
    the Metropolis rule and acceptance window of ``_kernels.anneal_chain``
    spelled out: a step-by-step reference for the fused kernel."""

    def __init__(self, g, tree, mu, nu, config):
        self.g = g
        self.config = config
        self.parent = tree.parent.copy()
        self.wpar = tree.weight_to_parent.copy()
        self.root = tree.root
        xi = ot.imbalance(ot.as_measure(mu, tree.n), ot.as_measure(nu, tree.n))
        self.xi_cum = ot.subtree_aggregate(tree, xi)
        # the kernel's summation order, so costs agree bit for bit
        self.cost = _kernels.tree_cost(self.parent, self.wpar, self.xi_cum)
        self.best_cost = self.cost
        self.beta = config.beta0
        self.bits = np.zeros(config.window, dtype=np.int64)
        self.bits_sum = 0
        self.bits_seen = 0

    def propose(self, rng):
        """``(new_root, w_added)``: the kernel's draw of a candidate root."""
        return _kernels.propose_root(self.g.indptr, self.g.indices, self.g.weights, self.root, rng)

    def delta(self, new_root, w_added):
        return _kernels.swap_delta(self.parent, self.wpar, self.xi_cum, self.root, new_root, w_added)

    def removed_edge(self, new_root):
        return (int(new_root), int(self.parent[new_root]))

    def step(self, new_root, w_added, u):
        """Accept iff u <= min(1, exp(beta * H)), apply in place and record
        the decision in the window; ``adapt`` then completes the kernel's
        iteration."""
        h = self.delta(new_root, w_added)
        accept = h >= 0.0 or u <= math.exp(self.beta * h)
        if accept:
            _kernels.apply_swap(self.parent, self.wpar, self.xi_cum, self.root, new_root, w_added)
            self.root = int(new_root)
            self.cost -= h
            if self.cost < self.best_cost:
                self.best_cost = self.cost
        window = self.config.window
        slot = self.bits_seen % window
        if self.bits_seen >= window:
            self.bits_sum -= int(self.bits[slot])
        self.bits[slot] = 1 if accept else 0
        self.bits_sum += int(self.bits[slot])
        self.bits_seen += 1

    def adapt(self):
        self.beta = _kernels.update_beta(self.beta, self.bits_sum, self.bits_seen,
                                         self.config.window, self.config.eta,
                                         self.config.target_accept)

    def tree(self):
        return _from_parent_array(self.root, self.parent, self.wpar)


def c_compiler_found() -> bool:
    """Whether ``$CC``, or else cc, gcc or clang, is on PATH."""
    cc = os.environ.get("CC")
    names = [shlex.split(cc)[0]] if cc else ["cc", "gcc", "clang"]
    return any(shutil.which(name) for name in names)


def compiled_backends() -> list[str]:
    """The compiled kernel backends this machine can run."""
    return ["c"] if c_compiler_found() else []


def run_python(code: str, backend: str | None = None, argv=(), **env_overrides):
    """Run ``code`` in a fresh interpreter on ``backend`` (default: unset),
    with ``argv`` as its arguments; ``TESTS_DIR`` in the code names this
    directory. The child imports the same treeot as this process, also when
    only pytest's ``pythonpath`` put it on ``sys.path``."""
    env = dict(os.environ, **env_overrides)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ot.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("TREEOT_BACKEND", None)
    if backend is not None:
        env["TREEOT_BACKEND"] = backend
    code = code.replace("TESTS_DIR", repr(os.path.dirname(os.path.abspath(__file__))))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_dir(tmp_path_factory):
    """Build the C annealing kernel under the session's temporary directory
    rather than in the user's cache; subprocesses inherit the setting."""
    patch = pytest.MonkeyPatch()
    patch.setenv("TREEOT_CACHE_DIR", str(tmp_path_factory.mktemp("kernel-cache")))
    yield
    patch.undo()
