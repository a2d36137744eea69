import json
import math

import numpy as np
import pytest

import treeot as ot

from treeot import _kernels

from conftest import (
    SwapChain,
    c_compiler_found,
    compiled_backends,
    noisy_grid_measures,
    random_measure_pair,
    run_python,
)


def fresh_state(g, mu, nu, cfg, seed):
    rng = np.random.default_rng(seed)
    tree = ot.random_spanning_tree(g, rng)
    return SwapChain(g, tree, mu, nu, cfg), rng


def rebuild_candidate_tree(state, new_root, g):
    """The candidate tree, built from scratch for reference."""
    edges = {(min(v, int(state.parent[v])), max(v, int(state.parent[v])))
             for v in range(len(state.parent)) if state.parent[v] >= 0}
    a, b = state.removed_edge(new_root)
    edges.discard((min(a, b), max(a, b)))
    a, b = state.root, int(new_root)
    edges.add((min(a, b), max(a, b)))
    return ot.root_tree(g, sorted(edges), int(new_root))


class TestProposeMove:
    def test_tree_graph_moves_keep_edges(self):
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
        cfg = ot.AnnealConfig(max_iters=10, seed=0)
        state, rng = fresh_state(g, np.full(4, 0.25), np.full(4, 0.25), cfg, 1)
        for _ in range(20):
            new_root, _ = state.propose(rng)
            added = frozenset((state.root, int(new_root)))
            removed = frozenset(state.removed_edge(new_root))
            assert added == removed  # pure root relocation on a tree graph

    def test_two_vertices_single_neighbor(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        state, rng = fresh_state(g, [0.6, 0.4], [0.4, 0.6], cfg, 2)
        new_root, _ = state.propose(rng)
        assert new_root == 1 - state.root

    def test_uniform_over_grid_neighbors(self):
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(0), 9)
        state, _ = fresh_state(g, mu, nu, cfg, 3)
        # force the root to the center vertex, which has four neighbours
        tree = ot.reroot(state.tree(), 4)
        state = SwapChain(g, tree, mu, nu, cfg)
        rng = np.random.default_rng(1234)
        draws = 10_000
        counts = {}
        for _ in range(draws):
            new_root, _ = state.propose(rng)
            counts[int(new_root)] = counts.get(int(new_root), 0) + 1
        assert sorted(counts) == [1, 3, 5, 7]
        for c in counts.values():
            assert abs(c / draws - 0.25) <= 0.02


class TestHamiltonianDelta:
    def test_identity_move_zero(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        state, rng = fresh_state(g, [0.5, 0.3, 0.2], [0.2, 0.3, 0.5], cfg, 4)
        new_root, w_added = state.propose(rng)
        # on a tree graph every move swaps an edge with itself
        assert state.delta(new_root, w_added) == 0.0

    def test_equal_measures_zero_for_all_moves(self):
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu = np.full(9, 1 / 9)
        state, rng = fresh_state(g, mu, mu, cfg, 5)
        for _ in range(50):
            new_root, w_added = state.propose(rng)
            assert state.delta(new_root, w_added) == 0.0
            state.step(new_root, w_added, rng.random())

    def test_matches_from_scratch_recomputation(self):
        g = ot.grid_graph(5)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(1000)
        checked = 0
        for trial in range(40):
            mu, nu = random_measure_pair(rng_inst, 25)
            state, rng = fresh_state(g, mu, nu, cfg, 2000 + trial)
            for _ in range(25):
                new_root, w_added = state.propose(rng)
                h = state.delta(new_root, w_added)
                t_cand = rebuild_candidate_tree(state, new_root, g)
                h_ref = state.cost - ot.tree_k_distance(t_cand, mu, nu)
                assert abs(h - h_ref) <= 1e-9
                state.step(new_root, w_added, rng.random())
                checked += 1
        assert checked == 1000


class TestAcceptStep:
    def test_improvement_always_accepted(self):
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(2), 9)
        state, rng = fresh_state(g, mu, nu, cfg, 6)
        for _ in range(200):
            new_root, w_added = state.propose(rng)
            h = state.delta(new_root, w_added)
            before = state.cost
            beta = state.beta
            state.step(new_root, w_added, 1.0 - 1e-12)  # worst draw
            if h >= 0:
                assert state.cost == before - h  # always accepted
            elif math.exp(beta * h) < 1.0 - 1e-12:
                assert state.cost == before  # rejected

    def test_incremental_state_matches_recomputation(self):
        g = ot.grid_graph(4)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(3)
        for trial in range(10):
            mu, nu = random_measure_pair(rng_inst, 16)
            state, rng = fresh_state(g, mu, nu, cfg, 3000 + trial)
            for _ in range(100):
                new_root, w_added = state.propose(rng)
                state.step(new_root, w_added, 0.0)  # force accept
                tree_now = state.tree()
                ref = ot.cumulative_imbalance(tree_now, ot.imbalance(mu, nu))
                assert np.max(np.abs(state.xi_cum - ref)) <= 1e-9
                assert abs(state.cost - ot.tree_k_distance(tree_now, mu, nu)) <= 1e-9
                edges = tree_now.edge_set()
                assert len(edges) == g.n - 1
                assert all(g.has_edge(u, v) for u, v in edges)

    def test_delta_on_random_graphs(self):
        from conftest import random_connected_graph

        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(90)
        for trial in range(15):
            n = int(rng_inst.integers(3, 51))
            g = random_connected_graph(rng_inst, n, extra_edges=int(rng_inst.integers(1, 10)))
            mu, nu = random_measure_pair(rng_inst, n)
            state, rng = fresh_state(g, mu, nu, cfg, 7000 + trial)
            for _ in range(20):
                new_root, w_added = state.propose(rng)
                h = state.delta(new_root, w_added)
                t_cand = rebuild_candidate_tree(state, new_root, g)
                h_ref = state.cost - ot.tree_k_distance(t_cand, mu, nu)
                assert abs(h - h_ref) <= 1e-9
                state.step(new_root, w_added, rng.random())

    def test_best_cost_monotone(self):
        g = ot.grid_graph(3)
        mu, nu = random_measure_pair(np.random.default_rng(4), 9)
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=300, seed=7, record_every=1))
        assert len(res.trace) == 301
        best_seen = res.trace[0].best_cost
        for row in res.trace:
            assert row.best_cost <= best_seen + 1e-15
            assert row.best_cost <= row.current_cost + 1e-12
            best_seen = row.best_cost


class TestTemperature:
    """``_kernels.update_beta`` with the defaults of ``AnnealConfig``
    (``eta`` 0.01, ``target_accept`` 0.01) unless a test says otherwise."""

    def test_no_update_during_warmup(self):
        assert _kernels.update_beta(0.5, 0, 9, 10, 0.01, 0.01) == 0.5

    def test_fixed_point_at_target(self):
        # rate 1/10 equals target_accept
        assert _kernels.update_beta(0.37, 1, 10, 10, 0.01, 0.1) == 0.37

    def test_full_acceptance_heats(self):
        beta = _kernels.update_beta(0.1, 100, 100, 100, 0.01, 0.01)
        assert abs(beta - 0.1 * (1 + 0.01 * (1.0 - 0.01))) <= 1e-15
        assert abs(beta - 0.10099) <= 1e-15

    def test_zero_acceptance_cools(self):
        beta = _kernels.update_beta(0.1, 0, 100, 100, 0.01, 0.01)
        assert abs(beta - 0.1 * 0.9999) <= 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ot.AnnealConfig(max_iters=1, eta=2.0)
        with pytest.raises(ValueError):
            ot.AnnealConfig(max_iters=1, target_accept=1.5)


class TestAnneal:
    def test_tree_graph_immediate_optimum(self):
        g = ot.build_graph(4, [(0, 1, 0.5), (1, 2, 0.25), (1, 3, 1.0)])
        mu, nu = random_measure_pair(np.random.default_rng(5), 4)
        t = ot.root_tree(g, [(0, 1), (1, 2), (1, 3)], 0)
        want = ot.tree_k_distance(t, mu, nu)
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=500, seed=0))
        assert abs(res.best_cost - want) <= 1e-12
        assert abs(res.trace[0].best_cost - want) <= 1e-12

    def test_triangle_diracs(self):
        g = ot.build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        res = ot.anneal(g, [1.0, 0, 0], [0, 1.0, 0], ot.AnnealConfig(max_iters=100, seed=1))
        assert abs(res.best_cost - 1.0) <= 1e-12

    def test_deterministic_trace(self):
        g = ot.grid_graph(3)
        mu, nu = random_measure_pair(np.random.default_rng(6), 9)
        cfg = ot.AnnealConfig(max_iters=2000, seed=11, record_every=100)
        r1 = ot.anneal(g, mu, nu, cfg)
        r2 = ot.anneal(g, mu, nu, cfg)
        assert r1.trace == r2.trace
        assert r1.best_cost == r2.best_cost
        assert np.array_equal(r1.best_tree.parent, r2.best_tree.parent)

    def test_lower_bound_sandwich_and_monotone_best(self):
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=9)
        exact = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=20_000, seed=2, record_every=500))
        bests = [r.best_cost for r in res.trace]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
        assert all(b >= exact - 1e-9 for b in bests)
        assert abs(res.best_cost - exact) <= 1e-9

    def test_early_stop_at_target(self):
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=10)
        exact = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=200_000, seed=3),
                        target_cost=exact)
        assert res.iters_run < 200_000
        assert abs(res.best_cost - exact) <= 1e-9

    def test_matches_stepwise_reference_loop(self):
        # the fused kernel and its step functions, called one at a time, must
        # walk in lockstep
        g = ot.grid_graph(4)
        mu, nu = random_measure_pair(np.random.default_rng(12), 16)
        cfg = ot.AnnealConfig(max_iters=2500, seed=21, record_every=250)
        res = ot.anneal(g, mu, nu, cfg)

        rng = np.random.default_rng(cfg.seed)
        tree = ot.random_spanning_tree(g, rng)
        state = SwapChain(g, tree, mu, nu, cfg)
        for _ in range(cfg.max_iters):
            new_root, w_added = state.propose(rng)
            u = rng.random()
            state.step(new_root, w_added, u)
            state.adapt()
        assert state.cost == res.final_cost
        assert state.best_cost == res.best_cost
        assert state.root == res.final_tree.root
        assert np.array_equal(state.parent, res.final_tree.parent)
        assert state.beta == res.trace[-1].beta

    def test_multi_chain_returns_best(self):
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=13)
        cfg = ot.AnnealConfig(max_iters=5000, seed=7)
        result, k = ot.anneal_chains(g, mu, nu, cfg, chains=3)
        assert 0 <= k < 3
        single, _ = ot.anneal_chains(g, mu, nu, cfg, chains=1)
        assert result.best_cost <= single.best_cost + 1e-12

    def test_single_vertex_graph(self):
        g = ot.build_graph(1, [])
        res = ot.anneal(g, [1.0], [1.0], ot.AnnealConfig(max_iters=100, seed=0))
        assert res.best_cost == 0.0 and res.iters_run == 0


KERNEL_PARITY_SCRIPT = """
import json, sys
import numpy as np
import treeot as ot
g = ot.grid_graph(4)
rng = np.random.default_rng(40)
mu = rng.random(16) + 0.01; mu /= mu.sum()
nu = rng.random(16) + 0.01; nu /= nu.sum()
cfg = ot.AnnealConfig(max_iters=3000, seed=14, record_every=100)
res = ot.anneal(g, mu, nu, cfg)
rows = [[r.iter, r.current_cost.hex(), r.best_cost.hex(), r.beta.hex(), r.accept_rate.hex()]
        for r in res.trace]
print(json.dumps({"backend": ot.kernel_backend(), "rows": rows, "best": res.best_cost.hex()}))
"""

# chains on threads, switching often, before the backend is first used
CHAINS_SCRIPT = """
import json, sys
import treeot as ot
sys.path.insert(0, TESTS_DIR)
from conftest import noisy_grid_measures
sys.setswitchinterval(1e-6)
mu, nu = noisy_grid_measures(5, seed=2)
cfg = ot.AnnealConfig(max_iters=4000, seed=9, record_every=500)
res, k = ot.anneal_chains(ot.grid_graph(5), mu, nu, cfg, chains=6)
print(json.dumps([ot.kernel_backend(), k, res.best_cost.hex(), res.best_tree.parent.tolist(),
                  [[r.current_cost.hex(), r.beta.hex()] for r in res.trace]]))
"""

# vertices of degree one (no draw for the neighbour), recomputation and drift
RANDOM_GRAPHS_SCRIPT = """
import json, sys
import numpy as np
import treeot as ot
sys.path.insert(0, TESTS_DIR)
from conftest import random_connected_graph, random_measure_pair
out = [ot.kernel_backend()]
for s in range(5):
    rng = np.random.default_rng(500 + s)
    n = int(rng.integers(6, 40))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, n)))
    mu, nu = random_measure_pair(rng, n)
    cfg = ot.AnnealConfig(max_iters=3000, seed=s, window=7, recompute_every=299, record_every=37)
    res = ot.anneal(g, mu, nu, cfg)
    for t in (res.final_tree, res.best_tree):
        for v in range(n):
            p = int(t.parent[v])
            assert t.weight_to_parent[v] == (g.edge_weight(v, p) if p >= 0 else 0.0), (s, v)
    out.append([res.iters_run, res.max_drift.hex(), res.final_tree.parent.tolist(),
                res.best_tree.parent.tolist(),
                [[r.iter, r.current_cost.hex(), r.best_cost.hex(), r.beta.hex(), r.accept_rate.hex()]
                 for r in res.trace]])
print(json.dumps(out))
"""

# long chains on threads that overlap inside the kernel, against the same
# chains run one after another
THREADS_SCRIPT = """
import json, sys, threading
import treeot as ot
sys.path.insert(0, TESTS_DIR)
from conftest import noisy_grid_measures
g = ot.grid_graph(7)
mu, nu = noisy_grid_measures(7, seed=4)
cfgs = [ot.AnnealConfig(max_iters=300_000, seed=s, record_every=10_000) for s in range(6)]

def summary(res):
    return [res.best_cost.hex(), res.iters_run, [[r.current_cost.hex(), r.beta.hex()] for r in res.trace]]

sys.setswitchinterval(1e-6)
threaded = [None] * len(cfgs)
def run(k):
    threaded[k] = summary(ot.anneal(g, mu, nu, cfgs[k]))
threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cfgs))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
finished = not any(t.is_alive() for t in threads)
sequential = [summary(ot.anneal(g, mu, nu, cfg)) for cfg in cfgs]
print(json.dumps([ot.kernel_backend(), finished, threaded == sequential]))
"""

class TestNumbaFallback:
    def test_env_flag_gives_bit_identical_traces(self):
        """Each compiled backend and the plain-Python kernel, selected by
        TREEOT_BACKEND, give bit-identical traces."""
        compiled = compiled_backends()
        if not compiled:
            pytest.skip("no compiled backend: no C compiler is on PATH")
        out = {}
        for backend in [*compiled, "python"]:
            proc = run_python(KERNEL_PARITY_SCRIPT, backend)
            assert proc.returncode == 0, proc.stderr
            out[backend] = json.loads(proc.stdout)
            assert out[backend]["backend"] == backend
        for backend in compiled:
            assert out[backend]["rows"] == out["python"]["rows"]
            assert out[backend]["best"] == out["python"]["best"]


class TestKernelBackendSelection:
    SHOW = "import treeot; print(treeot.kernel_backend())"

    def test_unknown_backend_raises_named_error(self):
        for name in ("bogus", "numba"):
            proc = run_python(self.SHOW, name)
            assert proc.returncode != 0
            assert f"KernelBackendError: TREEOT_BACKEND={name!r} is not one of" in proc.stderr

    def test_without_compiler_default_says_python_and_c_raises(self, tmp_path):
        env = {"PATH": str(tmp_path / "empty-bin"), "CC": "",
               "TREEOT_CACHE_DIR": str(tmp_path / "cache")}
        proc = run_python(self.SHOW, **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "python"
        assert "plain-Python annealing kernel" in proc.stderr
        assert "no C compiler found" in proc.stderr
        proc = run_python(self.SHOW, "c", **env)
        assert proc.returncode != 0
        assert "KernelBackendError: TREEOT_BACKEND=c: no C compiler found" in proc.stderr

    def test_import_does_not_build_the_kernel(self, tmp_path):
        cache = tmp_path / "cache"
        proc = run_python("import treeot.cli", TREEOT_CACHE_DIR=str(cache))
        assert proc.returncode == 0, proc.stderr
        assert not cache.exists()

    def test_python_backend_draws_trees_without_building(self, tmp_path):
        cache = tmp_path / "cache"
        draw = ("import numpy as np, treeot as ot; "
                "ot.random_spanning_tree(ot.grid_graph(4), np.random.default_rng(0)); "
                "print(ot.kernel_backend())")
        proc = run_python(draw, "python", TREEOT_CACHE_DIR=str(cache))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "python"
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.skipif(not c_compiler_found(), reason="no C compiler on PATH")
    def test_c_kernel_is_built_once_into_the_cache(self, tmp_path):
        cache = tmp_path / "cache"
        stamps = []
        for _ in range(2):
            proc = run_python(self.SHOW, "c", TREEOT_CACHE_DIR=str(cache))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "c"
            built = list(cache.iterdir())
            assert len(built) == 1 and built[0].name.startswith("kernel-")
            stamps.append((built[0].name, built[0].stat().st_ino, built[0].stat().st_mtime_ns))
        assert stamps[0] == stamps[1]

    @pytest.mark.skipif(not c_compiler_found(), reason="no C compiler on PATH")
    @pytest.mark.parametrize("script", [CHAINS_SCRIPT, RANDOM_GRAPHS_SCRIPT], ids=["chains", "random-graphs"])
    def test_c_matches_python(self, script):
        """Concurrent chains (first use of the backend included) and random
        graphs with leaves, short windows and frequent recomputation give the
        plain-Python results bit for bit."""
        out = {}
        for backend in ("c", "python"):
            proc = run_python(script, backend)
            assert proc.returncode == 0, proc.stderr
            out[backend] = json.loads(proc.stdout)
            assert out[backend][0] == backend
        assert out["c"][1:] == out["python"][1:]

    @pytest.mark.skipif(not c_compiler_found(), reason="no C compiler on PATH")
    def test_c_chains_on_threads_share_no_state(self):
        proc = run_python(THREADS_SCRIPT, "c")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["c", True, True]
