import concurrent.futures
import json
import math
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

import treeot as ot

from treeot import _kernels, annealing
from treeot.errors import InputError
from treeot.trees import RootedTree

from conftest import (
    SwapChain,
    c_compiler_found,
    compiled_backends,
    degenerate_measures,
    exchanged_tree,
    noisy_grid_measures,
    random_connected_graph,
    random_measure_pair,
    random_tree_graph,
    reference_tree_path,
    run_python,
)


def fresh_state(g, mu, nu, cfg, seed):
    rng = np.random.default_rng(seed)
    tree = ot.random_spanning_tree(g, rng)
    return SwapChain(g, tree, mu, nu, cfg), rng


def non_tree_arc(state, rng):
    """The first arc that ``state.propose`` draws off the tree."""
    while True:
        a, b, w = state.propose(rng)
        if not state.is_tree_edge(a, b):
            return a, b, w


def check_breakpoints_from_scratch(state, g, mu, nu, a, b, w):
    """f at every breakpoint of the arc's cycle, plus the cost of the tree
    edges off the cycle, is the cost of the exchanged tree rebuilt from
    scratch; f also equals its direct O(L^2) sum."""
    pa, pb, t, wt = state.cycle(a, b, w)
    f = _kernels.breakpoint_costs(t, wt)
    tree = state.tree()
    for k, leaving in enumerate([None, *pb, *pa]):
        rebuilt = ot.tree_k_distance(exchanged_tree(g, tree, a, b, leaving), mu, nu)
        assert abs(state.cost - f[0] + f[k] - rebuilt) <= 1e-9
        assert abs(f[k] - sum(x * abs(t[k] - y) for x, y in zip(wt, t))) <= 1e-12
    return f


class TestProposeMove:
    def test_tree_graph_moves_keep_edges(self):
        # every arc of a tree graph is a tree edge: each proposal is null and
        # draws nothing more
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
        cfg = ot.AnnealConfig(max_iters=10, seed=0)
        state, rng = fresh_state(g, [0.4, 0.1, 0.2, 0.3], np.full(4, 0.25), cfg, 1)
        edges = state.tree().edge_set()
        for _ in range(20):
            a, b, w = state.propose(rng)
            before = rng.bit_generator.state
            assert state.step(a, b, w, rng) is None
            assert rng.bit_generator.state == before
        assert state.tree().edge_set() == edges and state.moved == 0

    def test_two_vertices_single_neighbor(self):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        state, rng = fresh_state(g, [0.6, 0.4], [0.4, 0.6], cfg, 2)
        arcs = {(int(a), int(b)) for a, b, _ in (state.propose(rng) for _ in range(50))}
        assert arcs == {(0, 1), (1, 0)}
        assert state.is_tree_edge(0, 1) and state.is_tree_edge(1, 0)

    def test_uniform_over_grid_neighbors(self):
        # the 3x3 lattice has 24 arcs; each is drawn with probability 1/24
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(0), 9)
        state, _ = fresh_state(g, mu, nu, cfg, 3)
        rng = np.random.default_rng(1234)
        draws = 24_000
        counts = {}
        for _ in range(draws):
            a, b, w = state.propose(rng)
            assert w == g.edge_weight(a, b)
            counts[(int(a), int(b))] = counts.get((int(a), int(b)), 0) + 1
        assert sorted(counts) == sorted(zip(g.arc_tails().tolist(), g.indices.tolist()))
        for c in counts.values():
            assert abs(c / draws - 1 / 24) <= 0.006  # about 5 standard deviations

    def test_cycle_paths_meet_at_the_lowest_common_ancestor(self):
        g = ot.grid_graph(5)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(8), 25)
        for trial in range(20):
            state, rng = fresh_state(g, mu, nu, cfg, 900 + trial)
            t = state.tree()
            for _ in range(10):
                a, b, w = non_tree_arc(state, rng)
                pa, pb, bp, wt = state.cycle(a, b, w)
                path = reference_tree_path(t, a, b)
                assert [int(x) for x in pa] == [x for x, _, d in path if d == "up"]
                assert [int(y) for y in pb] == [y for _, y, d in path if d == "down"][::-1]
                assert bp == [0.0, *(-state.xi_cum[pb]), *state.xi_cum[pa]]
                assert wt == [w, *state.wpar[pb], *state.wpar[pa]]


class TestHamiltonianDelta:
    def test_identity_move_zero(self):
        # the entering arc's own breakpoint, theta = 0, is the cycle's tree
        # edges at their present flows: drawing it leaves the tree as it is
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(4), 9)
        state, rng = fresh_state(g, mu, nu, cfg, 4)
        first = SimpleNamespace(random=lambda: 0.0)  # the first breakpoint of positive weight
        kept = 0
        for _ in range(30):
            a, b, w = non_tree_arc(state, rng)
            pa, pb, t, wt = state.cycle(a, b, w)
            f0 = _kernels.breakpoint_costs(t, wt)[0]
            assert f0 == pytest.approx(sum(state.wpar[x] * abs(state.xi_cum[x]) for x in pa + pb),
                                       abs=1e-15)
            parent, cost = state.parent.copy(), state.cost
            if state.step(a, b, w, first) == 0:
                assert np.array_equal(state.parent, parent) and state.cost == cost
                kept += 1
        assert kept >= 10

    def test_equal_measures_zero_for_all_moves(self):
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu = np.full(9, 1 / 9)
        state, rng = fresh_state(g, mu, mu, cfg, 5)
        changed = 0
        for _ in range(50):
            a, b, w = non_tree_arc(state, rng)
            pa, pb, t, wt = state.cycle(a, b, w)
            assert _kernels.breakpoint_costs(t, wt) == [0.0] * len(t)
            changed += bool(state.step(a, b, w, rng))
            assert state.cost == 0.0
        assert changed > 25  # every breakpoint ties, so most draws change the tree

    def test_matches_from_scratch_recomputation(self):
        g = ot.grid_graph(5)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(1000)
        checked = 0
        for trial in range(40):
            mu, nu = random_measure_pair(rng_inst, 25)
            state, rng = fresh_state(g, mu, nu, cfg, 2000 + trial)
            for _ in range(10):
                a, b, w = non_tree_arc(state, rng)
                checked += len(check_breakpoints_from_scratch(state, g, mu, nu, a, b, w))
                state.step(a, b, w, rng)
        assert checked > 2000


class TestAcceptStep:
    def test_improvement_always_accepted(self):
        # at beta = inf the heat bath draws a minimiser of f: a cycle with a
        # cheaper breakpoint always changes the tree, by exactly that saving
        g = ot.grid_graph(3)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        mu, nu = random_measure_pair(np.random.default_rng(2), 9)
        state, rng = fresh_state(g, mu, nu, cfg, 6)
        state.beta = math.inf
        improved = 0
        for _ in range(200):
            a, b, w = non_tree_arc(state, rng)
            f = _kernels.breakpoint_costs(*state.cycle(a, b, w)[2:])
            before = state.cost
            k = state.step(a, b, w, rng)
            assert f[k] == min(f) and state.cost == before + (f[k] - f[0])
            if f[0] > min(f):
                assert k > 0
                improved += 1
        assert improved >= 5

    def test_incremental_state_matches_recomputation(self):
        g = ot.grid_graph(4)
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(3)
        for trial in range(10):
            mu, nu = random_measure_pair(rng_inst, 16)
            state, rng = fresh_state(g, mu, nu, cfg, 3000 + trial)
            for _ in range(100):
                a, b, w = non_tree_arc(state, rng)
                pa, pb, t, wt = state.cycle(a, b, w)
                f = _kernels.breakpoint_costs(t, wt)
                k = int(rng.integers(1, len(t)))  # force an exchange, uphill or not
                _kernels.apply_exchange(state.parent, state.wpar, state.xi_cum, pa, pb, a, b, w,
                                        k)
                state.cost += f[k] - f[0]
                tree_now = state.tree()
                assert tree_now.root == state.root
                ref = ot.subtree_aggregate(tree_now, state.xi)
                assert np.max(np.abs(state.xi_cum - ref)) <= 1e-12
                assert abs(state.cost - ot.tree_k_distance(tree_now, mu, nu)) <= 1e-9
                edges = tree_now.edge_set()
                assert len(edges) == g.n - 1
                assert all(g.has_edge(u, v) for u, v in edges)
                assert all(tree_now.weight_to_parent[v] == g.edge_weight(v, tree_now.parent[v])
                           for v in range(g.n) if v != tree_now.root)

    def test_delta_on_random_graphs(self):
        cfg = ot.AnnealConfig(max_iters=1, seed=0)
        rng_inst = np.random.default_rng(90)
        for trial in range(15):
            n = int(rng_inst.integers(3, 51))
            g = random_connected_graph(rng_inst, n, extra_edges=int(rng_inst.integers(1, 10)))
            mu, nu = random_measure_pair(rng_inst, n)
            state, rng = fresh_state(g, mu, nu, cfg, 7000 + trial)
            for _ in range(20):
                a, b, w = non_tree_arc(state, rng)
                check_breakpoints_from_scratch(state, g, mu, nu, a, b, w)
                state.step(a, b, w, rng)

    def test_heat_bath_weights_at_a_tie(self):
        # f = (3, 1, 1, 2): the two minimisers weigh 1 each, breakpoint 3
        # exp(-beta (2 - 1) / s) = e^-1 and breakpoint 0 e^-2, so the draw
        # u splits [0, 1) at cumulative weights e^-2, 1 + e^-2, 2 + e^-2
        f, beta, s = [3.0, 1.0, 1.0, 2.0], 2.0, 2.0
        total = math.exp(-2.0) + 2.0 + math.exp(-1.0)
        cuts = [math.exp(-2.0) / total, (1 + math.exp(-2.0)) / total,
                (2 + math.exp(-2.0)) / total]
        for u in np.linspace(0.0, 1.0, 1001)[:-1]:
            if min(abs(u - c) for c in cuts) > 1e-12:
                assert _kernels.heat_bath(f, 1.0, beta, s, u) == sum(u > c for c in cuts)
        # an exact tie weighs 1 at any beta and any scale, even inf and 0
        for beta, s in ((math.inf, 1.0), (1.0, 0.0), (math.inf, 0.0), (0.0, 1.0)):
            assert _kernels.heat_bath([1.0, 1.0], 1.0, beta, s, 0.49) == 0
            assert _kernels.heat_bath([1.0, 1.0], 1.0, beta, s, 0.5) == 1

    def test_heat_bath_at_infinite_beta_or_zero_scale(self):
        # weight 0 off the minimum: no NaN from inf * 0 or 0 / 0, and never
        # a breakpoint above the minimum, at any draw
        f = [0.5, 0.25, math.nextafter(0.25, 1.0), 0.25, 4.0]
        for beta, s in ((math.inf, 1.0), (math.inf, 1e-300), (1.0, 0.0), (math.inf, 0.0)):
            picks = {_kernels.heat_bath(f, 0.25, beta, s, u)
                     for u in (0.0, 0.25, 0.49, 0.5, 0.75, 1.0 - 2.0**-53)}
            assert picks == {1, 3}
        # huge beta / s overflows to inf and weighs 0; tiny ones weigh 1
        assert _kernels.heat_bath([1.0, 0.0], 0.0, 1e300, 1e-300, 0.0) == 1
        assert _kernels.heat_bath([1.0, 0.0], 0.0, 1e-300, 1e300, 0.0) == 0

    def test_best_cost_monotone(self):
        g = ot.grid_graph(3)
        mu, nu = random_measure_pair(np.random.default_rng(4), 9)
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=300, seed=7, record_every=1))
        assert len(res.trace) == res.iters_run + 1
        assert res.stop_reason == "certified"  # the initial tree is optimal
        # two Diracs moved to the other corners: a degenerate chain that runs
        # its budget when started hot (from the default beta0 it certifies at 128)
        corners, across = np.zeros(9), np.zeros(9)
        corners[[0, 8]] = across[[2, 6]] = 0.5
        full = ot.anneal(g, corners, across,
                         ot.AnnealConfig(max_iters=300, seed=3, record_every=1, beta0=0.1))
        assert len(full.trace) == full.iters_run + 1 == 301
        assert full.stop_reason == "max_iters"
        for trace in (res.trace, full.trace):
            best_seen = trace[0].best_cost
            for row in trace:
                assert row.best_cost <= best_seen + 1e-15
                assert row.best_cost <= row.current_cost + 1e-12
                best_seen = row.best_cost


class TestExchangeReachesW1:
    """The corpora on which root relocation froze above W1: every chain of
    the exchange move reaches it, with ``solve``'s value as its target."""

    @staticmethod
    def stops(g, pairs, seeds):
        out = []
        for mu, nu in pairs:
            w1 = ot.solve(g, mu, nu).value
            for seed in seeds:
                res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=2_000_000, seed=seed),
                                target_cost=w1)
                out.append((res.stop_reason, res.iters_run))
        return out

    def test_4x4_freeze_corpus(self):
        # root relocation left 28 of these 200 chains 0.05%-11.3% above W1
        # after 2M iterations, with beta = inf
        pairs = []
        for s in range(40):
            r = np.random.default_rng(s)
            mu, nu = r.random(16), r.random(16)
            pairs.append((mu / mu.sum(), nu / nu.sum()))
        stops = self.stops(ot.grid_graph(4, 1.0), pairs, range(5))
        assert len(stops) == 200 and {reason for reason, _ in stops} == {"target"}
        assert max(iters for _, iters in stops) <= 2_000

    def test_degenerate_6x6_corpus(self):
        rng = np.random.default_rng(7)
        pairs = [degenerate_measures(rng, 36) for _ in range(40)]
        stops = self.stops(ot.grid_graph(6), pairs, [0])
        assert len(stops) == 40 and {reason for reason, _ in stops} == {"target"}
        assert max(iters for _, iters in stops) <= 2_000

    def test_cold_start_on_the_10x10_lattice(self):
        # the lattice protocol at 10x10, seeds 0-15: a uniform start needs no
        # hot phase, so from the default beta0 the 16 chains reach W1 in
        # 13,025 proposals in all, where beta0 = 0.1 takes 41,763
        g = ot.grid_graph(10)
        stops = []
        for s in range(16):
            mu, nu = noisy_grid_measures(10, s)
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=1_000_000, seed=s),
                            target_cost=ot.solve(g, mu, nu).value)
            stops.append((res.stop_reason, res.iters_run))
        assert {reason for reason, _ in stops} == {"target"}
        assert sum(iters for _, iters in stops) <= 20_000


class TestTemperature:
    """The ramp: ``beta`` starts at ``beta0`` and grows by ``1 + eta`` after
    every proposal; nothing else moves it."""

    @staticmethod
    def stepwise_rows(g, mu, nu, cfg):
        """``(iter, beta, accept_rate)`` of each trace row, as hex, from the
        step functions run one at a time by ``SwapChain``."""
        rng = np.random.default_rng(cfg.seed)
        state = SwapChain(g, ot.random_spanning_tree(g, rng), mu, nu, cfg)
        rows = [(0, cfg.beta0.hex(), 0.0.hex())]
        it, stop = 0, state.certify()
        while not stop and it < cfg.max_iters:
            it += 1
            state.step(*state.propose(rng), rng)
            state.adapt()
            if it % cfg.record_every == 0 or it == cfg.max_iters:
                rows.append((it, state.beta.hex(), state.take_rate().hex()))
                stop = state.certify()
        return rows

    def test_trace_is_the_ramp_and_the_share_of_moves(self, backend):
        # degenerate measures keep the chain from certifying, so every row of
        # the budget is written; 37 does not divide 3000, so the last row
        # covers a shorter stretch
        g = ot.grid_graph(5)
        mu, nu = degenerate_measures(np.random.default_rng(3), 25)
        cfg = ot.AnnealConfig(max_iters=3000, seed=5, beta0=0.7, eta=0.003, record_every=37)
        res = ot.anneal(g, mu, nu, cfg)
        rows = [(r.iter, r.beta.hex(), r.accept_rate.hex()) for r in res.trace]
        assert res.stop_reason == "max_iters" and len(rows) == 3000 // 37 + 2
        assert rows == self.stepwise_rows(g, mu, nu, cfg)
        for it, beta, _ in rows:
            want = cfg.beta0
            for _ in range(it):
                want *= 1.0 + cfg.eta
            assert beta == want.hex()
        rates = [float.fromhex(rate) for _, _, rate in rows]
        assert rates[0] == 0.0 and all(0.0 < rate < 1.0 for rate in rates[1:])

    def test_config_validation(self):
        ot.AnnealConfig(max_iters=1, eta=2.0)
        ot.AnnealConfig(max_iters=2**63 - 1, record_every=2**63 - 1, beta0=10**300)
        # the kernel takes max_iters and record_every as int64, beta0 and eta
        # as float64: past them, ctypes once cut or refused the numbers
        for bad in ({"beta0": math.nan}, {"beta0": math.inf}, {"eta": math.nan},
                    {"eta": math.inf}, {"eta": 0.0}, {"eta": -0.5}, {"seed": -1},
                    {"max_iters": 2**64 + 5}, {"max_iters": 2**63}, {"record_every": 2**63},
                    {"beta0": 10**400}, {"eta": True}, {"beta0": "3"}):
            with pytest.raises(ValueError):
                ot.AnnealConfig(**{"max_iters": 1, **bad})


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
        assert res.iters_run < 200_000 and res.stop_reason == "target"
        assert abs(res.best_cost - exact) <= 1e-9

    def test_target_stop_is_relative(self, backend):
        # the README instance at 32x32 (grid --p 32 --noise-sigma auto --seed
        # 1): W1 is about 4e-7, so an absolute 1e-9 stopped 0.25% above it
        g = ot.grid_graph(32)
        flat = np.ones((32, 32))
        mu, nu = noisy_grid_measures(32, 1, flat, flat)
        w1 = ot.solve(g, mu, nu).value
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=400_000, seed=1), target_cost=w1)
        assert res.stop_reason == "target"
        assert abs(res.best_cost - w1) <= 1e-9 * w1

    def test_matches_stepwise_reference_loop(self):
        # the fused kernel and its step functions, called one at a time, must
        # walk in lockstep and stop on the same trace row
        g = ot.grid_graph(4)
        mu, nu = random_measure_pair(np.random.default_rng(12), 16)
        cfg = ot.AnnealConfig(max_iters=2500, seed=21, record_every=250)
        res = ot.anneal(g, mu, nu, cfg)

        rng = np.random.default_rng(cfg.seed)
        tree = ot.random_spanning_tree(g, rng)
        state = SwapChain(g, tree, mu, nu, cfg)
        it = 0
        stop = "certified" if state.certify() else "max_iters"
        while stop == "max_iters" and it < cfg.max_iters:
            it += 1
            state.step(*state.propose(rng), rng)
            state.adapt()
            if (it % cfg.record_every == 0 or it == cfg.max_iters) and state.certify():
                stop = "certified"
        assert (it, stop) == (res.iters_run, res.stop_reason) == (250, "certified")
        assert state.cost == res.final_cost
        assert state.best_cost == res.best_cost
        assert state.root == res.final_tree.root == res.best_tree.root == tree.root
        assert np.array_equal(state.parent, res.final_tree.parent)
        assert np.array_equal(state.best_parent, res.best_tree.parent)
        assert state.beta == res.trace[-1].beta

    def test_multi_chain_returns_best(self):
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=13)
        cfg = ot.AnnealConfig(max_iters=5000, seed=7)
        result, k = ot.anneal_chains(g, mu, nu, cfg, chains=3)
        assert 0 <= k < 3
        single, _ = ot.anneal_chains(g, mu, nu, cfg, chains=1)
        assert result.best_cost <= single.best_cost + 1e-12

    @pytest.mark.parametrize("cpus", [1, 2, None])
    def test_chains_run_on_at_most_one_thread_per_cpu(self, monkeypatch, cpus):
        workers = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=13)
        cfg = ot.AnnealConfig(max_iters=2000, seed=7)
        unpatched = ot.anneal_chains(g, mu, nu, cfg, chains=3)
        # anneal_chains imports the executor when it runs, so the patch is on its module
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(annealing.os, "cpu_count", lambda: cpus)
        result, k = ot.anneal_chains(g, mu, nu, cfg, chains=3)
        assert workers == [min(3, cpus or 1)]
        assert (k, result.best_cost, result.trace) == (unpatched[1], unpatched[0].best_cost,
                                                      unpatched[0].trace)

    def test_single_vertex_graph(self):
        g = ot.build_graph(1, [])
        res = ot.anneal(g, [1.0], [1.0], ot.AnnealConfig(max_iters=100, seed=0))
        assert res.best_cost == 0.0 and res.iters_run == 0


class TestChainEntry:
    """``anneal`` and ``anneal_chains`` hand the kernel a proven tree and a
    checked target: no tree is proven twice, and a target that is not a
    finite real number is refused on every backend."""

    @pytest.mark.parametrize("backend_name", ["python", *compiled_backends()])
    def test_one_anneal_proves_two_trees(self, backend_name, monkeypatch):
        proofs = []
        kernels = _kernels._LOADERS[backend_name]()
        prove = RootedTree.__post_init__
        # record the root of each tree proven
        monkeypatch.setattr(RootedTree, "__post_init__",
                            lambda t: proofs.append(t.root) or prove(t))
        monkeypatch.setattr(_kernels, "kernels", lambda: kernels)
        g = ot.grid_graph(4)
        mu, nu = noisy_grid_measures(4, seed=1)
        cfg = ot.AnnealConfig(max_iters=2000, seed=3, record_every=100)
        # the kernel draws the random tree: the best and the final tree
        res = ot.anneal(g, mu, nu, cfg)
        assert res.final_tree is not res.best_tree
        assert proofs == [res.best_tree.root, res.final_tree.root]
        proofs.clear()
        ot.anneal(g, mu, nu, cfg, initial_tree=res.final_tree)
        assert len(proofs) == 2
        # a target stop ends on the best tree, the only one proven
        w1 = ot.solve(g, mu, nu).value
        proofs.clear()
        res = ot.anneal(g, mu, nu, cfg, target_cost=w1)
        assert res.stop_reason == "target" and res.iters_run > 0
        assert res.final_tree is res.best_tree
        assert proofs == [res.best_tree.root]

    def test_the_chain_draws_the_tree_that_random_spanning_tree_draws(self, backend):
        for seed, g in enumerate([ot.build_graph(1, []), ot.grid_graph(2), ot.grid_graph(5),
                                  random_connected_graph(np.random.default_rng(3), 30, 12)]):
            mu, nu = random_measure_pair(np.random.default_rng(seed), g.n)
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=0, seed=seed))
            drawn = ot.random_spanning_tree(g, np.random.default_rng(seed))
            assert res.best_tree is res.final_tree
            assert (res.best_tree.root, res.iters_run) == (drawn.root, 0)
            assert res.best_tree.parent.tobytes() == drawn.parent.tobytes()
            assert res.best_tree.weight_to_parent.tobytes() == drawn.weight_to_parent.tobytes()

    def test_the_drawn_start_leaves_the_generator_where_two_calls_did(self, backend):
        # the chain from the tree it draws, against the chain given the tree
        # that random_spanning_tree draws from the same generator first
        g = ot.grid_graph(5)
        mu, nu = noisy_grid_measures(5, seed=4)
        xi = ot.imbalance(mu, nu)
        kernels = _kernels.kernels()
        ends = []
        for fused in (True, False):
            rng = np.random.default_rng(17)
            rng.integers(0, 3)  # the generator keeps a spare 32-bit half
            tree = None if fused else ot.random_spanning_tree(g, rng)
            trace, drift, stop, root, best, final = kernels.anneal_chain(
                tree, g, xi, 3000, 0.5, 0.01, 100, math.nan, rng)
            ends.append((drift, stop, root, [a.tobytes() for a in (trace, *best, *final)],
                         rng.bit_generator.state, rng.random()))
        assert ends[0] == ends[1]
        assert trace[-1, 0] > 0  # the chain moved on from its start

    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan, "0.5", True, [0.5],
                                        10**400, -10**400],
                             ids=["inf", "-inf", "nan", "string", "bool", "list", "beyond-float",
                                  "beyond-float-negative"])
    def test_target_cost_must_be_a_finite_real_number(self, backend, target):
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=10)
        cfg = ot.AnnealConfig(max_iters=100, seed=0)
        for chains in (1, 2):
            with pytest.raises(ValueError, match="target_cost must be a finite real number"):
                ot.anneal_chains(g, mu, nu, cfg, chains, target_cost=target)

    def test_integer_and_numpy_targets_are_read_as_floats(self, backend):
        g = ot.grid_graph(3)
        flat = np.full(9, 1 / 9)
        cfg = ot.AnnealConfig(max_iters=100, seed=0)
        for target in (1, np.float64(0.5), np.int64(2)):
            assert ot.anneal(g, flat, flat, cfg, target_cost=target).stop_reason == "target"

    def test_a_trace_too_long_to_allocate_is_refused(self, backend):
        # 2**63 + 1 rows: numpy refuses the shape before it allocates, and no chain runs
        g = ot.grid_graph(3)
        mu, nu = noisy_grid_measures(3, seed=10)
        cfg = ot.AnnealConfig(max_iters=2**63 - 1, record_every=1)
        with pytest.raises(InputError, match=r"^a trace of 9223372036854775809 rows cannot be "
                                             r"allocated: lower max_iters \(--iters\)"):
            ot.anneal(g, mu, nu, cfg)

    def test_a_tree_of_another_size_is_refused(self, backend):
        g = ot.grid_graph(3)
        t = ot.random_spanning_tree(ot.grid_graph(2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="parent count out of range"):
            _kernels.kernels().anneal_chain(t, g, np.zeros(9), 10, 1.0, 0.05, 10, math.nan,
                                            np.random.default_rng(1))


def stepwise_stop(g, mu, nu, cfg, target_cost):
    """``(stop_reason, iteration, current cost, best cost, beta)`` where the
    step functions, run one at a time by ``SwapChain``, stop: at the best
    cost at which ``anneal`` stops for ``target_cost``, tested after every
    proposal, else at a certificate, tested at the start and on each
    scheduled row, else at the budget."""
    stop_at = annealing._chain_inputs(g, mu, nu, target_cost)[1]
    rng = np.random.default_rng(cfg.seed)
    state = SwapChain(g, ot.random_spanning_tree(g, rng), mu, nu, cfg)
    it = 0
    stop = "target" if state.best_cost <= stop_at else "certified" if state.certify() else None
    while stop is None and it < cfg.max_iters:
        it += 1
        state.step(*state.propose(rng), rng)
        state.adapt()
        if state.best_cost <= stop_at:
            stop = "target"
        elif (it % cfg.record_every == 0 or it == cfg.max_iters) and state.certify():
            stop = "certified"
    return stop or "max_iters", it, state.cost, state.best_cost, state.beta


class TestStopRow:
    """Every stop writes the last trace row, and the chain's result is read
    off it: the row is the chain's state where the step functions, run one
    at a time, stop."""

    CASES = {
        # (graph, measures, config, target_cost, stop, stopped off the row schedule)
        "target-at-start": (ot.grid_graph(3), noisy_grid_measures(3, seed=10),
                            ot.AnnealConfig(max_iters=500, seed=3), 10.0, "target", False),
        "certified-at-start": (random_tree_graph(np.random.default_rng(31), 8),
                               random_measure_pair(np.random.default_rng(8), 8),
                               ot.AnnealConfig(max_iters=500, seed=8), None, "certified", False),
        "target": (ot.grid_graph(4), noisy_grid_measures(4, seed=1),
                   ot.AnnealConfig(max_iters=20_000, seed=3, record_every=1000), "exact",
                   "target", True),
        "certified": (ot.grid_graph(4), random_measure_pair(np.random.default_rng(12), 16),
                      ot.AnnealConfig(max_iters=2500, seed=21, record_every=250), None,
                      "certified", False),
        "max_iters": (ot.grid_graph(5), degenerate_measures(np.random.default_rng(3), 25),
                      ot.AnnealConfig(max_iters=3000, seed=5, record_every=37), None,
                      "max_iters", True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_the_last_row_is_the_state_at_the_stop(self, backend, case):
        g, (mu, nu), cfg, target, stop, off_schedule = self.CASES[case]
        if target == "exact":
            target = ot.solve(g, mu, nu).value
        res = ot.anneal(g, mu, nu, cfg, target_cost=target)
        want = stepwise_stop(g, mu, nu, cfg, target)
        last = res.trace[-1]
        assert want[0] == res.stop_reason == stop
        assert (last.iter, last.current_cost, last.best_cost, last.beta) == want[1:]
        assert (res.iters_run, res.final_cost, res.best_cost) == want[1:4]
        assert (want[1] % cfg.record_every != 0) == off_schedule
        assert len(res.trace) == (1 if want[1] == 0 else
                                  want[1] // cfg.record_every + 1 + off_schedule)


class TestCertifiedStop:
    """The chain's stop at a certified optimum: ``certify`` passes only on
    trees whose cost is W1, so every ``"certified"`` result is exact against
    the independent exact solver."""

    @staticmethod
    def stops(instances, max_iters, record_every, **config):
        """``(stop_reason, best_cost, tree cost, exact value, iters_run)`` of
        one chain per ``(g, mu, nu)``, chain k seeded with k; ``config`` sets
        further ``AnnealConfig`` fields."""
        out = []
        for k, (g, mu, nu) in enumerate(instances):
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=max_iters, seed=k,
                                                       record_every=record_every, **config))
            exact = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value
            assert len(res.trace) == (res.iters_run + record_every - 1) // record_every + 1
            out.append((res.stop_reason, res.best_cost, ot.tree_k_distance(res.best_tree, mu, nu),
                        exact, res.iters_run))
        return out

    def test_certified_stops_are_exact_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        instances = []
        for _ in range(200):
            n = int(rng.integers(3, 31))
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, n)))
            instances.append((g, *random_measure_pair(rng, n)))
        # started hot, some chains run their whole budget (from the default
        # beta0 all 200 certify), so both stops are seen
        stops = self.stops(instances, 2000, 50, beta0=0.1)
        certified = [s for s in stops if s[0] == "certified"]
        assert len(certified) >= 100
        for _, best, tree_cost, exact, _ in certified:
            assert abs(best - exact) <= 1e-9 and abs(tree_cost - exact) <= 1e-9
        assert {s[0] for s in stops} == {"certified", "max_iters"}
        assert all(s[4] == 2000 for s in stops if s[0] == "max_iters")

    def test_certified_stops_are_exact_on_degenerate_measures(self):
        rng = np.random.default_rng(77)
        instances = []
        for k in range(120):
            if k % 3 == 2:
                n = int(rng.integers(3, 25))
                g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, n)))
            else:
                g = ot.grid_graph(3 + k % 3)
            instances.append((g, *degenerate_measures(rng, g.n)))
        stops = self.stops(instances, 1000, 25)
        certified = [s for s in stops if s[0] == "certified"]
        assert len(certified) >= 20
        for _, best, tree_cost, exact, _ in certified:
            assert abs(best - exact) <= 1e-9 and abs(tree_cost - exact) <= 1e-9
        # some optimal trees fail the check where a cumulative imbalance is 0
        assert any(s[0] == "max_iters" and abs(s[1] - s[3]) <= 1e-9 for s in stops)

    def test_degenerate_chain_runs_its_full_budget(self):
        # mu == nu: every tree costs 0, so the best cost never drops and only
        # the initial tree is checked. Its potential is one edge weight per
        # tree level, which breaks Lipschitz on a graph edge whose ends lie
        # two or more levels apart, as on this seed's initial tree
        g = ot.grid_graph(3)
        mu = np.full(9, 1 / 9)
        res = ot.anneal(g, mu, mu, ot.AnnealConfig(max_iters=3000, seed=0, record_every=100))
        assert res.stop_reason == "max_iters"
        assert res.iters_run == 3000 and len(res.trace) == 31
        assert res.best_cost == 0.0

    def test_single_tree_graph_stops_at_iteration_0(self):
        rng = np.random.default_rng(31)
        for n in range(2, 32):
            g = random_tree_graph(rng, n)
            mu, nu = random_measure_pair(rng, n)
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=500, seed=n))
            assert (res.stop_reason, res.iters_run, len(res.trace)) == ("certified", 0, 1)

    def test_target_wins_over_the_certificate(self):
        g = ot.build_graph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        mu, nu = [0.5, 0.5, 0.0], [0.0, 0.25, 0.75]
        t = ot.root_tree(g, [(0, 1), (1, 2)], 0)
        cost = ot.tree_k_distance(t, mu, nu)
        cfg = ot.AnnealConfig(max_iters=100, seed=0)
        res = ot.anneal(g, mu, nu, cfg, target_cost=cost)
        assert (res.stop_reason, res.iters_run) == ("target", 0)
        assert ot.anneal(g, mu, nu, cfg).stop_reason == "certified"


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
print(json.dumps({"backend": ot.kernel_backend(), "rows": rows, "best": res.best_cost.hex(),
                  "stop": [res.stop_reason, res.iters_run]}))
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
                  [[r.current_cost.hex(), r.beta.hex()] for r in res.trace],
                  res.stop_reason, res.iters_run]))
"""

# vertices of degree one (no draw for the neighbour), recomputation every 299
# proposals and drift, degenerate measures, and stops of every kind: the
# budget, the target, and a certificate at iteration 0 or later
RANDOM_GRAPHS_SCRIPT = """
import json, sys
import numpy as np
import treeot as ot
from treeot import _kernels
sys.path.insert(0, TESTS_DIR)
from conftest import degenerate_measures, random_connected_graph, random_measure_pair
_kernels.RECOMPUTE_EVERY = 299
out = [ot.kernel_backend()]
for s in range(10):
    rng = np.random.default_rng(500 + s)
    n = int(rng.integers(6, 40))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, n)))
    mu, nu = random_measure_pair(rng, n) if s < 5 else degenerate_measures(rng, n)
    exact = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu).value
    cfg = ot.AnnealConfig(max_iters=3000, seed=s, record_every=37)
    # chain 2 also reaches the target on a row where its certificate holds
    for target in (None, exact) if s in (2, 7) else (None,):
        res = ot.anneal(g, mu, nu, cfg, target_cost=target)
        for t in (res.final_tree, res.best_tree):
            for v in range(n):
                p = int(t.parent[v])
                assert t.weight_to_parent[v] == (g.edge_weight(v, p) if p >= 0 else 0.0), (s, v)
        out.append([res.stop_reason, res.iters_run, res.max_drift.hex(),
                    res.final_tree.parent.tolist(), res.best_tree.parent.tolist(),
                    [[r.iter, r.current_cost.hex(), r.best_cost.hex(), r.beta.hex(),
                      r.accept_rate.hex()] for r in res.trace]])
print(json.dumps(out))
"""

# long chains on threads that overlap inside the kernel, against the same
# chains run one after another; on the 20x20 lattice with degenerate measures
# no chain's best tree passes the certificate, so each runs all its budget
THREADS_SCRIPT = """
import json, sys, threading
import numpy as np
import treeot as ot
sys.path.insert(0, TESTS_DIR)
from conftest import degenerate_measures
g = ot.grid_graph(20)
mu, nu = degenerate_measures(np.random.default_rng(4), 400)
cfgs = [ot.AnnealConfig(max_iters=300_000, seed=s, record_every=10_000) for s in range(6)]

def summary(res):
    return [res.best_cost.hex(), res.iters_run, res.stop_reason,
            [[r.current_cost.hex(), r.beta.hex()] for r in res.trace]]

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
print(json.dumps([ot.kernel_backend(), finished, threaded == sequential,
                  sorted({s[1:3] == [300_000, "max_iters"] for s in sequential})]))
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
            assert out[backend]["stop"] == out["python"]["stop"] == ["certified", 100]


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
        assert "plain-Python kernels" in proc.stderr
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

    def test_c_source_compiles_without_warnings(self, tmp_path):
        """The kernel's own flags plus -Wall -Wextra -Werror: a warning in
        ``_kernel.c`` fails here."""
        try:
            compiler = _kernels._compiler()
        except ot.errors.KernelBackendError:
            pytest.skip("no C compiler on PATH")
        proc = subprocess.run([*compiler, *_kernels.C_FLAGS, "-Wall", "-Wextra", "-Werror",
                               "-o", str(tmp_path / "kernel.so"), str(_kernels.C_SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

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
        graphs with leaves, short trace rows and frequent recomputation give the
        plain-Python results bit for bit."""
        out = {}
        for backend in ("c", "python"):
            proc = run_python(script, backend)
            assert proc.returncode == 0, proc.stderr
            out[backend] = json.loads(proc.stdout)
            assert out[backend][0] == backend
        assert out["c"][1:] == out["python"][1:]
        if script is RANDOM_GRAPHS_SCRIPT:
            stops = [(chain[0], chain[1]) for chain in out["c"][1:]]
            assert stops[2:4] == [("certified", 37), ("target", 37)]
            assert ("certified", 0) in stops and ("max_iters", 3000) in stops
            # the sums were made afresh, and some chain drifted before they were
            assert any(float.fromhex(chain[2]) > 0.0 for chain in out["c"][1:])

    @pytest.mark.skipif(not c_compiler_found(), reason="no C compiler on PATH")
    def test_c_chains_on_threads_share_no_state(self):
        proc = run_python(THREADS_SCRIPT, "c")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["c", True, True, [True]]
