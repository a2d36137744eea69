"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints one
PASS line when it holds. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import treeot as ot
from treeot import fileio
from treeot.cli import main as cli_main
from treeot.errors import ConditionViolatedError

from conftest import (
    LINE6_XI,
    SwapChain,
    blob_image,
    line6_edges,
    noisy_grid_measures,
    random_measure_pair,
    random_tree_graph,
)

CUMULATIVE_BY_ROOT = {
    0: [0, -0.05, -0.1, 0.1, 0.2, 0.3],
    1: [0.05, 0, -0.1, 0.1, 0.2, 0.3],
    2: [0.05, 0.1, 0, 0.1, 0.2, 0.3],
    3: [0.05, 0.1, -0.1, 0, 0.2, 0.3],
    4: [0.05, 0.1, -0.1, -0.2, 0, 0.3],
    5: [0.05, 0.1, -0.1, -0.2, -0.3, 0],
}


def _report(name: str):
    print(f"PASS {name}")


def _random_tree_instances(count, seed, max_n=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        g = random_tree_graph(rng, n, weight_low=1e-3, weight_high=1.0)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, n)
        yield g, t, mu, nu


@pytest.fixture(scope="module")
def line6_instance():
    g = ot.build_graph(6, [(i, i + 1, 1.0) for i in range(5)])
    mu = np.full(6, 1 / 6) + LINE6_XI / 2
    nu = np.full(6, 1 / 6) - LINE6_XI / 2
    trees = {r: ot.root_tree(g, line6_edges(), r) for r in range(6)}
    return g, mu, nu, trees


@pytest.fixture(scope="module")
def tree_instances():
    return list(_random_tree_instances(200, seed=20_240_101))


def test_criterion_1_line6_reproduction(line6_instance):
    g, mu, nu, trees = line6_instance
    xi = ot.imbalance(mu, nu)
    # warm-up outside the timed region
    ot.cumulative_imbalance(trees[0], xi)
    ot.tree_k_distance(trees[0], mu, nu)
    start = time.perf_counter()
    rows = {r: ot.cumulative_imbalance(trees[r], xi) for r in range(6)}
    values = {r: ot.tree_k_distance(trees[r], mu, nu) for r in range(6)}
    elapsed = time.perf_counter() - start
    for r in range(6):
        assert np.max(np.abs(rows[r] - np.array(CUMULATIVE_BY_ROOT[r]))) <= 1e-12
        assert abs(values[r] - 0.75) <= 1e-12
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    _report(f"criterion 1: six-root line example reproduced in {elapsed * 1e3:.3f} ms")


def test_criterion_2_tree_oracle_equivalence(tree_instances):
    start = time.perf_counter()
    for g, t, mu, nu in tree_instances:
        k_closed = ot.tree_k_distance(t, mu, nu)
        d_g = ot.all_pairs_shortest_paths(g)
        sol = ot.exact_k_distance(d_g, mu, nu)
        assert abs(k_closed - sol.value) <= 1e-9
        plan = ot.dp_transport_plan(t, mu, nu)
        cost = ot.plan_cost(plan, ot.tree_distance_matrix(t))
        assert abs(cost - k_closed) <= 1e-9
        assert abs(cost - sol.value) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(f"criterion 2: 200 tree instances match the exact solver ({elapsed:.2f} s)")


def test_criterion_3_plan_invariants(tree_instances):
    for g, t, mu, nu in tree_instances:
        plan = ot.dp_transport_plan(t, mu, nu)
        assert np.max(np.abs(plan.row_sums() - mu)) <= 1e-9
        assert np.max(np.abs(plan.col_sums() - nu)) <= 1e-9
        assert np.max(np.abs(plan.diagonal() - np.minimum(mu, nu))) <= 1e-12
        pairs = set(zip(plan.rows.tolist(), plan.cols.tolist()))
        assert not any(x != y and (y, x) in pairs for x, y in pairs)
        info = ot.check_vertex_support(plan)
        assert info["is_forest"] and info["proper_edges"] <= t.n - 1
        got = ot.plan_to_flow(plan, t)
        ref = ot.beckmann_flow(t, mu, nu)
        assert np.max(np.abs(got.up - ref.up)) <= 1e-9
        assert np.max(np.abs(got.down - ref.down)) <= 1e-9
        cum = ot.cumulative_imbalance(t, ot.imbalance(mu, nu))
        for x, y, _ in plan.entries():
            if x == y:
                continue
            for a, b, direction in ot.tree_path(t, x, y):
                if direction == "up":
                    assert cum[a] > 0.0
                else:
                    assert cum[b] < 0.0
    _report("criterion 3: plan invariant suite clean on 200 instances")


def test_criterion_4_potential_suite():
    rng = np.random.default_rng(4040)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 13))
        g = random_tree_graph(rng, n, weight_low=1e-3)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = random_measure_pair(rng, n)
        verdict = ot.check_weak_nondegeneracy(mu, nu)
        assert verdict.mode == "exhaustive"
        if not verdict.holds:
            continue
        done += 1
        u = ot.tree_potential(t, mu, nu)
        sol = ot.exact_k_distance(ot.all_pairs_shortest_paths(g), mu, nu)
        assert ot.potential_match_up_to_constant(u, sol.dual, tol=1e-6)
        assert abs(np.dot(u.values, mu - nu) - sol.value) <= 1e-9
        for v in range(n):
            p = int(t.parent[v])
            if p >= 0:
                assert abs(abs(u.values[v] - u.values[p]) - t.weight_to_parent[v]) <= 1e-12
    _report("criterion 4: potential suite clean on 100 certified instances")


def test_criterion_5_hamiltonian_consistency():
    g = ot.grid_graph(5)
    cfg = ot.AnnealConfig(max_iters=1, seed=0)
    rng_inst = np.random.default_rng(5050)
    pairs = 0
    while pairs < 1000:
        mu, nu = random_measure_pair(rng_inst, 25)
        rng = np.random.default_rng(6000 + pairs)
        tree = ot.random_spanning_tree(g, rng)
        state = SwapChain(g, tree, mu, nu, cfg)
        for _ in range(25):
            new_root, w_added = state.propose(rng)
            h = state.delta(new_root, w_added)
            edges = {frozenset((v, int(state.parent[v])))
                     for v in range(25) if state.parent[v] >= 0}
            edges.discard(frozenset(state.removed_edge(new_root)))
            edges.add(frozenset((state.root, int(new_root))))
            t_cand = ot.root_tree(g, [tuple(sorted(e)) for e in edges], int(new_root))
            assert abs(h - (state.cost - ot.tree_k_distance(t_cand, mu, nu))) <= 1e-9
            state.step(new_root, w_added, 0.0)  # force accept
            ref = ot.cumulative_imbalance(state.tree(), ot.imbalance(mu, nu))
            assert np.max(np.abs(state.xi_cum - ref)) <= 1e-9
            pairs += 1
            if pairs == 1000:
                break
    _report("criterion 5: 1000 cycle-formula and incremental-state checks")


GRID4_MU_IMG = blob_image(4, 0.8, 0.8, 1.1)
GRID4_NU_IMG = blob_image(4, 2.3, 2.1, 1.3)


def _grid4_instance(seed):
    return noisy_grid_measures(4, seed, img_mu=GRID4_MU_IMG, img_nu=GRID4_NU_IMG)


@pytest.fixture(scope="module")
def grid4_runs():
    g = ot.grid_graph(4)  # edge weight 1/16
    d = ot.all_pairs_shortest_paths(g)
    runs = []
    for seed in range(20):
        mu, nu = _grid4_instance(seed)
        sol = ot.exact_k_distance(d, mu, nu)
        cfg = ot.AnnealConfig(max_iters=200_000, seed=seed, record_every=10_000)
        res = ot.anneal(g, mu, nu, cfg)
        runs.append((seed, g, d, mu, nu, sol, res))
    return runs


def test_criterion_6_sa_convergence(grid4_runs):
    start = time.perf_counter()
    hits = sum(1 for _, _, _, _, _, sol, res in grid4_runs
               if abs(res.best_cost - sol.value) <= 1e-9)
    for _, _, _, _, _, sol, res in grid4_runs:
        assert res.best_cost >= sol.value - 1e-9
    assert hits >= 19, f"only {hits}/20 seeds reached the exact value"

    # larger lattice smoke run with the million-step budget
    p = 7
    g7 = ot.grid_graph(p)
    mu7, nu7 = noisy_grid_measures(p, seed=7)
    sol7 = ot.exact_k_distance(ot.all_pairs_shortest_paths(g7), mu7, nu7)
    res7 = ot.anneal(g7, mu7, nu7, ot.AnnealConfig(max_iters=1_000_000, seed=7,
                                                   record_every=50_000))
    assert abs(res7.best_cost - sol7.value) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(f"criterion 6: {hits}/20 seeds at exact on the 4x4 lattice; "
            f"7x7 smoke run converged ({elapsed:.1f} s)")


def test_criterion_7_plan_lift_to_graph(grid4_runs):
    checked = 0
    for seed, g, d, mu, nu, sol, res in grid4_runs:
        if abs(res.best_cost - sol.value) > 1e-9:
            continue
        checked += 1
        tree = res.best_tree
        plan = ot.dp_transport_plan(tree, mu, nu)
        assert ot.check_geodesic_support(plan, d, tree, tol=1e-9)
        assert abs(ot.plan_cost(plan, d) - sol.value) <= 1e-9
    assert checked >= 19
    _report(f"criterion 7: geodesic support and exact graph cost on {checked} optimal runs")


def test_criterion_8_line_equivalence():
    rng = np.random.default_rng(8080)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        pts = np.unique(rng.uniform(0, 10, n))
        n = pts.shape[0]
        mu, nu = random_measure_pair(rng, n)
        w1 = ot.line_w1(pts, mu, nu)
        edges = [(i, i + 1, float(pts[i + 1] - pts[i])) for i in range(n - 1)]
        if n == 1:
            continue
        g = ot.build_graph(n, edges)
        t = ot.root_tree(g, [(i, i + 1) for i in range(n - 1)], n - 1)
        assert abs(w1 - ot.tree_k_distance(t, mu, nu)) <= 1e-12
        dist = np.abs(pts[:, None] - pts[None, :])
        assert abs(w1 - ot.exact_k_distance(dist, mu, nu).value) <= 1e-9
    _report("criterion 8: CDF formula matches tree closed form and exact solver")


def test_criterion_9_closed_form_gate(line6_instance):
    rng = np.random.default_rng(9090)
    confirmed = 0
    while confirmed < 40:
        n = int(rng.integers(2, 10))
        g = random_tree_graph(rng, n)
        t = ot.random_spanning_tree(g, rng)
        mu, nu = _alternating_pair(t, rng)
        if not ot.check_alternating_condition(t, mu, nu):
            continue
        confirmed += 1
        closed = ot.closed_form_plan(t, mu, nu)
        dp = ot.dp_transport_plan(t, mu, nu)
        d_t = ot.tree_distance_matrix(t)
        assert abs(ot.plan_cost(closed, d_t) - ot.plan_cost(dp, d_t)) <= 1e-9
        assert np.max(np.abs(closed.row_sums() - mu)) <= 1e-9
        assert np.max(np.abs(closed.col_sums() - nu)) <= 1e-9
        assert np.max(np.abs(closed.diagonal() - np.minimum(mu, nu))) <= 1e-12
        pairs = set(zip(closed.rows.tolist(), closed.cols.tolist()))
        assert not any(x != y and (y, x) in pairs for x, y in pairs)
        assert ot.check_vertex_support(closed)["is_forest"]
        got = ot.plan_to_flow(closed, t)
        ref = ot.beckmann_flow(t, mu, nu)
        assert np.max(np.abs(got.up - ref.up)) <= 1e-9
        assert np.max(np.abs(got.down - ref.down)) <= 1e-9

    g, mu, nu, trees = line6_instance
    for r in range(6):
        with pytest.raises(ConditionViolatedError):
            ot.closed_form_plan(trees[r], mu, nu)
    _report("criterion 9: closed-form plan gate on 40 alternating instances")


def _alternating_pair(t, rng):
    n = t.n
    cum = np.zeros(n)
    for v in range(n):
        if v != t.root:
            sign = 1.0 if t.depth[v] % 2 else -1.0
            cum[v] = sign * rng.uniform(0.2, 1.0) * 0.5 / n
    xi = cum.copy()
    for v in range(n):
        xi[v] -= sum(cum[c] for c in t.children[v])
    base = np.full(n, 1.0 / n)
    mu, nu = base + xi / 2, base - xi / 2
    if mu.min() <= 0 or nu.min() <= 0:
        return base, base
    return mu / mu.sum(), nu / nu.sum()


def test_criterion_10_cli_pipeline(tmp_path):
    img_mu = tmp_path / "img_mu.csv"
    img_nu = tmp_path / "img_nu.csv"
    img_mu.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in GRID4_MU_IMG) + "\n",
        encoding="utf-8",
    )
    img_nu.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in GRID4_NU_IMG) + "\n",
        encoding="utf-8",
    )

    def pipeline(base: Path) -> dict:
        base.mkdir()
        assert cli_main([
            "grid", "--p", "4", "--weight", repr(1 / 16),
            "--image-csv", str(img_mu), "--image-csv", str(img_nu),
            "--noise-sigma", "1e-3", "--seed", "0", "--out-dir", str(base),
        ]) == 0
        assert cli_main([
            "anneal", "--graph", str(base / "graph.json"),
            "--mu", str(base / "mu.json"), "--nu", str(base / "nu.json"),
            "--iters", "200000", "--seed", "0", "--record-every", "10000",
            "--out-dir", str(base),
        ]) == 0
        assert cli_main([
            "plan", "--graph", str(base / "graph.json"),
            "--tree", str(base / "best_tree.json"),
            "--mu", str(base / "mu.json"), "--nu", str(base / "nu.json"),
            "--out-dir", str(base),
        ]) == 0
        assert cli_main([
            "potential", "--graph", str(base / "graph.json"),
            "--tree", str(base / "best_tree.json"),
            "--mu", str(base / "mu.json"), "--nu", str(base / "nu.json"),
            "--out-dir", str(base),
        ]) == 0
        assert cli_main([
            "verify", "--graph", str(base / "graph.json"),
            "--mu", str(base / "mu.json"), "--nu", str(base / "nu.json"),
            "--tree", str(base / "best_tree.json"),
            "--plan", str(base / "plan.csv"),
            "--potential", str(base / "potential.csv"),
            "--exact", "--out", str(base / "verdict.json"),
        ]) == 0
        return json.loads((base / "verdict.json").read_text())

    verdict = pipeline(tmp_path / "run1")
    assert verdict["all_passed"]
    assert verdict["weak_nondegeneracy"]["holds"]

    pipeline(tmp_path / "run2")
    artifacts = ["graph.json", "mu.json", "nu.json", "best_tree.json", "trace.csv",
                 "plan.csv", "flow.csv", "xi.csv", "potential.csv", "verdict.json"]
    for name in artifacts:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report("criterion 10: CLI pipeline verified end to end, byte-identical reruns")
