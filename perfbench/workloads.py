"""The benchmark's workloads: input generation, one timed pass, and the
checks of every answer against the networkx reference.

A workload object is used in three steps: ``setup()`` makes the inputs (it
may be repeated), ``run(tracer)`` makes one timed pass and returns its raw
outputs with ``solve_s`` and ``pipeline_s``, and ``check(raw)`` turns the raw
outputs into one :class:`OpCheck` per operation. Checks run outside the
timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import treeot as ot
import treeot.cli

from reference import reference_w1

# what counts as exact or optimal: the package's own absolute tolerance
TOL = 1e-9
# the benchmark's consistency checks are relative: at n=1024 the costs are
# about 1e-7, where an absolute 1e-9 would let a 1% error through
REL = 1e-9

ANNEAL_P = 10
ANNEAL_INSTANCES = 16
ANNEAL_MAX_ITERS = 1_000_000

# verify failures that a suboptimal tree explains; any other failing check
# means the program contradicts itself
OPTIMALITY_CHECKS = frozenset({
    "potential_lipschitz",
    "plan_cyclically_monotone",
    "plan_geodesic_support",
    "tree_cost_matches_exact",
    "plan_cost_matches_exact",
    "potential_duality_exact",
    "potential_matches_exact_dual",
})


@dataclass
class OpCheck:
    """Verdict on one operation: an anneal-10x10 instance or one pipeline."""

    label: str
    problems: list[str]
    gap_rel: float  # (tree cost - reference W1) / reference W1
    exact: bool
    iters_to_exact: int  # censored at the iterations run when never exact

    @property
    def passed(self) -> bool:
        return not self.problems


def blob_image(p: int, cx: float, cy: float, spread: float) -> np.ndarray:
    yy, xx = np.mgrid[0:p, 0:p].astype(float)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * spread**2))


def blob_images(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The tests' lattice protocol: two Gaussian blobs."""
    return (blob_image(p, 0.2 * p, 0.2 * p, 0.28 * p),
            blob_image(p, 0.58 * p, 0.53 * p, 0.33 * p))


def noisy_blob_measures(p: int, seed: int, sigma: float = 1e-3):
    """Blob images plus uniform noise in [0, sigma), normalized."""
    streams = np.random.SeedSequence(seed).spawn(2)
    out = []
    for img, stream in zip(blob_images(p), streams):
        pixels = img.reshape(-1) + np.random.default_rng(stream).uniform(0, sigma, p * p)
        out.append(pixels / pixels.sum())
    return out[0], out[1]


def tree_cost(n: int, root: int, tree_edges, edge_weight: dict, xi) -> float:
    """Tree transport cost computed from scratch: breadth-first order from the
    root, subtree sums of ``xi``, then sum of weight * |subtree sum|.
    Raises ValueError if ``tree_edges`` is not a spanning tree of graph edges."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    order = [root]
    for v in order:
        for nb in adjacency[v]:
            if not seen[nb]:
                seen[nb] = True
                parent[nb] = v
                order.append(nb)
    if len(order) != n or len(tree_edges) != n - 1:
        raise ValueError("not a spanning tree")
    cum = [float(x) for x in xi]
    total = 0.0
    for v in reversed(order[1:]):
        cum[parent[v]] += cum[v]
        total += edge_weight[min(v, parent[v]), max(v, parent[v])] * abs(cum[v])
    return total


def differ(a: float, b: float) -> bool:
    return abs(a - b) > REL * max(abs(a), abs(b))


def _edge_weights(edges) -> dict:
    return {(min(u, v), max(u, v)): float(w) for u, v, w in edges}


class AnnealLattice:
    """anneal-10x10: the fixed corpus of 16 lattice instances, solved through
    the library API (anneal, then the plan and potential of its tree)."""

    name = "anneal-10x10"

    def __init__(self, seed: int):
        # the corpus is fixed (instance seeds 0-15); the workload seed only
        # orders it
        self.order = np.random.default_rng(seed).permutation(ANNEAL_INSTANCES).tolist()
        self.refs: list[float] = []

    def setup(self) -> None:
        g = ot.grid_graph(ANNEAL_P)
        dist = ot.all_pairs_shortest_paths(g)
        instances = []
        for s in self.order:
            mu, nu = noisy_blob_measures(ANNEAL_P, s)
            instances.append((s, mu, nu, ot.exact_k_distance(dist, mu, nu).value))
        self.graph, self.dist, self.instances = g, dist, instances

    def cross_check(self) -> list[str]:
        """Reference W1 per instance, compared with the exact targets."""
        g = self.graph
        self.refs = [reference_w1(g.n, g.edges, mu, nu) for _, mu, nu, _ in self.instances]
        return [
            f"instance {s}: reference {ref!r} vs exact_k_distance {exact!r}"
            for (s, _, _, exact), ref in zip(self.instances, self.refs)
            if differ(ref, exact)
        ]

    def run(self, tracer=None):
        raw = []
        solve = 0.0
        start = time.perf_counter()
        for s, mu, nu, exact in self.instances:
            t0 = time.perf_counter()
            res = ot.anneal(self.graph, mu, nu,
                            ot.AnnealConfig(max_iters=ANNEAL_MAX_ITERS, seed=s),
                            target_cost=exact)
            solve += time.perf_counter() - t0
            plan = ot.dp_transport_plan(res.best_tree, mu, nu)
            potential = ot.tree_potential(res.best_tree, mu, nu)
            raw.append((res, plan, potential))
        return raw, solve, time.perf_counter() - start

    def check(self, raw) -> list[OpCheck]:
        g = self.graph
        weights = _edge_weights(g.edges)
        out = []
        for (s, mu, nu, _), ref, (res, plan, potential) in zip(self.instances, self.refs, raw):
            cost = res.best_cost
            problems = []
            if cost < ref * (1 - REL):
                problems.append(f"cost {cost!r} below reference W1 {ref!r}")
            t = res.best_tree
            own = tree_cost(g.n, t.root, sorted(t.edge_set()), weights, mu - nu)
            if differ(own, cost):
                problems.append(f"returned cost {cost!r} but the tree costs {own!r}")
            rows = np.bincount(plan.rows, plan.mass, g.n)
            cols = np.bincount(plan.cols, plan.mass, g.n)
            if max(np.abs(rows - mu).max(), np.abs(cols - nu).max()) > TOL:
                problems.append("plan marginals differ from mu, nu")
            graph_cost = float(np.dot(plan.mass, self.dist[plan.rows, plan.cols]))
            if not ref * (1 - REL) <= graph_cost <= cost * (1 + REL):
                problems.append(f"plan cost {graph_cost!r} outside [W1, tree cost]")
            duality = float(np.dot(potential.values, mu - nu))
            if differ(duality, cost):
                problems.append(f"potential_duality_tree: {duality!r} vs {cost!r}")
            out.append(OpCheck(f"instance {s}", problems, cost / ref - 1.0,
                               abs(cost - ref) <= TOL, res.iters_run))
        return out


class VerifyPipeline:
    """verify-8x8: grid -> anneal -> plan -> potential -> verify --plan
    --exact through ``treeot.cli.main``, in-process, on files in a work
    directory. The blob images keep the annealed plan optimal."""

    name = "verify-8x8"
    p = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name

    def setup(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        for name, img in zip(("mu_image.csv", "nu_image.csv"), blob_images(self.p)):
            text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in img)
            (self.dir / name).write_text(text, encoding="utf-8")

    def cross_check(self) -> list[str]:
        return []  # done per pipeline against verify --exact, see check()

    def _steps(self) -> list[list[str]]:
        d = str(self.dir)
        files = ["--graph", f"{d}/graph.json", "--mu", f"{d}/mu.json", "--nu", f"{d}/nu.json"]
        tree = ["--tree", f"{d}/best_tree.json"]
        return [
            ["grid", "--p", str(self.p), "--seed", str(self.seed), "--noise-sigma", "auto",
             "--image-csv", f"{d}/mu_image.csv", "--image-csv", f"{d}/nu_image.csv", "--out-dir", d],
            ["anneal", *files, "--seed", str(self.seed), "--out-dir", d],
            ["plan", *files, *tree, "--out-dir", d],
            ["potential", *files, *tree, "--out-dir", d],
            ["verify", *files, *tree, "--plan", f"{d}/plan.csv", "--potential", f"{d}/potential.csv",
             "--exact"],
        ]

    def run(self, tracer=None):
        raw = {}
        start = time.perf_counter()
        for argv in self._steps():
            sub = argv[0]
            stdout, stderr = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{sub}") if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
                code = treeot.cli.main(argv)
            raw[sub] = (code, stdout.getvalue(), time.perf_counter() - t0)
        return raw, raw["anneal"][2], time.perf_counter() - start

    def check(self, raw) -> list[OpCheck]:
        label = f"pipeline seed {self.seed}"
        try:
            return [self._check(label, raw)]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # a failed step leaves outputs missing or malformed
            return [OpCheck(label, [f"unreadable output: {exc!r}"], math.nan, False, 0)]

    def _check(self, label: str, raw) -> OpCheck:
        d = self.dir
        problems = []
        graph = json.loads((d / "graph.json").read_text())
        mu = np.array(json.loads((d / "mu.json").read_text()))
        nu = np.array(json.loads((d / "nu.json").read_text()))
        n = graph["n"]
        ref = reference_w1(n, graph["edges"], mu, nu)
        for sub in ("grid", "anneal", "plan", "potential"):
            if raw[sub][0] != 0:
                problems.append(f"{sub} exited {raw[sub][0]}")
        tree_doc = json.loads((d / "best_tree.json").read_text())
        cost = tree_cost(n, tree_doc["root"], tree_doc["edges"], _edge_weights(graph["edges"]), mu - nu)
        if cost < ref * (1 - REL):
            problems.append(f"tree cost {cost!r} below reference W1 {ref!r}")
        for sub in ("anneal", "plan", "potential"):
            printed = float(raw[sub][1].strip().splitlines()[-1])
            if differ(printed, cost):
                problems.append(f"{sub} printed {printed!r}, the tree costs {cost!r}")

        code, text, _ = raw["verify"]
        verdict = json.loads(text)
        optimal = cost <= ref + TOL
        expected = 0 if optimal else 3
        if code != expected:
            problems.append(f"verify exited {code}, reference says {expected}")
        failed = {c["name"] for c in verdict["checks"] if not c["passed"]}
        if failed - OPTIMALITY_CHECKS:
            problems.append(f"verify failed consistency checks {sorted(failed - OPTIMALITY_CHECKS)}")
        if differ(verdict["metrics"]["tree_cost"], cost):
            problems.append("verify's tree_cost differs from the tree's cost")
        if "exact_value" in verdict["metrics"] and differ(verdict["metrics"]["exact_value"], ref):
            problems.append(f"exact_k_distance {verdict['metrics']['exact_value']!r} "
                            f"vs reference {ref!r}")

        iters_to_exact = 0
        with open(d / "trace.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                iters_to_exact = int(row["iter"])
                if float(row["best_cost"]) <= ref + TOL:
                    break
        return OpCheck(label, problems, cost / ref - 1.0, optimal, iters_to_exact)


def make_workload(name: str, seed: int, workdir: Path):
    if name == "anneal-10x10":
        return AnnealLattice(seed)
    if name == "verify-8x8":
        return VerifyPipeline(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("anneal-10x10", "verify-8x8")
