"""Command-line front end.

Subcommands: grid, anneal, plan, potential, verify, export-dot.
Exit codes: 0 success, 2 bad input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fileio, graphs
from ._kernels import kernel_backend
from .annealing import AnnealConfig, anneal, anneal_chains
from .errors import InputError, TreeOTError
from .graphs import WeightedGraph, grid_graph, pair_distances
from .oracle import (
    VALUE_TOL,
    certified_dual,
    check_cyclical_monotonicity,
    complementary_violation,
    check_vertex_support,
    geodesic_support_violation,
    lipschitz_violation,
    potential_match_up_to_constant,
    solve,
)
from .transport import (
    _plan_from_entries,
    as_measure,
    beckmann_flow,
    cumulative_imbalance,
    dp_transport_plan,
    imbalance,
    plan_cost,
    plan_to_flow,
    tree_k_distance,
    tree_potential,
)
from .trees import tree_distance

#: No command builds the dense Floyd-Warshall matrix any more; the name stays
#: bound here because perfbench's tracer test reads it from this module.
all_pairs_shortest_paths = graphs.all_pairs_shortest_paths


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreeOTError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it
    unchanged (an ``append`` action copies its default before appending)."""
    parser = argparse.ArgumentParser(prog="treeot")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("grid", help="generate a lattice graph and pixel measures")
    p.add_argument("--p", type=int, required=True, help="side length")
    p.add_argument("--weight", type=float, default=None, help="edge weight (default 1/p^2)")
    p.add_argument("--image-csv", action="append", default=[], help="p x p pixel file; repeatable")
    p.add_argument("--noise-sigma", default="0", help="uniform noise bound, or 'auto' for 1e-3 of the max pixel")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("anneal", help="search spanning trees for the transport cost minimum")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--tree", default=None, help="initial spanning tree (default: random)")
    p.add_argument("--config", default=None, help="JSON file with config defaults")
    p.add_argument("--iters", type=int, default=None,
                   help="iteration budget (default 100000); a certified optimum stops the chain sooner")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--eta", type=float, default=None,
                   help="growth of beta per proposal (default 0.002)")
    p.add_argument("--record-every", type=int, default=None)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--target-cost", type=float, default=None,
                   help="stop early once the best cost reaches this cost (README: Stopping)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("plan", help="optimal transport plan for a spanning tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("potential", help="dual potential for a spanning tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("verify", help="run consistency checks, optionally against the exact solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--tree", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--potential", default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None, help="also write the verdict JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dot", help="Graphviz view of graph, tree and plan")
    p.add_argument("--graph", required=True)
    p.add_argument("--tree", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)
    return parser


def _write_manifest(out_dir: Path, command: str, inputs: dict, config: dict, outputs: list[str],
                    started: float, **fields) -> None:
    """``<command>.manifest.json`` in ``out_dir``, so commands that share an
    output directory keep one manifest each; ``fields`` are the command's
    own top-level entries."""
    doc = {
        "command": command,
        "inputs": inputs,
        "config": config,
        "version": __version__,
        "kernel_backend": kernel_backend(),
        "wall_clock_s": time.time() - started,
        "outputs": outputs,
        **fields,
    }
    fileio._write_text(out_dir / f"{command}.manifest.json",
                       json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_grid(args) -> int:
    started = time.time()
    if args.seed < 0:  # SeedSequence takes no negative entropy
        raise InputError(f"--seed must be non-negative, not {args.seed}")
    g = grid_graph(args.p, args.weight)
    if args.image_csv:
        images = [fileio.load_image_csv(path, args.p) for path in args.image_csv]
    else:
        images = [np.ones((args.p, args.p)), np.ones((args.p, args.p))]
    streams = np.random.SeedSequence(args.seed).spawn(len(images))
    names = (["mu.json", "nu.json"][:len(images)] if len(images) <= 2
             else [f"measure_{k}.json" for k in range(len(images))])
    measures = []
    for img, stream in zip(images, streams):
        pixels = img.reshape(-1)
        sigma = _parse_sigma(args.noise_sigma, pixels)
        if sigma > 0.0:
            rng = np.random.default_rng(stream)
            pixels = pixels + rng.uniform(0.0, sigma, size=pixels.shape)
        measures.append(as_measure(pixels, g.n, normalize=True))
    out_dir = Path(args.out_dir)  # made only once the inputs have passed
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_graph(out_dir / "graph.json", g)
    for name, measure in zip(names, measures):
        fileio.save_measure(out_dir / name, measure)
    outputs = ["graph.json", *names]
    _write_manifest(
        out_dir,
        "grid",
        {"image_csv": list(args.image_csv)},
        {"p": args.p, "weight": args.weight, "noise_sigma": args.noise_sigma, "seed": args.seed},
        outputs,
        started,
    )
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def _parse_sigma(raw: str, pixels: np.ndarray) -> float:
    if str(raw).strip().lower() == "auto":
        return 1e-3 * float(pixels.max())
    try:
        sigma = float(raw)
    except ValueError:
        sigma = math.nan
    if not 0.0 <= sigma < math.inf:
        raise InputError(f"--noise-sigma must be 'auto' or a finite number >= 0, not {raw!r}")
    return sigma


def _anneal_config(args) -> AnnealConfig:
    base = {"max_iters": 100_000}  # every other default is AnnealConfig's
    if args.config:
        overrides_file = fileio._parse_json(args.config)
        if not isinstance(overrides_file, dict):
            raise InputError(f"{args.config}: expected a JSON object of annealing settings")
        unknown = set(overrides_file) - {f.name for f in dataclasses.fields(AnnealConfig)}
        if unknown:
            raise TreeOTError(f"unknown config keys: {sorted(unknown)}")
        base.update(overrides_file)
    overrides = {
        "max_iters": args.iters,
        "seed": args.seed,
        "beta0": args.beta0,
        "eta": args.eta,
        "record_every": args.record_every,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return AnnealConfig(**base)
    except (TypeError, ValueError) as exc:  # TypeError: a config value is not a number
        raise InputError(f"bad annealing config: {exc}") from None


def cmd_anneal(args) -> int:
    started = time.time()
    g = fileio.load_graph(args.graph)
    mu = fileio.load_measure(args.mu, g.n)
    nu = fileio.load_measure(args.nu, g.n)
    cfg = _anneal_config(args)
    if args.chains < 1:
        raise InputError(f"--chains must be at least 1, not {args.chains}")
    if args.target_cost is not None and not math.isfinite(args.target_cost):
        raise InputError(f"--target-cost must be a finite number, not {args.target_cost!r}")
    initial = fileio.load_tree(args.tree, g) if args.tree else None
    if args.chains > 1:
        if initial is not None:
            raise TreeOTError("--tree only applies to a single chain")
        result, _ = anneal_chains(g, mu, nu, cfg, args.chains, target_cost=args.target_cost)
    else:
        result = anneal(g, mu, nu, cfg, initial_tree=initial, target_cost=args.target_cost)
    out_dir = Path(args.out_dir)  # made only once the inputs have passed
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_tree(out_dir / "best_tree.json", result.best_tree)
    fileio.save_trace(out_dir / "trace.csv", result.trace)
    _write_manifest(
        out_dir,
        "anneal",
        {"graph": args.graph, "mu": args.mu, "nu": args.nu, "tree": args.tree},
        {**cfg.__dict__, "chains": args.chains, "target_cost": args.target_cost},
        ["best_tree.json", "trace.csv"],
        started,
        stop_reason=result.stop_reason,
        iters_run=result.iters_run,
    )
    print(repr(result.best_cost))
    return 0


def cmd_plan(args) -> int:
    started = time.time()
    g = fileio.load_graph(args.graph)
    t = fileio.load_tree(args.tree, g)
    mu = fileio.load_measure(args.mu, g.n)
    nu = fileio.load_measure(args.nu, g.n)
    plan = dp_transport_plan(t, mu, nu)
    out_dir = Path(args.out_dir)  # made only once the inputs have passed
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_plan(out_dir / "plan.csv", plan)
    fileio.save_flow(out_dir / "flow.csv", t, plan_to_flow(plan, t))
    fileio.save_cumulative_imbalance(out_dir / "xi.csv", cumulative_imbalance(t, imbalance(mu, nu)))
    cost = tree_k_distance(t, mu, nu)
    _write_manifest(
        out_dir,
        "plan",
        {"graph": args.graph, "tree": args.tree, "mu": args.mu, "nu": args.nu},
        {},
        ["plan.csv", "flow.csv", "xi.csv"],
        started,
    )
    print(repr(cost))
    return 0


def cmd_potential(args) -> int:
    started = time.time()
    g = fileio.load_graph(args.graph)
    t = fileio.load_tree(args.tree, g)
    mu = fileio.load_measure(args.mu, g.n)
    nu = fileio.load_measure(args.nu, g.n)
    certified = certified_dual(g, t, mu, nu)
    u, unique = certified or (tree_potential(t, mu, nu), None)
    if unique is None:
        print("warning: the tree is not certified optimal; no claim on the dual", file=sys.stderr)
    elif not unique:
        print("warning: the potential is not unique", file=sys.stderr)
    out_dir = Path(args.out_dir)  # made only once the inputs have passed
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_potential(out_dir / "potential.csv", u)
    _write_manifest(
        out_dir,
        "potential",
        {"graph": args.graph, "tree": args.tree, "mu": args.mu, "nu": args.nu},
        {},
        ["potential.csv"],
        started,
        dual_unique=unique,
    )
    print(repr(float(np.dot(u.values, mu - nu))))
    return 0


def cmd_verify(args) -> int:
    g = fileio.load_graph(args.graph)
    mu = fileio.load_measure_raw(args.mu, g.n)
    nu = fileio.load_measure_raw(args.nu, g.n)
    verdict = _run_checks(
        g,
        mu,
        nu,
        tree_path_=args.tree,
        plan_path=args.plan,
        potential_path=args.potential,
        exact=args.exact,
    )
    text = json.dumps(verdict, sort_keys=True, indent=2)
    print(text)
    if args.out:
        fileio._write_text(args.out, text + "\n")
    return 0 if verdict["all_passed"] else 3


def _run_checks(g: WeightedGraph, mu, nu, tree_path_, plan_path, potential_path, exact) -> dict:
    checks: list[dict] = []
    metrics: dict[str, float] = {}

    def add(name: str, violation: float, tol: float = VALUE_TOL):
        checks.append(
            {"name": name, "passed": bool(violation <= tol), "violation": float(violation)}
        )

    add("measure_nonnegative_mu", max(0.0, -float(mu.min())), 0.0)
    add("measure_nonnegative_nu", max(0.0, -float(nu.min())), 0.0)
    add("measure_mass_mu", abs(float(mu.sum()) - 1.0))
    add("measure_mass_nu", abs(float(nu.sum()) - 1.0))
    if not all(c["passed"] for c in checks):
        # the remaining checks presuppose valid measures
        return {
            "checks": checks,
            "metrics": metrics,
            "dual_unique": {"value": None, "reason": "the measures are invalid"},
            "all_passed": False,
        }

    tree = fileio.load_tree(tree_path_, g) if tree_path_ else None
    unique = {"value": None, "reason": "no --tree given"}
    if tree is not None:
        metrics["tree_cost"] = tree_k_distance(tree, mu, nu)
        certified = certified_dual(g, tree, mu, nu)
        unique = ({"value": None, "reason": "the tree is not certified optimal"} if certified is None
                  else {"value": certified[1], "reason": None})

    plan = None
    if plan_path:
        triplets = fileio.load_plan_triplets(plan_path)
        masses = np.array([m for _, _, m in triplets], dtype=np.float64)
        neg = max(0.0, -float(masses.min())) if masses.size else 0.0
        add("plan_nonnegative", neg, 0.0)
        if neg == 0.0:
            plan = _plan_from_entries(g.n, triplets)
    if plan is not None:
        # graph and tree distances are read only at the support pairs
        on_graph = pair_distances(g, plan.rows, plan.cols)
        on_tree = tree_distance(tree, plan.rows, plan.cols) if tree is not None else None
        add("plan_marginals", max(
            float(np.max(np.abs(plan.row_sums() - mu))),
            float(np.max(np.abs(plan.col_sums() - nu))),
        ))
        add("plan_diagonal_maximal",
            float(np.max(np.abs(plan.diagonal() - np.minimum(mu, nu)))))
        pairs = set(zip(plan.rows.tolist(), plan.cols.tolist()))
        overlap = sum(1 for x, y in pairs if x != y and (y, x) in pairs)
        add("plan_no_antiparallel", float(overlap), 0.0)
        support = check_vertex_support(plan)
        add("plan_support_forest", 0.0 if support["is_forest"] else 1.0, 0.0)
        add("plan_cyclically_monotone",
            0.0 if check_cyclical_monotonicity(plan, g, on_graph) else 1.0, 0.0)
        metrics["plan_cost_graph"] = plan_cost(plan, on_graph)
        if tree is not None:
            metrics["plan_cost_tree"] = plan_cost(plan, on_tree)
            add("plan_cost_tree_matches_tree_cost",
                abs(metrics["plan_cost_tree"] - metrics["tree_cost"]))
            add("plan_geodesic_support", geodesic_support_violation(plan, on_graph, on_tree))
            ref = beckmann_flow(tree, mu, nu)
            got = plan_to_flow(plan, tree)
            add("flow_matches_cumulative", max(
                float(np.max(np.abs(ref.up - got.up))),
                float(np.max(np.abs(ref.down - got.down))),
            ))

    potential = fileio.load_potential(potential_path, g.n) if potential_path else None
    if potential is not None:
        add("potential_lipschitz", lipschitz_violation(potential, g))
        metrics["potential_duality_value"] = float(np.dot(potential.values, mu - nu))
        if tree is not None:
            add("potential_duality_tree",
                abs(metrics["potential_duality_value"] - metrics["tree_cost"]))
        if plan is not None:
            add("complementary_slackness",
                complementary_violation(plan, potential, on_tree if tree is not None else on_graph))

    if exact:
        solution = solve(g, as_measure(mu, g.n, normalize=True), as_measure(nu, g.n, normalize=True))
        metrics["exact_value"] = solution.value
        metrics["exact_pivots"] = solution.pivots
        if tree is not None:
            gap = metrics["tree_cost"] - solution.value
            metrics["tree_gap_vs_exact"] = gap
            add("tree_cost_matches_exact", abs(gap))
        if plan is not None:
            add("plan_cost_matches_exact", abs(metrics["plan_cost_graph"] - solution.value))
        if potential is not None:
            add("potential_duality_exact",
                abs(metrics["potential_duality_value"] - solution.value))
            if unique["value"]:
                add("potential_matches_exact_dual",
                    0.0 if potential_match_up_to_constant(potential, solution.potential) else 1.0,
                    0.0)

    return {
        "checks": checks,
        "metrics": metrics,
        "dual_unique": unique,
        "all_passed": all(c["passed"] for c in checks),
    }


def cmd_export_dot(args) -> int:
    g = fileio.load_graph(args.graph)
    tree = fileio.load_tree(args.tree, g) if args.tree else None
    plan = None
    if args.plan:
        plan = _plan_from_entries(g.n, fileio.load_plan_triplets(args.plan))
    text = export_dot(g, tree, plan)
    if args.out:
        fileio._write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def export_dot(g: WeightedGraph, tree=None, plan=None) -> str:
    """Graphviz digraph: plain edges, highlighted tree edges, plan arrows with
    width scaled by transported mass."""
    tree_edges = tree.edge_set() if tree is not None else set()
    lines = ["digraph G {", "  node [shape=circle];"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v, w in g.edges:
        style = ' color="blue" penwidth=2' if (u, v) in tree_edges else ""
        lines.append(f'  {u} -> {v} [dir=none label="{w!r}"{style}];')
    if plan is not None and plan.support_size:
        top = float(plan.mass.max())
        for x, y, m in plan.entries():
            if x == y:
                continue
            width = 6.0 * m / top  # proportional to transported mass
            lines.append(f'  {x} -> {y} [color="green" penwidth={width!r} label="{m!r}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
