"""treeot benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload anneal-10x10 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics (see README.md beside this
file). The last line of standard output is the JSON result; a full report
with the environment, every operation's verdict and the spans is written to
``.bench_runs/`` under the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout
from pathlib import Path

from spans import Tracer, totals_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_REPS = 3
CHAINS2_ITERS = 40_000
# no pass starts once this much of the 180 s limit could be used up
HARD_STOP_S = 140.0

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import treeot.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` files, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import networkx
    import numpy
    import treeot

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "treeot": treeot.__version__,
        "cpu_count": os.cpu_count(),
        "kernel_backend": "numba" if treeot.numba_enabled() else "python",
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def overflow_count(caught) -> int:
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message))


def timed_pass(workload, tracer=None):
    """One pass with warnings recorded instead of printed; with a tracer, one
    set-up repetition runs traced before the pass."""
    covered_s = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            with tracer.installed(HOOKS):
                workload.setup()
                run_start = time.perf_counter()
                raw, solve_s, pipeline_s = workload.run(tracer)
            # top-level spans of the pass, children included
            covered_s = sum(s.duration for s in tracer.spans
                            if s.parent is None and s.start >= run_start)
        else:
            raw, solve_s, pipeline_s = workload.run()
    return {"traced": tracer is not None, "solve_s": solve_s, "pipeline_s": pipeline_s,
            "covered_s": covered_s, "checks": workload.check(raw),
            "overflow_warnings": overflow_count(caught)}


def _chain_hook(span, args, result):
    span.attrs["iters"] = result.iters_run
    span.attrs["beta_inf"] = math.isinf(result.trace[-1].beta)


def _dense_bytes_hook(span, args, result):
    span.attrs["bytes"] = args[0].n ** 2 * 8


HOOKS = {
    "annealing._run_chain": _chain_hook,
    "graphs.all_pairs_shortest_paths": _dense_bytes_hook,
    "trees.tree_distance_matrix": _dense_bytes_hook,
}

# spans whose self time is a per-layer metric of the same name plus "_s"
SELF_TIMED = (
    "graphs.build_graph", "graphs.all_pairs_shortest_paths",
    "trees.random_spanning_tree", "trees.tree_distance_matrix", "trees.subtree_aggregate",
    "transport.dp_transport_plan", "transport.plan_to_flow", "transport.tree_potential",
    "oracle.check_cyclical_monotonicity", "oracle.exact_k_distance",
    "oracle.geodesic_support_violation", "oracle.check_weak_nondegeneracy",
    "oracle.lipschitz_violation",
    "cli.grid", "cli.anneal", "cli.plan", "cli.potential", "cli.verify",
)


def layer_metrics(spans, result) -> dict:
    """Per-layer values of one traced pass (set-up repetition included)."""
    totals = totals_by_name(spans)

    def self_s(prefix: str) -> float:
        return sum(t for name, (t, _) in totals.items() if name.startswith(prefix))

    def largest_bytes(name: str) -> int:
        return max((s.attrs["bytes"] for s in spans if s.name == name), default=0)

    chains = [s for s in spans if s.name == "annealing._run_chain"]
    iters = sum(s.attrs["iters"] for s in chains)
    # wall time of the outermost annealing calls, as a caller sees it
    anneal_wall = sum(
        s.duration for s in spans
        if s.name.startswith("annealing.")
        and (s.parent is None or not spans[s.parent].name.startswith("annealing."))
    )
    checks = result["checks"]
    out = {f"{name}_s": totals.get(name, (0.0, 0))[0] for name in SELF_TIMED}
    out.update({
        "annealing.anneal_s": self_s("annealing."),
        "annealing.iters": iters,
        "annealing.iters_per_s": iters / anneal_wall if anneal_wall > 0 else 0.0,
        "annealing.iters_to_exact.p50": statistics.median(c.iters_to_exact for c in checks),
        "annealing.exact_share": sum(c.exact for c in checks) / len(checks),
        "annealing.gap_rel": statistics.fmean(c.gap_rel for c in checks),
        "annealing.beta_inf_share": sum(s.attrs["beta_inf"] for s in chains) / max(len(chains), 1),
        "annealing.overflow_warnings": result["overflow_warnings"],
        "graphs.apsp_bytes": largest_bytes("graphs.all_pairs_shortest_paths"),
        "trees.random_spanning_tree.calls": totals.get("trees.random_spanning_tree", (0.0, 0))[1],
        "trees.tree_distance_matrix_bytes": largest_bytes("trees.tree_distance_matrix"),
        "fileio.load_s": self_s("fileio.load_"),
        "fileio.save_s": self_s("fileio.save_"),
    })
    return out


def chains2_speedup(seed: int, workdir: Path) -> float:
    """Iterations/s of anneal_chains(chains=2) over those of anneal, on the
    32x32 lattice of the README walkthrough, made by the program's own grid
    command."""
    import treeot as ot
    import treeot.cli
    from treeot import fileio

    d = workdir / "chains2"
    with redirect_stdout(io.StringIO()):
        treeot.cli.main(["grid", "--p", "32", "--noise-sigma", "1e-3", "--seed", str(seed),
                         "--out-dir", str(d)])
    g = fileio.load_graph(d / "graph.json")
    mu = fileio.load_measure(d / "mu.json", g.n)
    nu = fileio.load_measure(d / "nu.json", g.n)
    cfg = ot.AnnealConfig(max_iters=CHAINS2_ITERS, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        t0 = time.perf_counter()
        ot.anneal(g, mu, nu, cfg)
        one = CHAINS2_ITERS / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        ot.anneal_chains(g, mu, nu, cfg, 2)
        two = 2 * CHAINS2_ITERS / (time.perf_counter() - t0)
    return two / one


def tally(passes) -> tuple[int, list]:
    """Operations attempted over all passes, and the checks that failed."""
    checks = [c for p in passes for c in p["checks"]]
    return len(checks), [c for c in checks if not c.passed]


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def measure(args, workload, workdir: Path, started: float) -> dict:
    """Set up, then repeat passes for ``args.seconds``; returns the report."""
    setups = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - t0)
    problems = workload.cross_check()

    untraced, traced, span_dump = [], [], []
    t_measure = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(timed_pass(workload))
        if args.trace:
            tracer = Tracer()
            result = timed_pass(workload, tracer)
            result["layers"] = layer_metrics(tracer.spans, result)
            traced.append(result)
            span_dump.append([[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans])
        now = time.perf_counter()
        if now - t_measure >= args.seconds or (now - started) + (now - t0) > HARD_STOP_S:
            break

    report = {"setup_s": statistics.median(setups), "setup_reps": setups,
              "cross_check_problems": problems, "untraced": untraced, "traced": traced,
              "spans": span_dump}
    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["annealing.chains2_speedup"] = chains2_speedup(args.seed, workdir)
        layers["tracing_overhead_s"] = median_of(traced, "pipeline_s") - median_of(untraced, "pipeline_s")
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    listed = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "treeot" / "__init__.py").is_file():
        print(f"error: no treeot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treeot

    if not Path(treeot.__file__).resolve().is_relative_to(SRC):
        print(f"error: treeot imported from {treeot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workdir = RUNS_DIR / f"work-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir)
    try:
        report = measure(args, workload, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = report["untraced"] + report["traced"]
    attempted, failed = tally(passes)
    if args.trace:
        values = report["layers"]
    else:
        untraced = report["untraced"]
        values = {
            "setup_s": report["setup_s"],
            "solve_s": median_of(untraced, "solve_s"),
            "pipeline_s": median_of(untraced, "pipeline_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # names and units come from BENCHMARK.json, so the two cannot drift apart
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    env = environment(args)
    result = {
        "correct": not failed and not report["cross_check_problems"],
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }

    RUNS_DIR.mkdir(exist_ok=True)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {
        "environment": env,
        "result": result,
        "setup_reps_s": report["setup_reps"],
        "cross_check_problems": report["cross_check_problems"],
        "passes": [
            {"traced": p["traced"], "solve_s": p["solve_s"], "pipeline_s": p["pipeline_s"],
             "overflow_warnings": p["overflow_warnings"],
             "covered_s": p["covered_s"],
             "operations": [{"label": c.label, "passed": c.passed, "problems": c.problems,
                             "gap_rel": c.gap_rel, "iters_to_exact": c.iters_to_exact}
                            for c in p["checks"]]}
            for p in passes
        ],
        "spans": report["spans"],
    }
    out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"environment": env}))
    for c in failed:
        print(f"FAILED {c.label}: {'; '.join(c.problems)}")
    for problem in report["cross_check_problems"]:
        print(f"CROSS-CHECK {problem}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for p in report["traced"]:
        print(f"accounting: top-level spans cover {p['covered_s']:.4f} s of traced pipeline_s "
              f"{p['pipeline_s']:.4f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
