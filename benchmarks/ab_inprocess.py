"""Paired in-process timing of two source trees of treeot.

Each ``DIR`` is a source checkout. Its ``src/treeot`` is loaded under a
package name of its own (``treeot_base``, ``treeot_change``), so both trees
run in one interpreter, and each of their C kernels is built from its own
source. Passes of the two trees alternate, base first in even pairs and
change first in odd ones, so that a slow phase of the machine falls on both
sides of a pair. Paired ratios therefore settle changes that separate
benchmark runs, whose medians move with such phases, cannot.

One pair times both trees on two workloads, as perfbench defines them:

- ``anneal-10x10``: the library loop over the 16 fixed 10x10 lattice
  instances (noisy blobs, instance seeds 0-15), each annealed with its exact
  W1 as the target, then its DP plan and its tree potential. ``solve_s``
  sums the ``anneal`` calls, ``pipeline_s`` times the loop.
- ``verify-8x8``: the CLI pipeline ``grid -> anneal -> plan -> potential ->
  verify --plan --exact`` on the 8x8 blob images, through each tree's
  ``cli.main`` in a directory of its own. ``solve_s`` times ``anneal``,
  ``pipeline_s`` the five commands.

Usage:

    python benchmarks/ab_inprocess.py --base DIR --change DIR [--pairs 100] [--seed 1]

It prints, per workload and metric, both medians, the base's quartiles, the
median of the paired ratios change/base, in how many pairs the change was
faster, and a verdict by :func:`verdict`, the metric's bound read from the
repository's ``BENCHMARK.json``. It exits 1
if the two trees' outputs differ: on anneal-10x10 the best trees, plans,
potentials or iteration counts; on verify-8x8 any file in the work directory
(every file the five commands write, the manifests without ``wall_clock_s``)
or any command's exit code, stdout or stderr, each with the work directory's
path replaced by ``<workdir>``. It names the outputs that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

P_ANNEAL, INSTANCES, MAX_ITERS = 10, 16, 1_000_000
P_VERIFY = 8
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(checkout: Path, name: str):
    """The package ``src/treeot`` of ``checkout``, imported as ``name``,
    with its ``cli`` module loaded."""
    root = checkout / "src" / "treeot"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    importlib.import_module(f"{name}._kernels").kernels()  # built now, untimed
    return package


def blob_image(p: int, cx: float, cy: float, spread: float) -> np.ndarray:
    yy, xx = np.mgrid[0:p, 0:p].astype(float)
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * spread**2))


def blob_images(p: int):
    return (blob_image(p, 0.2 * p, 0.2 * p, 0.28 * p),
            blob_image(p, 0.58 * p, 0.53 * p, 0.33 * p))


def noisy_blob_measures(p: int, seed: int, sigma: float = 1e-3):
    streams = np.random.SeedSequence(seed).spawn(2)
    out = []
    for img, stream in zip(blob_images(p), streams):
        pixels = img.reshape(-1) + np.random.default_rng(stream).uniform(0, sigma, p * p)
        out.append(pixels / pixels.sum())
    return tuple(out)


def anneal_pass(ot, instances):
    """One anneal-10x10 pass: ``(solve_s, pipeline_s, outputs)``."""
    g = ot.grid_graph(P_ANNEAL)
    outputs, solve = [], 0.0
    start = time.perf_counter()
    for s, mu, nu, exact in instances:
        t0 = time.perf_counter()
        res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=MAX_ITERS, seed=s), target_cost=exact)
        solve += time.perf_counter() - t0
        plan = ot.dp_transport_plan(res.best_tree, mu, nu)
        potential = ot.tree_potential(res.best_tree, mu, nu)
        outputs.append((res, plan, potential))
    pipeline = time.perf_counter() - start
    return solve, pipeline, [
        (res.iters_run, res.best_tree.root, res.best_tree.parent.tobytes(),
         res.best_tree.weight_to_parent.tobytes(), plan.rows.tobytes(), plan.cols.tobytes(),
         plan.mass.tobytes(), potential.values.tobytes())
        for res, plan, potential in outputs]


def verify_pass(ot, workdir: Path, seed: int):
    """One verify-8x8 pass in ``workdir``: ``(solve_s, pipeline_s, outputs)``."""
    d = str(workdir)
    files = ["--graph", f"{d}/graph.json", "--mu", f"{d}/mu.json", "--nu", f"{d}/nu.json"]
    tree = ["--tree", f"{d}/best_tree.json"]
    steps = [
        ["grid", "--p", str(P_VERIFY), "--seed", str(seed), "--noise-sigma", "auto",
         "--image-csv", f"{d}/mu_image.csv", "--image-csv", f"{d}/nu_image.csv", "--out-dir", d],
        ["anneal", *files, "--seed", str(seed), "--out-dir", d],
        ["plan", *files, *tree, "--out-dir", d],
        ["potential", *files, *tree, "--out-dir", d],
        ["verify", *files, *tree, "--plan", f"{d}/plan.csv", "--potential", f"{d}/potential.csv",
         "--exact"],
    ]
    solve = 0.0
    streams = {}
    start = time.perf_counter()
    for argv in steps:
        t0 = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ot.cli.main(argv)
        if argv[0] == "anneal":
            solve = time.perf_counter() - t0
        if code not in (0, 3):
            raise SystemExit(f"{ot.__name__}: {argv[0]} exited {code}")
        streams[f"{argv[0]} (exit {code}) stdout"] = out.getvalue()
        streams[f"{argv[0]} stderr"] = err.getvalue()
    pipeline = time.perf_counter() - start
    return solve, pipeline, written(workdir, streams)


def written(workdir: Path, streams: dict[str, str]) -> dict[str, str]:
    """Every file in ``workdir`` by name, then ``streams``: the manifests
    without ``wall_clock_s``, and the path of ``workdir`` replaced in all."""
    found = {}
    for path in sorted(workdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".manifest.json"):
            doc = json.loads(text)
            del doc["wall_clock_s"]
            text = json.dumps(doc, sort_keys=True, indent=2)
        found[path.name] = text
    found.update(streams)
    return {name: text.replace(str(workdir), "<workdir>") for name, text in found.items()}


def verdict(base: list[float], change: list[float], bound: float) -> str:
    """The reading of paired timings (lower is better): ``"gain"`` where the
    change is faster in at least nine tenths of the pairs, ties counting for
    neither, and its median is below the base's by more than the base's
    interquartile range; ``"worse"`` where its median exceeds the base's by
    more than the fraction ``bound``; else ``"unresolved"``."""
    q1, _, q3 = statistics.quantiles(base, n=4)
    wins = sum(c < b for b, c in zip(base, change))
    base_median, change_median = statistics.median(base), statistics.median(change)
    if wins >= 0.9 * len(base) and base_median - change_median > q3 - q1:
        return "gain"
    if change_median > base_median * (1.0 + bound):
        return "worse"
    return "unresolved"


def summary(base: list[float], change: list[float], bound: float) -> dict:
    ratios = [c / b for b, c in zip(base, change)]
    q1, _, q3 = statistics.quantiles(base, n=4)
    return {"base_ms": 1e3 * statistics.median(base), "change_ms": 1e3 * statistics.median(change),
            "base_q1_ms": 1e3 * q1, "base_q3_ms": 1e3 * q3, "base_iqr_ms": 1e3 * (q3 - q1),
            "paired_ratio": statistics.median(ratios), "wins": sum(r < 1.0 for r in ratios),
            "pairs": len(ratios), "verdict": verdict(base, change, bound)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout timed as the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout timed as the change")
    parser.add_argument("--pairs", type=int, default=100, help="pairs of passes per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the verify-8x8 pipeline")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"base": load(args.base, "treeot_base"), "change": load(args.change, "treeot_change")}
    ref = sides["base"]
    g = ref.grid_graph(P_ANNEAL)
    dist = ref.all_pairs_shortest_paths(g)
    instances = []
    for s in range(INSTANCES):
        mu, nu = noisy_blob_measures(P_ANNEAL, s)
        instances.append((s, mu, nu, ref.exact_k_distance(dist, mu, nu).value))

    times = {(w, m, side): [] for w in ("anneal-10x10", "verify-8x8")
             for m in ("solve_s", "pipeline_s") for side in sides}
    differ = {}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in sides}
        for d in dirs.values():
            d.mkdir()
            for name, img in zip(("mu_image.csv", "nu_image.csv"), blob_images(P_VERIFY)):
                text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in img)
                (d / name).write_text(text, encoding="utf-8")
        for k in range(args.pairs):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for workload, run in (("anneal-10x10", lambda side: anneal_pass(sides[side], instances)),
                                  ("verify-8x8",
                                   lambda side: verify_pass(sides[side], dirs[side], args.seed))):
                outputs = {}
                for side in order:
                    solve, pipeline, outputs[side] = run(side)
                    times[workload, "solve_s", side].append(solve)
                    times[workload, "pipeline_s", side].append(pipeline)
                base, change = outputs["base"], outputs["change"]
                if base != change:
                    names = ([k for k in base.keys() | change.keys() if base.get(k) != change.get(k)]
                             if isinstance(base, dict) else [])
                    differ.setdefault(workload, set()).update(names)

    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    report = {}
    print(f"{'workload':14} {'metric':11} {'base ms':>9} {'change ms':>9} {'base q1':>9} "
          f"{'base q3':>9} {'ratio':>7} {'wins':>9} verdict")
    for workload, metric, _ in list(times)[::2]:
        row = summary(times[workload, metric, "base"], times[workload, metric, "change"],
                      bounds[metric])
        report[f"{workload}.{metric}"] = row
        print(f"{workload:14} {metric:11} {row['base_ms']:9.2f} {row['change_ms']:9.2f} "
              f"{row['base_q1_ms']:9.2f} {row['base_q3_ms']:9.2f} {row['paired_ratio']:7.3f} "
              f"{row['wins']:4}/{row['pairs']:<4} {row['verdict']}")
    for workload, names in sorted(differ.items()):
        print(f"{workload}: the two trees' outputs differ", *sorted(names), sep="\n  ")
    print(json.dumps({"outputs_differ": sorted(differ), "metrics": report}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
