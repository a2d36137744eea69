"""Proposals that the annealer needs to reach W1, per corpus and per beta0:
the table of README's "Annealing defaults", and its count of degenerate
20x20 chains that reach W1.

Every chain runs ``anneal`` with the default ``AnnealConfig`` but for
``beta0`` and ``max_iters``, 2,000,000; W1 is ``solve``'s value. A corpus
stops its chains one of two ways:

- ``target``: ``target_cost`` is W1; a chain reaches W1 when it stops
  ``"target"``.
- ``certified``: no target; a chain reaches W1 when it stops
  ``"certified"`` within 1e-9 relative of W1.

The corpora, chain k on seed k and instance s on seed s:

- ``10x10``: ``noisy_grid_measures(10, s)``, s = 0-15 (the anneal-10x10
  benchmark's instances);
- ``freeze-4x4``: the 4x4 freeze corpus of the tests, 40 measure pairs from
  ``default_rng(s).random(16)``, five chains each, on unit weights;
- ``degenerate-6x6``: 40 draws of ``degenerate_measures`` from
  ``default_rng(7)``, one chain each;
- ``blobs-8x8``: ``grid --p 8 --noise-sigma auto`` on the blob images, s =
  1-30;
- ``readme-16``, ``readme-32``, ``readme-64``: README's instance ``grid --p P
  --noise-sigma auto --seed s``, s = 1-5 (``--seeds`` sets the last s);
- ``degenerate-20x20``: ``degenerate_measures(default_rng(m), 400)``, m =
  4-6, 20 chains each of 300,000 proposals, no target; it counts the chains
  whose best cost is within 1e-12 relative of W1, and gives the range of the
  relative gaps of the others.

Instances come from the tests' ``conftest`` and from ``treeot.cli.main``
itself. Usage:

    PYTHONPATH=src python benchmarks/anneal_corpora.py [--beta0 0.1 1 3 10]
        [--corpus NAME ...] [--seeds S]

It prints one Markdown row per corpus: proposals in all for each beta0,
with ``(k/N)`` after a count where only k of the N chains reached W1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import treeot as ot
import treeot.cli
from treeot import fileio

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import blob_image, degenerate_measures, noisy_grid_measures  # noqa: E402

BUDGET, DEGENERATE_BUDGET = 2_000_000, 300_000


def cli_grid(p: int, seed: int, blobs: bool):
    """The graph and measures that ``treeot grid --p p --noise-sigma auto
    --seed seed`` writes, on the blob images where ``blobs``."""
    with tempfile.TemporaryDirectory() as d:
        argv = ["grid", "--p", str(p), "--seed", str(seed), "--noise-sigma", "auto",
                "--out-dir", d]
        if blobs:
            images = (blob_image(p, 0.2 * p, 0.2 * p, 0.28 * p),
                      blob_image(p, 0.58 * p, 0.53 * p, 0.33 * p))
            for name, img in zip(("mu.csv", "nu.csv"), images):
                text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in img)
                Path(d, name).write_text(text, encoding="utf-8")
                argv += ["--image-csv", str(Path(d, name))]
        with contextlib.redirect_stdout(io.StringIO()):
            if treeot.cli.main(argv) != 0:
                raise SystemExit(f"treeot {' '.join(argv)} failed")
        g = fileio.load_graph(Path(d, "graph.json"))
        return g, fileio.load_measure(Path(d, "mu.json"), g.n), fileio.load_measure(
            Path(d, "nu.json"), g.n)


def freeze_4x4():
    g = ot.grid_graph(4, 1.0)
    for s in range(40):
        r = np.random.default_rng(s)
        mu, nu = r.random(16), r.random(16)
        for seed in range(5):
            yield g, mu / mu.sum(), nu / nu.sum(), seed


def degenerate_6x6():
    g, rng = ot.grid_graph(6), np.random.default_rng(7)
    for _ in range(40):
        yield (g, *degenerate_measures(rng, 36), 0)


def degenerate_20x20():
    g = ot.grid_graph(20)
    for m in (4, 5, 6):
        mu, nu = degenerate_measures(np.random.default_rng(m), 400)
        for seed in range(20):
            yield g, mu, nu, seed


#: name: (stop, chains as (graph, mu, nu, chain seed), given the last README seed)
CORPORA = {
    "10x10": ("target", lambda last: (
        (ot.grid_graph(10), *noisy_grid_measures(10, s), s) for s in range(16))),
    "freeze-4x4": ("target", lambda last: freeze_4x4()),
    "degenerate-6x6": ("target", lambda last: degenerate_6x6()),
    "blobs-8x8": ("certified", lambda last: (
        (*cli_grid(8, s, True), s) for s in range(1, 31))),
    **{f"readme-{p}": ("certified", lambda last, p=p: (
        (*cli_grid(p, s, False), s) for s in range(1, last + 1))) for p in (16, 32, 64)},
    "degenerate-20x20": ("budget", lambda last: degenerate_20x20()),
}


def run(stop: str, chains, betas: list[float]) -> list[str]:
    """One cell per beta0: proposals in all, or for the budget corpus the
    count that reached W1 and the range of the gaps of the others."""
    totals = [0] * len(betas)
    reached = [0] * len(betas)
    gaps = [[] for _ in betas]
    count = 0
    solved = {}
    for g, mu, nu, seed in chains:
        count += 1
        key = (id(g), mu.tobytes(), nu.tobytes())
        if key not in solved:
            solved[key] = ot.solve(g, mu, nu).value
        w1 = solved[key]
        for i, beta0 in enumerate(betas):
            budget = DEGENERATE_BUDGET if stop == "budget" else BUDGET
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=budget, seed=seed, beta0=beta0),
                            target_cost=w1 if stop == "target" else None)
            gap = (res.best_cost - w1) / w1
            totals[i] += res.iters_run
            if stop == "budget":
                ok = gap <= 1e-12
                gaps[i] += [] if ok else [gap]
            else:
                ok = res.stop_reason == stop and abs(gap) <= 1e-9
            reached[i] += ok
    if stop == "budget":
        return [f"{k}/{count} reach W1"
                + (f", others {min(above):.1e}–{max(above):.1e} above" if above else "")
                for k, above in zip(reached, gaps)]
    return [f"{total:,}" + ("" if k == count else f" ({k}/{count})")
            for total, k in zip(totals, reached)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta0", type=float, nargs="+", default=[0.1, 1.0, 3.0, 10.0])
    parser.add_argument("--corpus", nargs="+", choices=list(CORPORA), default=list(CORPORA))
    parser.add_argument("--seeds", type=int, default=5,
                        help="last instance seed of the readme corpora (default 5)")
    args = parser.parse_args(argv)
    print("| corpus | stop | " + " | ".join(f"β0 = {b:g}" for b in args.beta0) + " |")
    print("| --- | --- |" + " --- |" * len(args.beta0))
    for name in args.corpus:
        stop, chains = CORPORA[name]
        cells = run(stop, chains(args.seeds), args.beta0)
        print(f"| {name} | {stop} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
