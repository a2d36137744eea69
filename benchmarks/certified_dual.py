"""Time ``certified_dual`` on the certified trees of README's instance.

For ``grid --p P --noise-sigma auto --seed s`` (P = 16, 32, 64; s = 1-5),
``anneal`` runs with ``AnnealConfig(max_iters=2_000_000, seed=s)`` and must
stop ``"certified"``. On its best tree the script gives K, the number of
components of the flow forest (the tree less its edges whose cumulative
imbalance is within ``transport.imbalance_zero``), the verdict ``unique``,
and the least of five timed ``certified_dual`` calls. Usage:

    PYTHONPATH=src python benchmarks/certified_dual.py [--sizes 16 32 64] [--seeds 5]

It prints one Markdown row per instance.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import treeot as ot
from treeot.transport import imbalance_zero

from anneal_corpora import cli_grid

CALLS = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--seeds", type=int, default=5, help="seeds 1..SEEDS")
    args = parser.parse_args()
    print(f"| P | seed | K | unique | certified_dual ms (min of {CALLS}) |")
    print("| --- | --- | --- | --- | --- |")
    for p in args.sizes:
        for seed in range(1, args.seeds + 1):
            g, mu, nu = cli_grid(p, seed, blobs=False)
            res = ot.anneal(g, mu, nu, ot.AnnealConfig(max_iters=2_000_000, seed=seed))
            if res.stop_reason != "certified":
                raise SystemExit(f"P = {p}, seed {seed}: anneal stopped {res.stop_reason!r}")
            t = res.best_tree
            xi = ot.imbalance(mu, nu)
            k = 1 + int(np.count_nonzero(
                np.abs(ot.cumulative_imbalance(t, xi)[t.parent >= 0]) <= imbalance_zero(xi)))
            times = []
            for _ in range(CALLS):
                start = time.perf_counter()
                _, unique = ot.certified_dual(g, t, mu, nu)
                times.append(time.perf_counter() - start)
            print(f"| {p} | {seed} | {k} | {unique} | {1e3 * min(times):.2f} |")


if __name__ == "__main__":
    main()
